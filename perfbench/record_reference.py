"""Record the reference outputs the benchmark checks against.

Run once, from the repository root, on the commit whose outputs become the
reference:

    python3 perfbench/record_reference.py

It writes perfbench/reference.json.  Integer quantities are stored exactly.
For the order-3 character, whose library path is floating point, it stores
the library's float value and, beside it, the exact value: window sums of a
cubic character are integer pairs a + b*omega, so |w|^2 = a^2 - ab + b^2 and
the complete moment are exact integers, and W = sum c*sqrt(|w|^2) is summed
with math.fsum from correctly rounded square roots.  The largest relative
deviation of the library's floats from these values is stored too; it is
the evidence for workloads.FLOAT_RTOL.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

from burgess import bounds, chars, congruence, moments, sieve  # noqa: E402

import workloads as wl  # noqa: E402


def cubic_prefix(chi: chars.Character) -> tuple[np.ndarray, np.ndarray]:
    """Exact prefix sums of chi(n) = omega^(dlog n mod 3) in the basis 1, omega.

    Laid out like chars.PrefixTable: index k in [0, q], S_q = S_{q-1} = 0.
    """
    assert chi.order == 3 and chi.index == (chi.q - 1) // 3
    e = chi.modulus.dlog[1:] % 3
    a = np.choose(e, [1, 0, -1]).astype(np.int64)
    b = np.choose(e, [0, 1, -1]).astype(np.int64)
    out = []
    for comp in (a, b):
        s = np.concatenate([[0], np.cumsum(comp), [0]])
        assert s[-2] == 0
        out.append(s)
    return out[0], out[1]


def cubic_norms(pa: np.ndarray, pb: np.ndarray, lams: np.ndarray,
                v: int) -> np.ndarray:
    """|w(lam)|^2 for w(lam) = sum_{j<=v} chi(lam + j), as exact integers."""
    q = len(pa) - 1
    a0 = lams % q
    hi = a0 + v
    wrap = hi > q
    idx = np.where(wrap, hi - q, hi)
    wa = pa[idx] - pa[a0] + np.where(wrap, pa[q], 0)
    wb = pb[idx] - pb[a0] + np.where(wrap, pb[q], 0)
    return wa * wa - wa * wb + wb * wb


def exact_moment(norms: np.ndarray, r: int) -> int:
    counts = np.bincount(norms)
    return sum(int(c) * k ** r for k, c in enumerate(counts.tolist()) if c)


def rel(got: float, want) -> float:
    return abs(got - want) / abs(want)


def int_ref(x) -> dict:
    assert wl.is_int(x), x
    return {"int": int(x)}


def record_holder(workload: str, out: dict, errors: dict) -> None:
    order, moduli = wl.HOLDER_CELLS[workload]
    for q, r_values, _ in moduli:
        n = wl.window_length(q)
        chi = chars.build_modulus(q).character((q - 1) // order)
        pa = pb = None
        if order == 3:
            pa, pb = cubic_prefix(chi)
            omega = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
            drift = np.abs(pa + pb * omega - chi.prefix.sums).max()
            assert drift < 1e-6, drift
        for r in r_values:
            moment = None
            for m in wl.holder_pool(q, order, r):
                rep = bounds.holder_chain(chi, m, n, r)
                assert rep.passed
                entry = {"U": rep.params.U, "V": rep.params.V,
                         "rough_count": rep.rough_count,
                         "first_moment": int_ref(rep.first_moment),
                         "second_moment": int_ref(rep.second_moment)}
                if order == 2:
                    for name in ("W", "moment2r", "holder_lhs", "holder_rhs"):
                        entry[name] = int_ref(getattr(rep, name))
                else:
                    v = rep.params.V
                    if moment is None:
                        lams = np.arange(1, q + 1, dtype=np.int64)
                        moment = exact_moment(cubic_norms(pa, pb, lams, v), r)
                    rough = sieve.enumerate_rough(rep.params.z, rep.params.U)
                    dist = congruence.collision_distribution(
                        congruence.CollisionInstance(q=q, M=m, N=n,
                                                     rough=rough))
                    lams = np.fromiter(dist.counts, dtype=np.int64)
                    cnts = np.fromiter(dist.counts.values(), dtype=np.int64)
                    norms = cubic_norms(pa, pb, lams, v)
                    w = math.fsum(int(c) * math.sqrt(int(k))
                                  for c, k in zip(cnts, norms))
                    rhs = (dist.first_moment ** (2 * r - 2)
                           * dist.second_moment * moment)
                    entry["W"] = {"float": rep.W, "accurate": w}
                    entry["moment2r"] = {"float": rep.moment2r, "int": moment}
                    entry["holder_lhs"] = {"float": rep.holder_lhs,
                                           "accurate": w ** (2 * r)}
                    entry["holder_rhs"] = {"float": rep.holder_rhs, "int": rhs}
                    for name, want in (("W", w), ("moment2r", moment)):
                        errors[name] = max(errors.get(name, 0.0),
                                           rel(getattr(rep, name), want))
                out[wl.holder_key(q, order, r, m)] = entry
            print(f"{workload} q={q} r={r} done", file=sys.stderr)
        del chi, pa, pb
        gc.collect()


def record_moments(out: dict, errors: dict) -> None:
    for q, order, r in wl.MOMENT_CELLS:
        chi = chars.build_modulus(q).character((q - 1) // order)
        rep = moments.moment_check(chi, V="auto", r=r)
        assert rep.passed and rep.specialized_passed
        entry = {"V": rep.V, "bound": rep.bound}
        if order == 2:
            entry["moment"] = int_ref(rep.moment)
        else:
            pa, pb = cubic_prefix(chi)
            lams = np.arange(1, q + 1, dtype=np.int64)
            exact = exact_moment(cubic_norms(pa, pb, lams, rep.V), r)
            entry["moment"] = {"float": rep.moment, "int": exact}
            errors["moment"] = max(errors.get("moment", 0.0),
                                   rel(rep.moment, exact))
            del pa, pb, lams
        out[f"{q}:{order}:{r}"] = entry
        del chi
        gc.collect()
        print(f"moments q={q} order={order} r={r} done", file=sys.stderr)


def record_pv() -> dict:
    worst, worst_q, ratios = bounds.pv_ratio_scan(wl.PV_LIMIT)
    primes = wl.primes_in(3, wl.PV_LIMIT)
    assert [q for q, _ in ratios] == primes
    spreads = []
    for q, ratio in ratios:
        spread = bounds.max_window_spread(q)
        assert spread.is_integer()
        assert ratio == spread / (math.sqrt(q) * math.log(q))
        spreads.append(int(spread))
    return {"worst": worst, "worst_q": worst_q, "spreads": spreads}


def main() -> int:
    errors: dict[str, float] = {}
    holder: dict = {}
    for workload in wl.HOLDER_CELLS:
        record_holder(workload, holder, errors)
    moment_ref: dict = {}
    record_moments(moment_ref, errors)
    ref = {"recorded_from": "seed code, burgess 0.1.0",
           "float_relative_error": errors,
           "holder": holder, "moments": moment_ref, "pv": record_pv()}
    path = os.path.join(HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}; float relative errors {errors}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
