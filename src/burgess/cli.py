"""Command-line front end: every library operation behind a subcommand.

Each subcommand is a generator ``run_<name>(args, cfg)``, bound on its
subparser, that yields one ``(inputs, outputs, passes)`` triple per record.
Records are JSON Lines by default (schema field = 1), each written and
flushed as soon as it is produced, so a crash mid-sweep keeps every finished
record; --format csv flattens the same fields and is written at the end.
Sweeps run in canonical (q, char index, r, M) order, one character serving
every r and M of its index.  Identical config + seed gives byte-identical
output apart from ``timings.elapsed_s``, the seconds spent producing that
record.  Exit codes: 0 success, 1 an inequality or invariant check failed,
2 invalid input, 3 unexpected error (traceback on stderr); a run whose
reader closes its pipe exits with the code of the records produced so far.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import random
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import __version__
from . import bounds as bnd
from . import chars, congruence, moments, sieve
from .errors import BurgessError, CompositeModulus

SCHEMA = 1


@dataclass
class ExperimentConfig:
    """Defaults for sweep subcommands; every field has a runnable default.

    The seed fully determines any randomized instance set, so reruns with
    the same config are reproducible record for record.
    """

    primes: list[int] = field(default_factory=lambda: [101])
    char_spec: str = "legendre"
    r_values: list[int] = field(default_factory=lambda: [2])
    N_spec: str = "q^0.4"
    M_spec: str = "random:5"
    z: float | None = None
    U: int | None = None
    V: int | None = None
    A: float = 0.1
    C: float = 10.0
    seed: int = 1

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def parse_range(text: str) -> range:
    """Inclusive a..b range, with an optional :step, not yet listed."""
    span, _, step = text.strip().partition(":")
    lo, hi = span.split("..")
    return range(int(lo), int(hi) + 1, int(step) if step else 1)


def parse_int_list(text: str) -> list[int]:
    """Comma list or inclusive a..b range, with an optional :step."""
    if ".." in text:
        return list(parse_range(text))
    return [int(x) for x in text.split(",") if x.strip()]


def parse_primes_spec(text: str) -> list[int]:
    """Comma list of primes, each certified, or the primes of an a..b[:step]
    range, ascending: the range's top is checked against the ceiling and the
    table cap before one sieve of [a, b] lists them."""
    if ".." not in text:
        vals = parse_int_list(text)
        for v in vals:
            chars.certify_modulus(v)
        return vals
    span = parse_range(text)
    if not span:
        return []
    lo, hi = sorted((span[0], span[-1]))
    chars.check_table_size(hi)
    return [p for p in sieve.primes_between(lo, hi) if p in span]


def parse_n_spec(text: str, q: int) -> int:
    """Absolute count, or a q-power expression like q^0.4 whose exponent is
    finite and whose power is a double."""
    text = text.strip()
    if text.startswith("q^"):
        exponent = float(text[2:])
        try:
            if math.isfinite(exponent):
                return max(1, int(q ** exponent))
        except OverflowError:  # q^exponent past the double range
            pass
        raise ValueError(f"N = {text} is not a finite double; "
                         "give N as an integer")
    return int(text)


def parse_m_spec(text: str, q: int, rng: random.Random) -> list[int]:
    """List/range of starts, or random:k window starts drawn from [0, q)."""
    text = text.strip()
    if text.startswith("random:"):
        k = int(text.split(":", 1)[1])
        return [rng.randrange(q) for _ in range(k)]
    return parse_int_list(text)


def char_indices(spec: str, q: int) -> list[int]:
    """legendre | index:m | orders-dividing:d, as nontrivial indices mod q."""
    spec = spec.strip().lower()
    if spec == "legendre":
        return [(q - 1) // 2]
    if spec.startswith("index:"):
        return [int(spec.split(":", 1)[1]) % (q - 1)]
    if spec.startswith("orders-dividing:"):
        d = int(spec.split(":", 1)[1])
        step = (q - 1) // math.gcd(q - 1, d)
        return [m for m in range(step, q - 1, step)] or []
    raise ValueError(f"unknown character spec {spec!r}")


def load_config(path: str) -> ExperimentConfig:
    """key = value lines; # starts a comment; unknown keys are an error."""
    cfg = ExperimentConfig()
    valid = {f.name for f in fields(ExperimentConfig)}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in valid:
                raise ValueError(f"{path}:{ln}: unknown key {key!r}")
            if key == "primes":
                cfg.primes = parse_primes_spec(val)
            elif key == "r_values":
                cfg.r_values = parse_int_list(val)
            elif key in ("N_spec", "M_spec", "char_spec"):
                setattr(cfg, key, val)
            elif key in ("A", "C", "z"):
                setattr(cfg, key, float(val))
            elif key in ("U", "V", "seed"):
                setattr(cfg, key, int(val))
    return cfg


def _past_double(x) -> bool:
    """x is a float or Fraction outside the finite doubles."""
    try:
        return not math.isfinite(x)
    except OverflowError:  # a Fraction too large for a float
        return True


def jsonable(obj):
    """Coerce numpy scalars/arrays, dataclasses and Fractions into strict
    JSON values: a float or Fraction past the double range is None (null),
    never Infinity or NaN."""
    if isinstance(obj, np.generic):
        return jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return jsonable(asdict(obj))
    if isinstance(obj, (float, Fraction)):
        return None if _past_double(obj) else float(obj)
    return obj


def _log10(x: int | float | Fraction) -> float:
    """log10 of a positive int, float or Fraction of any size, exactly."""
    x = Fraction(x)
    return math.log10(x.numerator) - math.log10(x.denominator)


def _log10_beside(outputs: dict, **log10) -> dict:
    """outputs with a <key>_log10 = log10[key]() beside each given key whose
    value passes the double range (printed null)."""
    for key, f in log10.items():
        if isinstance(outputs[key], (float, Fraction)) and _past_double(
                outputs[key]):
            outputs[f"{key}_log10"] = f()
    return outputs


def _past_str(x) -> bool:
    """x is an int with more digits than str() converts (the limit of
    sys.get_int_max_str_digits, where the Python has one; 0 is none)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return (isinstance(x, int) and limit > 0 and x.bit_length() > 3 * limit
            and abs(x) >= 10 ** limit)


def make_record(command: str, inputs: dict, outputs: dict, passes: dict,
                elapsed: float, config_hash: str) -> dict:
    """The record of one yield; an output int past str()'s digit limit
    prints null beside its <key>_log10."""
    for key, val in list(outputs.items()):
        if _past_str(val):
            outputs[key], outputs[f"{key}_log10"] = None, _log10(abs(val))
    return {"schema": SCHEMA, "version": __version__, "command": command,
            "config_hash": config_hash, "inputs": jsonable(inputs),
            "outputs": jsonable(outputs), "passes": jsonable(passes),
            "timings": {"elapsed_s": elapsed}}


def flatten_record(rec: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, val in rec.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            flat.update(flatten_record(val, prefix=f"{name}."))
        elif isinstance(val, list):
            flat[name] = json.dumps(val)
        else:
            flat[name] = val
    return flat


def write_csv(records: list[dict], out) -> None:
    flats = [flatten_record(r) for r in records]
    header = sorted({k for f in flats for k in f})
    writer = csv.DictWriter(out, fieldnames=header)
    writer.writeheader()
    writer.writerows(flats)


def _sweep_cells(args, cfg: ExperimentConfig):
    """(chi, r, N, M-list) cells in (q, chi index, r) order: one Character
    per (q, index), of one modulus per q, serves every r and window start."""
    spec = args.primes if args.primes is not None else args.q
    primes = cfg.primes if spec is None else parse_primes_spec(str(spec))
    r_values = [args.r] if args.r is not None else cfg.r_values
    if any(r < 1 for r in r_values):
        raise ValueError("r must be >= 1")
    n_spec = getattr(args, "N", None) or cfg.N_spec
    m_spec = getattr(args, "m_spec", None) or cfg.M_spec
    char_spec = (f"index:{args.index}" if args.index is not None
                 else "legendre" if args.legendre else cfg.char_spec)
    for q in sorted(primes):
        n = parse_n_spec(str(n_spec), q)
        mod = chars.build_modulus(q)
        for m_idx in char_indices(char_spec, q):
            chi = mod.character(m_idx)
            for r in sorted(r_values):
                rng = random.Random(f"{cfg.seed}:{q}:{m_idx}:{r}:{n}")
                yield chi, r, n, parse_m_spec(m_spec, q, rng)


def run_sum(args, cfg):
    mod = chars.build_modulus(args.q)
    chi = mod.legendre() if args.index is None else mod.character(args.index)
    n = parse_n_spec(args.N if args.N is not None else str(args.q), args.q)
    s = chars.interval_sum(chi, args.M, n)
    c = (chars.lattice_complex(chi.order, s) if isinstance(s, tuple)
         else complex(s))
    yield ({"q": args.q, "char_index": chi.index, "M": args.M, "N": n},
           {"re": c.real, "im": c.imag,
            "exact_int": s if isinstance(s, int) else None,
            "abs": abs(c), "order": chi.order},
           {})


def run_scan(args, cfg):
    # M values keep their given order: argmax_M is the first tied maximum.
    for chi, r, n, m_values in _sweep_cells(args, cfg):
        res = bnd.extremal_scan(chi, None, n, m_values, r=r)
        yield ({"q": chi.q, "char_index": chi.index, "r": r, "N": n,
                "M_count": len(m_values)},
               {"windows": res.windows, "max_abs_sum": res.max_abs_sum,
                "argmax_M": res.argmax_M, "worst_ratio": res.worst_ratio},
               {"pv_below_one": res.worst_ratio["polya_vinogradov"] < 1.0})


def run_moments(args, cfg):
    v = next(x for x in (args.V, cfg.V, "auto") if x is not None)
    for chi, r, _, _ in _sweep_cells(args, cfg):
        report = moments.moment_check(chi, V=v, r=r)
        q = report.q
        a, b = moments.weil_terms(r, report.V, q)
        c = (2 * r) ** (2 * r) * q  # the specialized bound is c sqrt(q)
        outputs = {"moment": report.moment, "bound": report.bound,
                   "margin": report.margin, "exact": report.exact,
                   "specialized_bound": report.specialized_bound}
        # the bounds' log10 from their exact floors a + floor(b sqrt(q))
        _log10_beside(
            outputs, moment=lambda: _log10(report.moment),
            bound=lambda: _log10(a + math.isqrt(b * b * q)),
            specialized_bound=lambda: _log10(math.isqrt(c * c * q)))
        yield ({"q": q, "char_index": chi.index, "r": r, "V": report.V},
               outputs,
               {"moment_le_bound": report.passed,
                "specialized": report.specialized_passed})


def run_sieve(args, cfg):
    mv = sieve.mertens_product(args.z)
    out = {"primes": sieve.primes_below(args.z),
           "primorial": sieve.primorial(args.z),
           "mertens": mv.value,
           "mertens_exact": str(mv.exact) if mv.exact is not None else None}
    if args.spf is not None:  # trial division: a table holds n + 1 entries
        if args.spf < 2:
            raise ValueError(f"spf({args.spf}): n must be at least 2")
        sieve.check_limit(args.spf)
        out["spf_n"] = args.spf
        out["spf"] = min(chars.factorize(args.spf))
    yield {"z": args.z}, out, {}


def run_rough(args, cfg):
    rs = sieve.enumerate_rough(args.z, args.U)
    out = {"count": rs.count,
           "members_head": [int(x) for x in rs.members[:50]]}
    passes = {}
    if args.t is not None:
        out["divisible_by_t"] = sieve.count_rough_divisible(rs, args.t)
        out["t"] = args.t
    if args.ratio:
        ratio = sieve.rough_density_ratio(
            args.z, args.U, C=args.C if args.C is not None else cfg.C)
        out["density_ratio"] = ratio
        passes["ratio_in_bracket"] = 0.3 <= ratio <= 3.0
    yield {"z": args.z, "U": args.U}, out, passes


def run_congruence(args, cfg):
    # no q-sized table, so no table cap; past MAX_INT64_Q the library refuses q
    if args.q <= congruence.MAX_INT64_Q and not chars.is_prime(args.q):
        raise CompositeModulus(f"{args.q} is not prime")
    if (args.u1 is None) != (args.u2 is None):
        raise ValueError("--u1 and --u2 must be given together")
    n = parse_n_spec(args.N if args.N is not None else "q^0.45", args.q)
    if args.u1 is not None:
        count = congruence.pair_collision_count(args.u1, args.u2,
                                                args.M, n, args.q)
        yield ({"q": args.q, "M": args.M, "N": n,
                "u1": args.u1, "u2": args.u2},
               {"pair_count": count}, {})
        return
    params = _averaging_params(args, cfg, n, args.q, 2)
    rs = sieve.enumerate_rough(params.z, params.U)
    inst = congruence.CollisionInstance(
        q=args.q, M=args.M, N=n, rough=rs,
        A=args.A if args.A is not None else cfg.A)
    report = congruence.congruence_count(inst)
    passes = {}
    if args.brute:
        passes["oracle_match"] = (
            congruence.brute_force_congruence_count(inst) == report.I_value)
    yield ({"q": args.q, "M": args.M, "N": n, "z": params.z, "U": params.U,
            "A": inst.A},
           {"I_value": report.I_value, "diagonal": report.diagonal,
            "bound": report.bound, "ratio": report.ratio,
            "rough_count": rs.count,
            "hypotheses": inst.hypotheses,
            "in_hypothesis": report.in_hypothesis},
           passes)


def _averaging_params(args, cfg, n: int, q: int, r: int) -> bnd.BurgessParams:
    """resolve_params with z, U and V each laid over it (source "override")
    from its flag, else its config value; the first one set wins, so a
    config U = 0 is refused downstream, not replaced by the derived U."""
    params = bnd.resolve_params(n, q, r)
    overrides = {k: next((x for x in (getattr(args, k, None), getattr(cfg, k))
                          if x is not None), None) for k in ("z", "U", "V")}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if not overrides:
        return params
    return dataclasses.replace(params, **overrides, degenerate=False,
                               source="override")


def run_holder(args, cfg):
    for chi, r, n, m_values in _sweep_cells(args, cfg):
        params = _averaging_params(args, cfg, n, chi.q, r)
        for m in sorted(m_values):
            report = bnd.holder_chain(chi, m, n, r, params=params)
            p = report.params
            outputs = {"U": p.U, "V": p.V, "z": p.z, "params_source": p.source}
            outputs.update({k: getattr(report, k) for k in (
                "rough_count", "W", "first_moment", "second_moment",
                "moment2r", "holder_lhs", "holder_rhs", "exact", "path")})
            # W^{2r} and rhs = I_1^{2r-2} I_2 moment from their exact parts
            _log10_beside(
                outputs, moment2r=lambda: _log10(report.moment2r),
                holder_lhs=lambda: 2 * r * _log10(report.W),
                holder_rhs=lambda: (2 * r - 2) * _log10(report.first_moment)
                + _log10(report.second_moment) + _log10(report.moment2r))
            yield ({"q": chi.q, "char_index": chi.index, "r": r, "N": n,
                    "M": m},
                   outputs, {"holder": report.passed})


def run_bounds(args, cfg):
    chars.certify_modulus(args.q)
    n = parse_n_spec(args.N if args.N is not None else "q^0.5", args.q)
    params = bnd.derive_params(n, args.q, args.r)
    values = {}
    for name in bnd.VARIANTS if args.variant == "all" else (args.variant,):
        values[name] = bnd.bound_value(
            name, n, args.q, r=args.r, grh_delta=args.grh_delta)
    ordered = [values[v] for v in bnd.REFINEMENT_ORDER if v in values]
    yield ({"q": args.q, "N": n, "r": args.r, "grh_delta": args.grh_delta},
           {"U": params.U, "V": params.V, "z": params.z,
            "degenerate": params.degenerate,
            "in_refined_range": params.in_refined_range,
            "bounds": values},
           {"variant_ordering":
            all(a <= b for a, b in zip(ordered, ordered[1:]))})


def run_nonresidue(args, cfg):
    least = bnd.least_nonresidue(args.q)  # by Euler's criterion
    gap, start, first = bnd.nonresidue_max_gap(args.q)  # by the squares
    yield ({"q": args.q},
           {"least": least, "max_gap": gap, "gap_start": start},
           {"least_by_squares": least == first})


def run_verify(args, cfg):
    from . import acceptance
    for res in acceptance.run_suite():
        print(acceptance.format_line(res), file=sys.stderr)
        yield ({"criterion": res.cid},
               {"name": res.name, "details": res.details},
               {"criterion": res.passed})


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "q" in names:
        p.add_argument("--q", type=int, required=True, help="prime modulus")
    if "char" in names:
        g = p.add_mutually_exclusive_group()
        g.add_argument("--legendre", action="store_true",
                       help="quadratic character (default)")
        g.add_argument("--index", type=int, help="character index m")
    if "M" in names:
        p.add_argument("--M", type=int, default=0, help="window start")
    if "N" in names:
        p.add_argument("--N", type=str, default=None,
                       help="window length, absolute or q-power like q^0.4")


def _add_sweep(p: argparse.ArgumentParser, windows: bool = True) -> None:
    """Cell arguments of scan/moments/holder; unset ones come from --config."""
    p.add_argument("--primes", type=str, default=None,
                   help="comma list or a..b range of primes (default: --q)")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--r", type=int, default=None,
                   help="moment exponent (default: config r_values)")
    _add_common(p, "char", *(("N",) if windows else ()))
    if windows:
        p.add_argument("--M-spec", dest="m_spec", type=str, default=None,
                       help="list, a..b[:step], or random:k starts")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="burgess",
        description="short character sum experiments over prime moduli")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    common.add_argument("--output", default="-",
                        help="output path, - for stdout")
    common.add_argument("--config", default=None,
                        help="key = value config file")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_parser(name, run, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        p.set_defaults(run=run)
        return p

    p = add_parser("sum", run_sum, help="one short interval sum")
    _add_common(p, "q", "char", "M", "N")

    p = add_parser("scan", run_scan, help="max |sum| over many window starts")
    _add_sweep(p)

    p = add_parser("moments", run_moments,
                   help="complete 2r-th moment and its bound")
    _add_sweep(p, windows=False)
    p.add_argument("--V", type=str, default=None,
                   help="window length or 'auto' for floor(r q^{1/2r}) "
                   "(default: config V, else auto)")

    p = add_parser("sieve", run_sieve,
                   help="primorial primes and Mertens product")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--spf", type=int, default=None,
                   help="also report spf(n), the smallest prime factor")

    p = add_parser("rough", run_rough, help="z-rough set over [1, U]")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--U", type=int, required=True)
    p.add_argument("--t", type=int, default=None,
                   help="also count members divisible by t")
    p.add_argument("--ratio", action="store_true",
                   help="report count * log z / U under the z^C <= U guard")
    p.add_argument("--C", type=float, default=None)

    p = add_parser("congruence", run_congruence,
                   help="collision count over a window")
    _add_common(p, "q", "M", "N")
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--U", type=int, default=None)
    p.add_argument("--A", type=float, default=None)
    p.add_argument("--brute-force", action="store_true", dest="brute",
                   help="cross-check against the quadruple-loop oracle")
    p.add_argument("--u1", type=int, default=None)
    p.add_argument("--u2", type=int, default=None,
                   help="with --u1: pairwise collision count instead")

    p = add_parser("holder", run_holder,
                   help="the averaging inequality chain")
    _add_sweep(p)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--U", type=int, default=None)
    p.add_argument("--V", type=int, default=None)

    p = add_parser("bounds", run_bounds, help="comparison bound shape values")
    _add_common(p, "q", "N")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--variant", default="all",
                   choices=("all",) + bnd.VARIANTS)
    p.add_argument("--grh-delta", type=float, default=bnd.GRH_DELTA_DEFAULT)

    p = add_parser("nonresidue", run_nonresidue,
                   help="least nonresidue and longest run")
    p.add_argument("--q", type=int, required=True)

    add_parser("verify", run_verify, help="run the acceptance suite")
    return ap


def run_subcommand(argv: list[str]) -> tuple[int, list[dict]]:
    """Run one subcommand, streaming its records; return (code, records).
    A write to a closed pipe (stdout, stderr or --output) ends the run with
    the records produced so far."""
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    chash = cfg.hash()
    records: list[dict] = []
    out = None  # opened at the first record; a run with none writes none
    try:
        t0 = time.perf_counter()
        for inputs, outputs, passes in args.run(args, cfg):
            records.append(make_record(args.cmd, inputs, outputs, passes,
                                       time.perf_counter() - t0, chash))
            if out is None:
                out = (sys.stdout if args.output == "-"
                       else open(args.output, "w"))
            if args.format == "jsonl":
                out.write(json.dumps(records[-1], sort_keys=True) + "\n")
                out.flush()
            t0 = time.perf_counter()
        if not records:
            raise ValueError(f"{args.cmd}: the sweep resolved to no cells or "
                             "window starts")
        if args.format == "csv":
            write_csv(records, out)
            out.flush()
    except BrokenPipeError:
        # a reader is gone: the records so far stand, and what is still
        # buffered goes to os.devnull when flushed at close or exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in {sys.stdout, sys.stderr, out} - {None}:
            os.dup2(devnull, stream.fileno())
        os.close(devnull)
    finally:
        if out not in (None, sys.stdout):
            out.close()
    failed = any(not ok for r in records
                 for ok in r["passes"].values() if ok is not None)
    return (1 if failed else 0), records


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        code, _ = run_subcommand(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except (BurgessError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
