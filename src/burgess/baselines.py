"""Recorded regression baselines that the acceptance suite reads.

Every number here was measured once on a fixed family with fixed seeds
and then frozen; `burgess verify --suite full` measures each again and
prints it in the details of criteria 6, 7 and 9, which fail if it moved.
None of them is a claim from the literature, only a record of what this
code produced on these instances.  The values that only tests read live
in tests/recorded_values.json.
"""

# Exhaustive scan over all odd primes q <= 10^4, quadratic character:
# worst max|S| / (sqrt(q) log q) and the prime attaining it.
PV_WORST_RATIO = 0.5557388601882701
PV_WORST_PRIME = 5

# Collision-count instance q=10007, N=floor(q^0.45)=63, feasibility
# parameters (U=63, z=exp(sqrt(log 63))), window start drawn by the fixed
# acceptance seed.  Exact count and its shape-bound ratio.
COLLISION_Q = 10007
COLLISION_I_VALUE = 1101
COLLISION_RATIO = 0.5825396825396826
COLLISION_RATIO_ENVELOPE = 5.0  # build-time empirical cap, not a claimed constant

# Worst refined-shape ratio max|S| / (N^{1-1/r} q^{(r+1)/4r^2} (log q)^{1/4r})
# over the averaging-chain acceptance cells (criterion-4 sweep).
REFINED_WORST_RATIO = 0.8516134008383849
