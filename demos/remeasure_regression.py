"""Re-measure the frozen regression constants.

Prints observed maxima for every constant in regression.json over the same
workloads the shipped values were measured on.  Review the output and edit
the config by hand if an intentional change moved a number; the suite pins
the frozen values, so silent drift fails tests instead of hiding.

Last it prints the worst ratio, over every N up to 2^17, of the design's
rows to halving's worst-case bound at the fewest ones that take the design:
the check behind recover_sparse's docstring, which needs it at most 1.

Takes a few minutes.
"""

import math
import time

import numpy as np

from rankprobe import RankOracle, recover_matching, recover_sparse
from rankprobe.bench import InstanceSpec, generate
from rankprobe.matroid import baseline_independence_learner_run, learn_partition_matroid_run
from rankprobe.partition import find_partition_run
from rankprobe.weighing import _RULE_CAP, _band, _rows

t0 = time.perf_counter()


def elapsed():
    return f"[{time.perf_counter() - t0:5.0f}s]"


c_total = 0.0
for family in ("uniform-k", "geometric-sizes", "equal-blocks", "singleton-heavy"):
    for n in (2**10, 2**12, 2**14, 2**16):
        st, _ = generate(InstanceSpec(family, n, seed=1))
        o = RankOracle(st)
        find_partition_run(n, o)
        c_total = max(c_total, o.ledger.rank_count / n)
print(f"C_total (sweep defaults): observed {c_total:.3f} {elapsed()}")

dense = 0.0
for n, seed in ((2**12, 0), (2**14, 0)):
    st, _ = generate(InstanceSpec("uniform-k", n, k=n // 4, seed=seed))
    o = RankOracle(st)
    find_partition_run(n, o)
    dense = max(dense, o.ledger.rank_count / n)
print(f"C_total (dense k = n/4 regime): observed {dense:.3f} {elapsed()}")

cmat, cmat_lin = 0.0, 0.0
for n in (2**8, 2**10, 2**12, 2**13):
    for seed in (0, 1, 2):
        st, _ = generate(InstanceSpec("capacitated-random", n, seed=seed))
        o = RankOracle(st)
        learn_partition_matroid_run(n, o)
        cmat = max(cmat, o.ledger.rank_count / (n + st.k * math.log2(max(2, st.rank_total))))
        st2, _ = generate(InstanceSpec("capacitated-random", n, k=max(2, n // 16), seed=seed))
        o2 = RankOracle(st2)
        learn_partition_matroid_run(n, o2)
        cmat_lin = max(cmat_lin, o2.ledger.rank_count / n)
print(f"C_mat: observed {cmat:.3f}   C_mat_linear: observed {cmat_lin:.3f} {elapsed()}")

cbase = 0.0
for n in (2**8, 2**10, 2**12, 2**13):
    for seed in (0, 1):
        st, _ = generate(InstanceSpec("capacitated-random", n, seed=seed))
        o = RankOracle(st)
        baseline_independence_learner_run(n, o)
        cbase = max(cbase, (o.ledger.independence_count - n) / (n * math.log2(st.k + 1)))
print(f"c_base: observed {cbase:.3f} {elapsed()}")

cthick, cthin = 0.0, 0.0
for family, k in (
    ("uniform-k", None),
    ("uniform-k", "quarter"),
    ("equal-blocks", None),
    ("singleton-heavy", None),
    ("geometric-sizes", None),
):
    for n in (2**10, 2**13, 2**16):
        kk = n // 4 if k == "quarter" else None
        st, _ = generate(InstanceSpec(family, n, k=kk, seed=1))
        o = RankOracle(st)
        run = find_partition_run(n, o)
        thin_by_class = {}
        for s in run.merge_stats:
            if s.phase != "pairwise-merge":
                continue
            if s.thick and s.d:
                cthick = max(cthick, s.rank_queries / s.d)
            elif not s.thick:
                thin_by_class[s.size_class] = thin_by_class.get(s.size_class, 0) + s.rank_queries
        if thin_by_class:
            cthin = max(cthin, max(thin_by_class.values()) / n)
print(f"c_thick: observed {cthick:.3f}   c_thin: observed {cthin:.3f} {elapsed()}")

cmatch = 0.0
for d in (32, 64, 256, 512, 1024):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        xs = np.arange(d)
        ys = np.arange(d, 2 * d)
        perm = rng.permutation(d)
        partner = {int(xs[perm[j]]): int(ys[j]) for j in range(d)}
        pair_arr = np.full(2 * d, -1, dtype=np.int64)
        for a, b in partner.items():
            pair_arr[a] = b
            pair_arr[b] = a

        asked = [0]

        def add(subset):
            asked[0] += 1
            arr = np.asarray(subset, dtype=np.int64)
            mask = np.zeros(2 * d, dtype=bool)
            mask[arr] = True
            return int(np.count_nonzero(mask[arr] & mask[pair_arr[arr]])) // 2

        assert recover_matching(xs, ys, add) == partner
        cmatch = max(cmatch, asked[0] / d)
print(f"c_match: observed {cmatch:.3f} {elapsed()}")

for n, d in ((4096, 64), (1024, 32), (256, 16)):
    worst = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        hidden = np.zeros(n, dtype=np.int64)
        hidden[rng.choice(n, size=d, replace=False)] = 1
        rows = [0]

        def block_sums(cols, bounds):
            rows[0] += len(bounds) - 1  # one sum query per row
            return np.add.reduceat(hidden[cols], bounds[:-1])

        recover_sparse(n, block_sums)
        worst = max(worst, rows[0])
    print(f"B({n},{d}): observed {worst}")


def halving_bound(n, w):
    """Queries after the root that halving can ask for w ones in n columns."""
    m = min(w, n - w)
    return min(n - 1, sum(min(1 << t, m) for t in range((n - 1).bit_length())))


worst, worst_n = 0.0, None
edge_at_cap = _band(_RULE_CAP).size
for n in range(2, 2**17 + 1):
    # the fewest ones that take the design: the band's lower edge a(n), which
    # above the cap scales as a(cap) / cap
    w = _band(n).size if n <= _RULE_CAP else -(-edge_at_cap * n // _RULE_CAP)
    if w <= n // 2 and _rows(n) / halving_bound(n, w) > worst:
        worst, worst_n = _rows(n) / halving_bound(n, w), n
print(f"design rows / halving bound, N <= 2^17: worst {worst:.3f} at N = {worst_n} {elapsed()}")
print(f"done {elapsed()}")
