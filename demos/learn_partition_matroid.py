"""Learn a general partition matroid: hidden parts plus hidden capacities.

The pipeline runs three stages (basis, representatives, reduction to the
simple learner) and the whole bill stays O(n + k log r).  The same structure
is then learned again using only yes/no independence queries, which costs a
log-factor more.
"""

import numpy as np

from rankprobe import (
    CapacitatedPartition,
    RankOracle,
    baseline_independence_learner_run,
    learn_partition_matroid_run,
)

rng = np.random.default_rng(21)
n, k = 2000, 120
sizes = 2 + rng.multinomial(n - 2 * k, np.full(k, 1.0 / k))
perm = rng.permutation(n)
parts, pos = [], 0
for s in sizes:
    parts.append(perm[pos : pos + s])
    pos += int(s)
caps = [1 + int(rng.integers(0, s - 1)) for s in sizes]
hidden = CapacitatedPartition(parts, caps)
print(f"n = {n}, k = {k}, rank(V) = {hidden.rank_total}")

oracle = RankOracle(hidden)
run = learn_partition_matroid_run(n, oracle)
print(f"rank-query learner correct: {run.matroid.matches(hidden)}")
for stage in run.stages:
    print(f"  stage {stage.label}: {stage.rank_queries} rank queries")
print(f"total rank queries: {oracle.ledger.rank_count}")

base_oracle = RankOracle(CapacitatedPartition(parts, caps))
base = baseline_independence_learner_run(n, base_oracle)
print(f"independence-only baseline correct: {base.matroid.matches(hidden)}")
print(f"baseline independence queries: {base_oracle.ledger.independence_count}")
print(
    "rank oracle advantage: "
    f"{base_oracle.ledger.independence_count / oracle.ledger.rank_count:.2f}x fewer queries"
)
