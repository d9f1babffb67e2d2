"""Learn a hidden partition through rank queries alone.

The oracle knows a partition of 3000 elements into 500 parts; the learner
sees nothing but rank answers.  Watch the query bill stay a small multiple
of n.
"""

import numpy as np

from rankprobe import HiddenPartition, RankOracle, find_partition_run

rng = np.random.default_rng(7)
n, k = 3000, 500
assign = np.concatenate((np.arange(k), rng.integers(0, k, n - k)))
rng.shuffle(assign)
hidden = HiddenPartition([np.flatnonzero(assign == i) for i in range(k)])

oracle = RankOracle(hidden)
run = find_partition_run(n, oracle)

exact = tuple(tuple(p) for p in map(list, run.parts)) == tuple(
    tuple(p) for p in map(list, hidden.parts)
)
print(f"universe n = {n}, hidden parts k = {k}")
print(f"recovered exactly: {exact}")
print(f"rank queries: {oracle.ledger.rank_count}  ({oracle.ledger.rank_count / n:.2f} per element)")
print(f"survivors after the size-class phase: {run.survivors_after_phase1}")
for record in run.phases:
    merges = [s for s in run.merge_stats if s.phase == record.label]
    print(
        f"  phase {record.label}: {len(merges)} merges "
        f"({sum(s.thick for s in merges)} thick), {record.rank_queries} rank queries"
    )

# the representative forest is the learned object: every removed element
# points at a friend, and parts are the connected components
removed = np.flatnonzero(run.parent >= 0)
print(f"representative edges recorded: {removed.size} (n - final basis size)")
print(f"example edges: {[(int(e), int(run.parent[e])) for e in removed[:5]]}")
