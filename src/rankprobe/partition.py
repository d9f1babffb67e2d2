"""Learning a hidden simple partition in O(n) rank queries.

The working collection holds disjoint independent sets, kept as sorted int64
arrays.  Pairs of comparable size (same size class t: |I| in [2^t, 2^{t+1}))
are merged until every class holds at most one set; the survivors are then
folded sequentially.  Every element removed along the way records a
representative edge to a friend that is still held, so the parts are exactly
the connected components of the representative forest plus the final basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalConsistencyError, InvariantViolation
from .model import _add_query, _sum_query
from .weighing import recover_matching, recover_sparse

__all__ = [
    "MergeOutcome",
    "MergeStat",
    "RepForest",
    "PhaseRecord",
    "PartitionRun",
    "merge",
    "find_partition",
    "find_partition_run",
    "components",
]


@dataclass
class MergeOutcome:
    """Result of merging I1 into I2: the surviving set and the removed elements' reps."""

    merged: np.ndarray
    removed_with_reps: list


@dataclass
class MergeStat:
    """Per-merge accounting used for the thick/thin query analysis."""

    phase: str
    k1: int
    k2: int
    d: int
    rank_queries: int
    thick: bool
    size_class: int


@dataclass
class RepForest:
    """Directed representative edges (e -> rep(e)) as a parent array; -1 marks roots."""

    parent: np.ndarray
    roots: np.ndarray

    @classmethod
    def from_edges(cls, n, edges, roots):
        parent = np.full(n, -1, dtype=np.int64)
        for e, rep in edges:
            if parent[e] != -1:
                raise InvariantViolation(f"element {e} has two outgoing representative edges")
            parent[e] = rep
        return cls(parent, np.asarray(sorted(roots), dtype=np.int64))

    @property
    def edges(self):
        src = np.flatnonzero(self.parent >= 0)
        return [(int(e), int(self.parent[e])) for e in src]


@dataclass
class PhaseRecord:
    phase: str
    merges: int
    thick_merges: int
    rank_queries: int


@dataclass
class PartitionRun:
    """Full record of one find_partition execution."""

    parts: list
    forest: RepForest
    phase_records: list
    merge_stats: list = field(repr=False)
    survivors_after_phase1: int = 0


def merge(i1, i2, oracle):
    """Merge two disjoint independent sets, learning com(I1,I2) and the rep pairs.

    com discovery runs sparse recovery over sum queries in both directions;
    the second direction reuses |com(I1,I2)| as its known total, since both
    sides of the common set have equal size.  The friend pairing is then a
    hidden perfect matching between the two common sets, reconstructed from
    add queries (skipped for d <= 1 where the outcome is forced).  The merged
    set keeps I2's copies of the common parts.
    """
    i1 = np.asarray(i1, dtype=np.int64)
    i2 = np.asarray(i2, dtype=np.int64)
    ledger = oracle.ledger
    with ledger.phase("com-discovery"):
        rec1 = recover_sparse(i1.size, lambda idx: _sum_query(oracle, i1[idx], i2))
        com12 = i1[rec1.support]
        rec2 = recover_sparse(
            i2.size, lambda idx: _sum_query(oracle, i2[idx], i1), known_total=com12.size
        )
        com21 = i2[rec2.support]
    if com12.size != com21.size:
        raise InternalConsistencyError(
            f"|com(I1,I2)|={com12.size} but |com(I2,I1)|={com21.size}"
        )
    d = int(com12.size)
    if d == 0:
        pairs = []
    elif d == 1:
        pairs = [(int(com12[0]), int(com21[0]))]
    else:
        with ledger.phase("matching"):
            result = recover_matching(com12, com21, lambda s: _add_query(oracle, s))
        pairs = [(int(e), int(result.pairs[int(e)])) for e in com12]
    merged = np.setdiff1d(np.union1d(i1, i2), com12, assume_unique=True)
    return MergeOutcome(merged, pairs)


def _size_class(size):
    return size.bit_length() - 1


def find_partition_run(n, oracle, audit=False):
    """Run the full partition learner and keep the execution record.

    Phase 1 repeatedly merges the two most recently inserted sets of any size
    class holding two or more; afterwards at most floor(log2 n) + 1 sets can
    survive (asserted).  Phase 2 folds the survivors in ascending size order.
    Audit mode re-checks each merged set's independence through separately
    counted audit queries.
    """
    parent = np.full(n, -1, dtype=np.int64)
    stats = []
    ledger = oracle.ledger

    if n == 0:
        forest = RepForest(parent, np.asarray([], dtype=np.int64))
        return PartitionRun([], forest, [], stats, 0)

    def run_merge(a, b, phase):
        before = ledger.rank_count
        outcome = merge(a, b, oracle)
        spent = ledger.rank_count - before
        d = len(outcome.removed_with_reps)
        k1 = min(a.size, b.size)
        if outcome.merged.size != a.size + b.size - d:
            raise InternalConsistencyError("merged size disagrees with |I1|+|I2|-d")
        stats.append(
            MergeStat(
                phase=phase,
                k1=int(k1),
                k2=int(max(a.size, b.size)),
                d=d,
                rank_queries=spent,
                thick=d * d >= k1,
                size_class=_size_class(int(k1)),
            )
        )
        for e, rep in outcome.removed_with_reps:
            parent[e] = rep
        if audit:
            if oracle.audit_rank(outcome.merged) != outcome.merged.size:
                raise InvariantViolation("merged set is not independent")
        return outcome

    max_class = _size_class(n) + 1
    buckets = [[] for _ in range(max_class + 2)]
    for e in range(n):
        buckets[0].append(np.asarray([e], dtype=np.int64))

    with ledger.phase("pairwise-merge"):
        for t in range(len(buckets)):
            stack = buckets[t]
            while len(stack) >= 2:
                a = stack.pop()
                b = stack.pop()
                outcome = run_merge(a, b, "pairwise-merge")
                buckets[_size_class(int(outcome.merged.size))].append(outcome.merged)

    survivors = [stack[0] for stack in buckets if stack]
    if len(survivors) > math.floor(math.log2(n)) + 1:
        raise InvariantViolation(
            f"{len(survivors)} sets survived phase 1 on n={n}; expected <= floor(log2 n)+1"
        )
    survivors_after_phase1 = len(survivors)

    with ledger.phase("final-fold"):
        current = survivors[0]
        for nxt in survivors[1:]:
            current = run_merge(nxt, current, "final-fold").merged

    forest = RepForest(parent, current.copy())
    removed = np.flatnonzero(parent >= 0)
    if removed.size + current.size != n or np.intersect1d(removed, current).size:
        raise InvariantViolation("representative forest and final basis do not cover V exactly")
    parts = components(forest)
    records = []
    for phase in ("pairwise-merge", "final-fold"):
        rows = [s for s in stats if s.phase == phase]
        records.append(
            PhaseRecord(
                phase=phase,
                merges=len(rows),
                thick_merges=sum(1 for s in rows if s.thick),
                rank_queries=sum(s.rank_queries for s in rows),
            )
        )
    return PartitionRun(parts, forest, records, stats, survivors_after_phase1)


def find_partition(n, oracle, audit=False):
    """Learn the hidden partition exactly; returns canonically ordered parts."""
    return find_partition_run(n, oracle, audit=audit).parts


def components(forest):
    """Connected components of the representative forest, as canonical parts."""
    parent = forest.parent
    n = parent.size
    uf = np.arange(n, dtype=np.int64)

    def find(u):
        root = u
        while uf[root] != root:
            root = uf[root]
        while uf[u] != root:
            uf[u], u = root, uf[u]
        return root

    for e in range(n):
        if parent[e] >= 0:
            uf[find(e)] = find(int(parent[e]))
    groups = {}
    for e in range(n):
        groups.setdefault(find(e), []).append(e)
    parts = sorted(groups.values(), key=lambda p: p[0])
    return [np.asarray(p, dtype=np.int64) for p in parts]
