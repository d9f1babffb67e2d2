"""Learning a hidden simple partition in O(n) rank queries.

The working collection holds disjoint independent sets, kept as sorted int64
arrays.  Pairs of comparable size (same size class t: |I| in [2^t, 2^{t+1}))
are merged until every class holds at most one set; the survivors are then
folded sequentially.  Every element removed along the way records a
representative edge to a friend that is still held, in one parent array, so
the parts are exactly the connected components of the representative forest
plus the final basis.

Most merges find no common part.  A merge asks the sum query of I1 against
I2 itself, before any sparse recovery: an answer of 0 means the union is
independent and ends the merge after that one query.  Otherwise sparse
recovery hands merge each detecting design as one block, and merge builds the
block's query sets, row ∪ I2, with ``weighing._row_sets``.  The second
recovery, over I2, asks row ∪ com12 rather than row ∪ I1: every friend in I1
of an I2 element lies in com12, the first recovery's answer, so the sums are
the same and each set is |I1| - d elements smaller.

Phase 1 does not start from n singletons.  A chunk pre-phase (Dorfman's
pooled test) asks k = rank(V), cuts 0..n-1 into consecutive chunks of c ids,
c the largest power of two with c² <= k, and asks each chunk's rank before
merging inside it: an independent chunk enters phase 1 whole, and a dependent
one is halved, each half resolved the same way, and the two results merged
with their root answer already known, d = |A| + |B| - rank(chunk).  That d is
right because a merge removes only elements whose friend stays, so a resolved
half hits the same parts as the half itself.  A chunk of m ids asks at most
m - 1 ranks and its merges ask no root, where merging its ids bottom up would
ask m - 1 roots (see ``find_partition_run``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DecodeFailure, InternalConsistencyError, InvariantViolation, UsageError
from .model import _check_int, _check_universe, _int_array, _out_of_range, _rank_answer
from .weighing import _recover_matching, _recover_sparse, _row_sets

__all__ = [
    "PartitionRun",
    "merge",
    "find_partition",
    "find_partition_run",
    "components",
]

# the removed ids and reps of a merge with no common part, shared by all of them
_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.flags.writeable = False


@dataclass
class MergeOutcome:
    """Result of merging I1 into I2.

    ``merged`` is the surviving set, ascending.  ``removed`` holds I1's copies
    of the common parts (com12), ascending, and ``reps[i]`` is the friend in
    I2 of ``removed[i]``: one representative edge per removed element.  Both
    are int64 arrays of length d = |com(I1, I2)|.
    """

    merged: np.ndarray
    removed: np.ndarray
    reps: np.ndarray


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
class PartitionRun:
    """Full record of one find_partition execution.

    ``parent`` is the representative forest as an int64 parent array over
    0..n-1: ``parent[e]`` is the friend e was removed for, and -1 marks a
    root, so the final basis is ``np.flatnonzero(parent < 0)`` and ``parts``
    is ``components(parent)``.  ``phases`` holds the ledger's
    ``pairwise-merge`` and ``final-fold`` phase records (empty for n = 0);
    ``merge_stats`` has one entry per merge.
    """

    parts: list
    parent: np.ndarray
    phases: list
    merge_stats: list = field(repr=False)
    survivors_after_phase1: int = 0


def merge(i1, i2, oracle, *, d=None):
    """Merge two disjoint independent sets, learning com(I1,I2) and the rep pairs.

    The root query is merge's own: one sum query over I1 against I2 gives
    d = |com(I1,I2)|, and d = 0 (an independent union) ends the merge there
    with the sorted union, so such a merge costs exactly one query (none when
    I1 is empty).  A caller that already knows the root answer passes it as
    ``d``, and the merge asks no root query.  Otherwise com discovery runs
    sparse recovery over sum queries in both directions, each with d as its
    known total, since both sides of the common set have size d.  The second
    recovery asks each row of I2 against com12, I1's copies of the common
    parts that the first one found, not against all of I1: an I2 element's
    friend in I1 is in com12, so sum(S, I1) = sum(S, com12) for every S in
    I2.  The friend pairing is then a hidden perfect matching between the
    two common sets, reconstructed from add queries (skipped for d <= 1
    where the outcome is forced).  The merged set keeps I2's copies of the
    common parts; the outcome's ``removed`` and ``reps`` are I1's copies and
    their friends (see MergeOutcome).  A root sum outside
    [0, min(|I1|, |I2|)], asked or passed in, cannot come from an honest
    oracle: DecodeFailure.  I1 and I2 must be one-dimensional integer ids,
    and a passed ``d`` an integer (a bool is not): UsageError before any
    query otherwise.  Together I1 and I2 must hold distinct ids in
    [0, oracle.n).  The root query checks that, since it asks I1 ∪ I2 as
    one set; when no root is asked (``d`` passed, or I1 empty) merge checks
    it once itself, before any query, with the same UsageError.  Every
    query reads the oracle's rank through one callback that checks the
    answer is an integer (UsageError otherwise); sparse recovery and the
    matching trust the sums built from it.
    """
    i1 = _int_array(i1, "I1")
    i2 = _int_array(i2, "I2")
    if d is not None:
        _check_int(d, "d")
    if d is not None or not i1.size:
        # no root query will check the ids of I1 ∪ I2, so check them here
        ids = i1.tolist() + i2.tolist()
        lo, hi = min(ids, default=0), max(ids, default=0)
        if lo < 0 or hi >= oracle.n:
            raise _out_of_range(oracle.n, lo if lo < 0 else hi)
        if len(set(ids)) != len(ids):
            raise UsageError("I1 and I2 must not repeat an id")
    ledger, rank = oracle.ledger, oracle.rank

    def add(s):
        # add(S) = |S| - rank(S), the rank answer checked as it is read
        return s.size - _rank_answer(rank(s))

    with ledger.phase("com-discovery"):
        if d is None:
            d = add(np.concatenate((i1, i2))) if i1.size else 0
        if not 0 <= d <= min(i1.size, i2.size):
            raise DecodeFailure(
                f"sum oracle reported {d} common parts between sets of sizes "
                f"{i1.size} and {i2.size}"
            )
        if d == 0:
            # I1 and I2 are disjoint: their sorted concatenation is the union
            merged = np.concatenate((i1, i2))
            merged.sort()
            return MergeOutcome(merged, _NO_IDS, _NO_IDS)
        def sums(src, other):
            # sum(S, other) = add(S ∪ other), as the root query asks it
            return lambda cols, bounds: [add(s) for s in _row_sets(src, cols, bounds, other)]

        support = _recover_sparse(i1.size, sums(i1, i2), d)
        com12 = i1[support]
        # every friend in I1 of an I2 element lies in com12: sum(S, I1) = sum(S, com12)
        com21 = i2[_recover_sparse(i2.size, sums(i2, com12), d)]
    # I1 and I2 are disjoint, so dropping com12 from I1 and sorting the
    # concatenation is the sorted union minus com12
    keep = np.ones(i1.size, dtype=bool)
    keep[support] = False
    merged = np.concatenate((i1[keep], i2))
    merged.sort()
    # _recover_sparse returns exactly its total of ones or raises, so |com21| = d
    if d == 1:
        return MergeOutcome(merged, com12, com21)
    # already ascending when I1 and I2 are, as in find_partition; disjoint
    # and free of repeats, as merge's contract has I1 and I2
    com12.sort()
    com21.sort()
    with ledger.phase("matching"):
        pairs = _recover_matching(com12, com21, add)
    reps = np.array([pairs[e] for e in com12.tolist()], dtype=np.int64)
    return MergeOutcome(merged, com12, reps)


def _size_class(size):
    return size.bit_length() - 1


def find_partition_run(n, oracle):
    """Run the full partition learner and keep the execution record.

    Phase 1 (``pairwise-merge``) opens with the chunk pre-phase.  For n >= 2
    it asks k = rank(V) (outside [1, n]: DecodeFailure) and cuts 0..n-1 into
    consecutive chunks of c ids, c the largest power of two with c² <= k; the
    last chunk may be shorter.  A chunk of one id asks nothing.  Otherwise
    its rank r is asked, and r = |chunk| means the chunk is independent and
    enters phase 1 as one set.  Otherwise both halves are resolved the same
    way, to A and B, and merged with the known root answer
    d = |A| + |B| - r, so that merge asks no root query.  A rank(V) or chunk
    rank that is not an integer (a bool is not) raises UsageError.

    Why d is known: each element a merge removes has a friend that stays,
    so A hits exactly the parts its half hits, even when the half was itself
    merged, and likewise B.  So rank(A ∪ B) = rank(chunk) = r, and A and B
    being independent, |A| + |B| - r is the number of parts they share.
    ``merge`` still checks 0 <= d <= min(|A|, |B|), so a lying chunk answer
    raises DecodeFailure.

    Worst case: a chunk of m ids asks at most m - 1 ranks, one per internal
    node of its halving tree, and its merges ask no roots.  Merging the same
    ids bottom up from singletons asks m - 1 roots, so the chunk ranks never
    outnumber the roots they replace, and the pre-phase adds at most the
    rank(V) query.  With k = 1 every chunk is one id, and the run asks n
    queries where bottom-up merging asked n - 1.

    Each chunk result enters phase 1 by its size class.  Phase 1 then
    repeatedly merges the two most recently inserted sets of any size class
    holding two or more; afterwards at most floor(log2 n) + 1 sets can
    survive (asserted).  Phase 2 folds the survivors in ascending size order.
    Each merge with common parts writes its representative edges into one
    parent array, ``parent[removed] = reps``; the elements never removed, the
    roots, are the final basis (checked).  The run asks rank queries only;
    its answer can be checked afterwards with ``model.certify``, as
    ``bench.run_learner`` does on request.  ``n`` must be the oracle's
    universe size, otherwise UsageError.
    """
    _check_universe(n, oracle)
    parent = np.full(n, -1, dtype=np.int64)
    stats = []
    ledger = oracle.ledger

    if n == 0:
        return PartitionRun([], parent, [], stats, 0)

    def run_merge(a, b, phase, d=None):
        before = ledger.rank_count
        outcome = merge(a, b, oracle, d=d)
        spent = ledger.rank_count - before
        d = outcome.removed.size
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
        if d:
            parent[outcome.removed] = outcome.reps
        return outcome

    def resolve(lo, hi):
        # ids lo..hi-1 reduced to one independent set that hits the same parts
        ids = np.arange(lo, hi, dtype=np.int64)
        if ids.size == 1:
            return ids
        r = _rank_answer(oracle.rank(ids))
        if r == ids.size:
            return ids
        mid = (lo + hi) // 2
        a, b = resolve(lo, mid), resolve(mid, hi)
        return run_merge(a, b, "pairwise-merge", d=a.size + b.size - r).merged

    max_class = _size_class(n) + 1
    buckets = [[] for _ in range(max_class + 2)]

    with ledger.phase("pairwise-merge") as pairwise:
        width = 1
        if n >= 2:
            k = _rank_answer(oracle.rank(np.arange(n, dtype=np.int64)))
            if not 1 <= k <= n:
                raise DecodeFailure(f"rank oracle reported rank {k} for all {n} elements")
            width = 1 << (math.isqrt(k).bit_length() - 1)
        for lo in range(0, n, width):
            chunk = resolve(lo, min(lo + width, n))
            buckets[_size_class(chunk.size)].append(chunk)
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

    with ledger.phase("final-fold") as fold:
        current = survivors[0]
        for nxt in survivors[1:]:
            current = run_merge(nxt, current, "final-fold").merged

    # current is ascending, so it is the final basis exactly when it lists the roots
    if not np.array_equal(np.flatnonzero(parent < 0), current):
        raise InvariantViolation("representative forest and final basis do not cover V exactly")
    parts = components(parent)
    return PartitionRun(parts, parent, [pairwise, fold], stats, survivors_after_phase1)


def find_partition(n, oracle):
    """Learn the hidden partition exactly; returns canonically ordered parts."""
    return find_partition_run(n, oracle).parts


def components(parent):
    """Connected components of a representative forest, as canonical parts.

    ``parent`` is the forest as a parent array over 0..n-1 (an int64 array or
    a list of ints): ``parent[e]`` is e's representative, -1 marks a root.

    Pointer jumping: every element starts at its parent (a root at itself)
    and replaces its pointer by its pointer's pointer until nothing changes,
    which takes at most ceil(log2 n) + 1 rounds on a forest of n elements.
    Elements are then grouped by root.  A parent cycle raises
    InvariantViolation: its elements only ever point at one another, so
    whether or not the rounds settle, some pointer ends on an element that
    has a parent.  A parent entry that is not an integer in [-1, n) is a
    UsageError.
    """
    parent = _int_array(parent, "parent entries")
    n = parent.size
    if n == 0:
        return []
    if parent.min() < -1 or parent.max() >= n:
        raise UsageError(f"a parent entry lies outside [-1, {n})")
    root = np.where(parent >= 0, parent, np.arange(n, dtype=np.int64))
    for _ in range(math.ceil(math.log2(n)) + 1):
        jumped = root[root]
        if np.array_equal(jumped, root):
            break
        root = jumped
    if (parent[root] >= 0).any():
        raise InvariantViolation("the representative forest has a parent cycle")
    # a stable sort keeps each part ascending; its first element orders the parts
    order = np.argsort(root, kind="stable")
    starts = np.flatnonzero(np.diff(root[order])) + 1
    groups = np.split(order, starts)
    firsts = order[np.concatenate(([0], starts))]
    return [groups[i] for i in np.argsort(firsts)]
