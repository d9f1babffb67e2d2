"""Learning a general partition matroid: basis, representatives, and the reduction.

The pipeline finds a basis greedily (exactly n rank queries), extracts two
transversal representative sets T1 inside the basis and T2 outside it with a
halving search (``weighing._halve``), then runs the partition learner twice
on one simulated simple-partition rank oracle, ``_SimulatedOracle``: over B
with probes B - S + T2, and over V setminus B with probes (B - T1) + S.  The
two learned partitions are stitched through the representative map.

An independence-oracle-only baseline learner is included for the query-count
comparison; it shares the basis and representative machinery (those tests
need only independence answers) and classifies the remaining elements with
the same halving search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, UsageError
from .model import CapacitatedPartition, _check_universe, _int_array, _rank_answer
from .partition import find_partition
from .weighing import _halve

__all__ = [
    "LearnedMatroid",
    "MatroidRun",
    "find_basis",
    "find_representatives",
    "learn_matroid_with_reps",
    "learn_partition_matroid",
    "learn_partition_matroid_run",
    "baseline_independence_learner",
    "baseline_independence_learner_run",
]


@dataclass
class RepresentativePair:
    """Transversals T1 (inside the basis) and T2 (outside), with the friend map phi."""

    inside: np.ndarray
    outside: np.ndarray
    phi: dict

    @property
    def k(self):
        return int(self.inside.size)


class LearnedMatroid(CapacitatedPartition):
    """A learned partition matroid: a CapacitatedPartition built from learner output.

    The learners are its only source, so a structure that fails the
    partition or capacity checks is their fault: InvariantViolation, not
    UsageError.  An honest oracle always gives a valid one.
    """

    def __init__(self, parts, capacities, n=None):
        try:
            super().__init__(parts, capacities, n)
        except UsageError as exc:
            raise InvariantViolation(f"learned structure is not a partition matroid: {exc}") from exc

    def matches(self, structure):
        """Ground-truth comparison; capacities are compared when the truth has them.

        Both partitions are canonical, so equal parts mean equal part_of arrays.
        """
        if not np.array_equal(self.part_of, structure.part_of):
            return False
        return structure.capacities is None or np.array_equal(self.capacities, structure.capacities)


@dataclass
class MatroidRun:
    """One matroid learner run: the learned matroid and its stages.

    ``stages`` are the records of the ledger phase blocks the run opened, in
    order, also when the run is nested in a caller's open phase.
    """

    matroid: LearnedMatroid
    stages: list


def _rank_test(oracle):
    """Independence as one rank query: S is independent iff rank(S) = |S|."""
    rank = oracle.rank
    return lambda s: _rank_answer(rank(s)) == s.size


def _stage(ledger, label, stages):
    """Open ledger phase ``label`` and list its record in ``stages``."""
    block = ledger.phase(label)
    stages.append(block.record)
    return block


def _find_basis(n, ledger, independent, stages):
    """Greedy basis, one ``independent(S)`` test per element (see find_basis)."""
    buf = np.empty(max(n, 1), dtype=np.int64)
    size = 0
    with _stage(ledger, "basis", stages):
        for v in range(n):
            buf[size] = v
            if independent(buf[: size + 1]):
                size += 1
    return buf[:size].copy()


def find_basis(n, oracle):
    """Greedy basis in exactly n rank queries; rank(B) is tracked, never re-queried.

    Returns the basis as an ascending int64 array: a maximum independent set,
    exactly r_i elements of each part.
    """
    _check_universe(n, oracle)
    return _find_basis(n, oracle.ledger, _rank_test(oracle), [])


def _find_representatives(n, ledger, independent, b, stages):
    """T1, T2 and phi from ``independent(S)`` tests (see find_representatives)."""
    t2, phi = [], {}
    in_cur = np.ones(b.size, dtype=bool)  # B - T1 as a mask over B
    cur = b
    with _stage(ledger, "representatives", stages):
        for e in _side_complement(n, b).tolist():
            # B - T1 + e is independent iff e's part still has a hole in
            # B - T1, i.e. a member in T1: the part is already discovered.
            if independent(np.append(cur, e)):
                continue
            t2.append(e)

            def in_upper(lo, mid, hi):
                # Y + X1 + e, where X = B[lo:hi] is the search window, X1 its
                # lower half and Y = B minus X, is independent iff X2 holds a
                # friend of e
                return independent(np.concatenate((b[:mid], b[hi:], [e])))

            x = _halve(0, b.size, in_upper)
            # e's part has no member in T1, so its friend cannot be in T1
            if not in_cur[x]:
                raise InvariantViolation(f"element {int(b[x])} found as a friend twice")
            phi[int(b[x])] = e
            in_cur[x] = False
            cur = b[in_cur]
    # b and the scan are ascending, so T1 and T2 are too
    return RepresentativePair(b[~in_cur], np.asarray(t2, dtype=np.int64), phi)


def find_representatives(n, oracle, basis):
    """Find transversals T1 in B, T2 disjoint from B, and the friend map phi: T1 -> T2.

    ``basis`` is B as find_basis returns it, ascending; a list of ints or an
    integer array.  Any other ``basis`` (floats, more than one dimension) is
    a UsageError, raised before any query.

    Scans the n - |B| non-basis elements; each one opening a new part triggers
    a halving search over B (at most ceil(log2 |B|) queries) for a basis
    friend.  Ranks of known-independent sets (B - T1 and Y + X1) are computed
    arithmetically, not queried.
    """
    _check_universe(n, oracle)
    basis = _int_array(basis, "basis")
    return _find_representatives(n, oracle.ledger, _rank_test(oracle), basis, [])


def _side_complement(n, side):
    return np.setdiff1d(np.arange(n, dtype=np.int64), side, assume_unique=True)


class _SimulatedOracle:
    """A simple-partition rank oracle over n positions, simulated on a base oracle.

    ``probe(pos)`` gives the base query set for positions S and an offset;
    rank(S) is the base rank of that set minus the offset, one base query per
    call.  Positions come from find_partition_run and are trusted; the base
    oracle validates each probe it is asked, and its answer is checked to be
    an integer as it is read.  It answers rank queries only:
    a learned answer is checked on the base oracle (``model.certify``).
    """

    def __init__(self, base, n, probe):
        self.base = base
        self.ledger = base.ledger
        self.n = n
        self._probe = probe

    def rank(self, pos):
        query, offset = self._probe(pos)
        return _rank_answer(self.base.rank(query)) - offset


def _inside_oracle(base, b, t2):
    """Simple rank over basis positions: rank(B - S + T2) - rank(B - S)."""
    keep = np.ones(b.size, dtype=bool)  # all True between probes

    def probe(pos):
        keep[pos] = False
        query = np.concatenate((b[keep], t2))
        keep[pos] = True
        return query, b.size - len(pos)

    return _SimulatedOracle(base, int(b.size), probe)


def _outside_oracle(base, b, outside, t1):
    """Simple rank over non-basis positions: rank((B - T1) + S) - rank(B - T1)."""
    rest = np.setdiff1d(b, t1, assume_unique=True)
    offset = int(rest.size)  # rank(B - T1), a run constant

    def probe(pos):
        return np.concatenate((rest, outside[pos])), offset

    return _SimulatedOracle(base, int(outside.size), probe)


def learn_matroid_with_reps(n, oracle, basis, reps):
    """Learn partition and capacities given a basis and representative pair.

    ``basis`` is find_basis's array and ``reps`` find_representatives' pair;
    ``basis`` follows find_representatives' integer rule (UsageError before
    any query).  Runs the simple-partition learner twice over simulated
    oracles (inside the basis and outside it), reads capacities off the
    inside parts, and stitches the two partitions through phi.  Returns the
    LearnedMatroid, which ``model.certify`` can check against the oracle.
    Each step runs as a ledger phase (``inside-basis``, ``outside-basis``,
    ``stitch``); the stitch asks nothing, so its record reads zero.
    """
    _check_universe(n, oracle)
    return _learn_with_reps(n, oracle, _int_array(basis, "basis"), reps, [])


def _learn_with_reps(n, oracle, b, reps, stages):
    outside = _side_complement(n, b)
    ledger = oracle.ledger

    with _stage(ledger, "inside-basis", stages):
        parts1 = find_partition(int(b.size), _inside_oracle(oracle, b, reps.outside))
    with _stage(ledger, "outside-basis", stages):
        parts2 = find_partition(int(outside.size), _outside_oracle(oracle, b, outside, reps.inside))

    with _stage(ledger, "stitch", stages):
        if len(parts1) != reps.k or len(parts2) != reps.k:
            raise InvariantViolation(
                "representative sets do not form transversals of the learned partitions"
            )
        # part1_of[e] / part2_of[e]: the index of e's learned part on its side
        part1_of = np.empty(n, dtype=np.int64)
        part2_of = np.empty(n, dtype=np.int64)
        for i, p in enumerate(parts1):
            part1_of[b[p]] = i
        for j, p in enumerate(parts2):
            part2_of[outside[p]] = j
        i_of = part1_of[reps.inside]
        j_of = part2_of[[reps.phi[t] for t in reps.inside.tolist()]]
        # k distinct images among k outside parts: every outside part gets one
        if np.unique(j_of).size != reps.k:
            raise InvariantViolation("two inside parts stitched to one outside part")
    return LearnedMatroid(
        [np.concatenate((b[parts1[i]], outside[parts2[j]])) for i, j in zip(i_of, j_of)],
        [parts1[i].size for i in i_of],
        n,
    )


def learn_partition_matroid_run(n, oracle):
    """Full pipeline; its stages are the ledger phases it opens, in order.

    The run asks rank queries only; its answer can be checked afterwards with
    ``model.certify``, as ``bench.run_learner`` does on request.
    """
    _check_universe(n, oracle)
    ledger, independent, stages = oracle.ledger, _rank_test(oracle), []
    basis = _find_basis(n, ledger, independent, stages)
    reps = _find_representatives(n, ledger, independent, basis, stages)
    matroid = _learn_with_reps(n, oracle, basis, reps, stages)
    return MatroidRun(matroid, stages)


def learn_partition_matroid(n, oracle):
    """Learn a general partition matroid in O(n + k log r) rank queries."""
    return learn_partition_matroid_run(n, oracle).matroid


def baseline_independence_learner_run(n, oracle):
    """Learn the matroid using only independence queries.

    Basis and representatives re-use the rank-free tests.  Every remaining
    non-basis element finds its friend in T1 by halving (is B - X + e
    independent?).  Basis elements are classified per part: membership of
    B's elements in part i is group-tested with the probe B - X + t2_i, which
    is independent exactly when X hits the part's basis members.
    """
    _check_universe(n, oracle)
    ledger, independent, stages = oracle.ledger, oracle.is_independent, []
    b = _find_basis(n, ledger, independent, stages)
    reps = _find_representatives(n, ledger, independent, b, stages)

    t1 = reps.inside
    t1_list = t1.tolist()
    # inside[x] / outside[x]: the members, in B and outside it, of the part
    # of T1's x-th element
    inside = [[t] for t in t1_list]
    outside = [[reps.phi[t]] for t in t1_list]
    rest = np.setdiff1d(b, t1, assume_unique=True)  # B - T1

    with _stage(ledger, "outside-basis", stages):
        t2_set = set(reps.outside.tolist())
        for e in _side_complement(n, b).tolist():
            if e in t2_set:
                continue
            rest_e = np.append(rest, e)

            def in_upper(lo, mid, hi):
                # B - T1[lo:mid] + e, built as T1[:lo] + T1[mid:] + (B - T1 + e),
                # is independent iff removing X1 freed e's part: friend in X1
                return not independent(np.concatenate((t1[:lo], t1[mid:], rest_e)))

            outside[_halve(0, t1.size, in_upper)].append(e)

    # B - rest[lo:hi] + t2 is built as (T1 + t2) + rest[:lo] + rest[hi:]
    with _stage(ledger, "inside-basis", stages):
        for members, t in zip(inside, t1_list):
            if not rest.size:
                continue
            t1_t2 = np.append(t1, reps.phi[t])

            def hits(lo, hi):
                return independent(np.concatenate((t1_t2, rest[:lo], rest[hi:])))

            def sweep(lo, hi):
                if not hits(lo, hi):
                    return
                if hi - lo == 1:
                    members.append(int(rest[lo]))
                    return
                mid = lo + (hi - lo + 1) // 2
                sweep(lo, mid)
                sweep(mid, hi)

            sweep(0, rest.size)

    with _stage(ledger, "stitch", stages):
        parts = [a + c for a, c in zip(inside, outside)]
        capacities = [len(a) for a in inside]
    return MatroidRun(LearnedMatroid(parts, capacities, n), stages)


def baseline_independence_learner(n, oracle):
    """Independence-oracle-only learner; returns the same LearnedMatroid."""
    return baseline_independence_learner_run(n, oracle).matroid
