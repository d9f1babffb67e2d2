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

Every query of every stage is a shared base plus or minus a few ids: the
prefix so far + v (basis); (B - T1) + e and B - X2 + e (representatives);
(B + T2) - S and (B - T1) + S (the simulated oracles); B - X1 + e and
(B + t2) - X (the baseline).  Each is asked through ``model._base_probe``.
On RankOracle's own ``rank`` and ``is_independent`` that costs O(|change|),
plus O(k) once a side of the change passes 8 ids: the change is checked and
the answer counted from the base's per-part counts.  An oracle that
overrides either method is asked the set itself, built in the order listed
here, so it sees the same query stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, UsageError
from .model import CapacitatedPartition, _base_probe, _check_universe, _int_array, _out_of_range
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


def _rank_test(probe, drop=(), add=()):
    """Independence as one rank query: S is independent iff rank(S) = |S|."""
    return probe.rank(drop, add) == probe.size - len(drop) + len(add)


def _independence_test(probe, drop=(), add=()):
    """Independence as one independence query."""
    return probe.is_independent(drop, add)


def _stage(ledger, label, stages):
    """Open ledger phase ``label`` and list its record in ``stages``."""
    block = ledger.phase(label)
    stages.append(block.record)
    return block


def _find_basis(n, oracle, independent, stages):
    """Greedy basis, one ``independent`` test of prefix + v per element (see find_basis)."""
    prefix = _base_probe(oracle, np.empty(0, dtype=np.int64))
    basis = []
    with _stage(oracle.ledger, "basis", stages):
        for v in range(n):
            if independent(prefix, (), (v,)):
                prefix.move_in(v)
                basis.append(v)
    return np.asarray(basis, dtype=np.int64)


def find_basis(n, oracle):
    """Greedy basis in exactly n rank queries; rank(B) is tracked, never re-queried.

    Returns the basis as an ascending int64 array: a maximum independent set,
    exactly r_i elements of each part.
    """
    _check_universe(n, oracle)
    return _find_basis(n, oracle, _rank_test, [])


def _find_representatives(n, oracle, independent, b, stages):
    """T1, T2 and phi from ``independent`` tests (see find_representatives)."""
    t2, phi = [], {}
    in_cur = np.ones(b.size, dtype=bool)  # B - T1 as a mask over B
    cur = _base_probe(oracle, b)  # B - T1: each element of T1 moves out once found
    whole = _base_probe(oracle, b)
    with _stage(oracle.ledger, "representatives", stages):
        for e in _side_complement(n, b).tolist():
            # B - T1 + e is independent iff e's part still has a hole in
            # B - T1, i.e. a member in T1: the part is already discovered.
            if independent(cur, (), (e,)):
                continue
            t2.append(e)

            def in_upper(lo, mid, hi):
                # Y + X1 + e, where X = B[lo:hi] is the search window, X1 its
                # lower half and Y = B minus X, is B - X2 + e: independent iff
                # X2 holds a friend of e
                return independent(whole, b[mid:hi], (e,))

            x = _halve(0, b.size, in_upper)
            # e's part has no member in T1, so its friend cannot be in T1
            if not in_cur[x]:
                raise InvariantViolation(f"element {int(b[x])} found as a friend twice")
            phi[int(b[x])] = e
            in_cur[x] = False
            cur.move_out(int(b[x]))
    # b and the scan are ascending, so T1 and T2 are too
    return RepresentativePair(b[~in_cur], np.asarray(t2, dtype=np.int64), phi)


def find_representatives(n, oracle, basis):
    """Find transversals T1 in B, T2 disjoint from B, and the friend map phi: T1 -> T2.

    ``basis`` is B as find_basis returns it: strictly ascending ids in
    [0, n), a list of ints or an integer array.  Any other ``basis``
    (floats, more than one dimension, an id out of order, repeated or out of
    range) is a UsageError, raised before any query.

    Scans the n - |B| non-basis elements; each one opening a new part triggers
    a halving search over B (at most ceil(log2 |B|) queries) for a basis
    friend.  Ranks of known-independent sets (B - T1 and Y + X1) are
    computed arithmetically, not queried, and each probe is such a set plus
    e: B - T1 + e in the scan, B - X2 + e (= Y + X1 + e) in the search.  On a
    RankOracle's own ``rank`` a probe costs O(|change|), plus O(k) for more
    than 8 ids, counted from the base's per-part counts with the change
    checked (see ``model._BaseProbe``); an oracle that overrides ``rank`` or
    ``is_independent`` is asked each probe as a set.
    """
    _check_universe(n, oracle)
    return _find_representatives(n, oracle, _rank_test, _basis_array(n, basis), [])


def _basis_array(n, basis):
    """A public ``basis`` as an int64 array; UsageError unless strictly ascending in [0, n)."""
    b = _int_array(basis, "basis")
    if b.size > 1 and not (b[1:] > b[:-1]).all():
        raise UsageError("basis ids must be strictly ascending, as find_basis returns them")
    if b.size and (b[0] < 0 or b[-1] >= n):
        raise _out_of_range(n, int(b[0] if b[0] < 0 else b[-1]))
    return b


def _side_complement(n, side):
    return np.setdiff1d(np.arange(n, dtype=np.int64), side, assume_unique=True)


class _SimulatedOracle:
    """A simple-partition rank oracle over n positions, simulated on a base oracle.

    ``rank(pos)`` asks one base probe (``model._base_probe``) for positions S
    and subtracts a known rank.  Positions come from find_partition_run and
    are trusted; the probe checks the change it is asked, and a built probe's
    answer is checked to be an integer as it is read.  It answers rank
    queries only: a learned answer is checked on the base oracle
    (``model.certify``).
    """

    def __init__(self, base, n, rank):
        self.ledger = base.ledger
        self.n = n
        self.rank = rank


def _inside_oracle(base, b, t2):
    """Simple rank over basis positions: rank(B - S + T2) - rank(B - S)."""
    probe = _base_probe(base, np.concatenate((b, t2)))  # B + T2, dropping B's S
    size = int(b.size)
    return _SimulatedOracle(base, size, lambda pos: probe.rank(b[pos]) - (size - len(pos)))


def _outside_oracle(base, b, outside, t1):
    """Simple rank over non-basis positions: rank((B - T1) + S) - rank(B - T1)."""
    rest = np.setdiff1d(b, t1, assume_unique=True)
    probe = _base_probe(base, rest)  # B - T1, adding S
    offset = int(rest.size)  # rank(B - T1), a run constant
    return _SimulatedOracle(
        base, int(outside.size), lambda pos: probe.rank((), outside[pos]) - offset
    )


def learn_matroid_with_reps(n, oracle, basis, reps):
    """Learn partition and capacities given a basis and representative pair.

    ``basis`` is find_basis's array and ``reps`` find_representatives' pair;
    ``basis`` follows find_representatives' rule (strictly ascending
    integers in [0, n), UsageError before any query).  Runs the
    simple-partition learner twice over simulated oracles (inside the basis
    and outside it), reads capacities off the inside parts, and stitches the
    two partitions through phi.  Returns the LearnedMatroid, which
    ``model.certify`` can check against the oracle.
    Each step runs as a ledger phase (``inside-basis``, ``outside-basis``,
    ``stitch``); the stitch asks nothing, so its record reads zero.
    """
    _check_universe(n, oracle)
    return _learn_with_reps(n, oracle, _basis_array(n, basis), reps, [])


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
    stages = []
    basis = _find_basis(n, oracle, _rank_test, stages)
    reps = _find_representatives(n, oracle, _rank_test, basis, stages)
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
    ledger, independent, stages = oracle.ledger, _independence_test, []
    b = _find_basis(n, oracle, independent, stages)
    reps = _find_representatives(n, oracle, independent, b, stages)

    t1 = reps.inside
    t1_list = t1.tolist()
    # inside[x] / outside[x]: the members, in B and outside it, of the part
    # of T1's x-th element
    inside = [[t] for t in t1_list]
    outside = [[reps.phi[t]] for t in t1_list]
    rest = np.setdiff1d(b, t1, assume_unique=True)  # B - T1
    whole = _base_probe(oracle, np.concatenate((t1, rest)))  # B, listed T1 first

    with _stage(ledger, "outside-basis", stages):
        t2_set = set(reps.outside.tolist())
        for e in _side_complement(n, b).tolist():
            if e in t2_set:
                continue

            def in_upper(lo, mid, hi):
                # B - T1[lo:mid] + e is independent iff removing X1 freed
                # e's part: friend in X1
                return not independent(whole, t1[lo:mid], (e,))

            outside[_halve(0, t1.size, in_upper)].append(e)

    with _stage(ledger, "inside-basis", stages):
        for members, t in zip(inside, t1_list):
            if not rest.size:
                continue
            # B + t2, listed T1, t2, B - T1, dropping rest[lo:hi]
            plus = _base_probe(oracle, np.concatenate((t1, [reps.phi[t]], rest)))

            def hits(lo, hi):
                return independent(plus, rest[lo:hi])

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
