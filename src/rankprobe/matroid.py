"""Learning a general partition matroid: basis, representatives, and the reduction.

The pipeline finds a basis greedily (exactly n rank queries), extracts two
transversal representative sets T1 inside the basis and T2 outside it with a
halving search, then simulates simple-partition rank oracles on B and on
V setminus B to reuse the partition learner, stitching the two learned
partitions through the representative map.

An independence-oracle-only baseline learner is included for the query-count
comparison; it shares the basis and representative machinery (those tests
need only independence answers) and classifies the remaining elements by
binary search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation
from .model import _check_universe, canonical_parts
from .partition import find_partition_run

__all__ = [
    "Basis",
    "RepresentativePair",
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
class Basis:
    """A maximum independent set: exactly r_i elements of each part."""

    members: np.ndarray

    @property
    def size(self):
        return int(self.members.size)


@dataclass
class RepresentativePair:
    """Transversals T1 (inside the basis) and T2 (outside), with the friend map phi."""

    inside: np.ndarray
    outside: np.ndarray
    phi: dict

    @property
    def k(self):
        return int(self.inside.size)


@dataclass
class LearnedMatroid:
    """A learned partition with aligned capacities, stored canonically."""

    parts: list
    capacities: np.ndarray

    def __init__(self, parts, capacities):
        caps_in = [int(c) for c in capacities]
        canon, order = canonical_parts(parts)
        self.parts = canon
        self.capacities = np.asarray([caps_in[i] for i in order], dtype=np.int64)

    def as_tuples(self):
        return (
            tuple(tuple(int(e) for e in p) for p in self.parts),
            tuple(int(c) for c in self.capacities),
        )

    def matches(self, structure):
        """Ground-truth comparison; capacities are compared when the truth has them."""
        truth_parts = tuple(tuple(int(e) for e in p) for p in structure.parts)
        if truth_parts != self.as_tuples()[0]:
            return False
        if structure.capacities is None:
            return True
        return tuple(int(c) for c in structure.capacities) == self.as_tuples()[1]

    def __eq__(self, other):
        return isinstance(other, LearnedMatroid) and self.as_tuples() == other.as_tuples()


@dataclass
class MatroidRun:
    """One matroid learner run.

    ``stages`` are the ledger phase records the run opened, in order; a run
    started inside an open phase opens no outermost phase, so it lists none.
    """

    matroid: LearnedMatroid
    stages: list
    basis: Basis = None
    reps: RepresentativePair = None
    inside_run: object = field(default=None, repr=False)
    outside_run: object = field(default=None, repr=False)


def _rank_test(oracle):
    """Independence as one rank query: S is independent iff rank(S) = |S|."""
    return lambda s: oracle.rank(s) == s.size


def _find_basis(n, ledger, independent):
    """Greedy basis, one ``independent(S)`` test per element (see find_basis)."""
    buf = np.empty(max(n, 1), dtype=np.int64)
    size = 0
    with ledger.phase("basis"):
        for v in range(n):
            buf[size] = v
            if independent(buf[: size + 1]):
                size += 1
    return Basis(buf[:size].copy())


def find_basis(n, oracle):
    """Greedy basis in exactly n rank queries; rank(B) is tracked, never re-queried."""
    _check_universe(n, oracle)
    return _find_basis(n, oracle.ledger, _rank_test(oracle))


def _find_representatives(n, ledger, independent, basis):
    """T1, T2 and phi from ``independent(S)`` tests (see find_representatives)."""
    b = basis.members
    t1, t2, phi = [], [], {}
    in_cur = np.ones(b.size, dtype=bool)  # B - T1 as a mask over B
    cur = b
    outside = side_complement(n, b)
    with ledger.phase("representatives"):
        for e in outside.tolist():
            # B - T1 + e is independent iff e's part still has a hole in
            # B - T1, i.e. a member in T1: the part is already discovered.
            if independent(np.append(cur, e)):
                continue
            t2.append(e)
            xlo, xhi = 0, b.size
            while xhi - xlo > 1:
                mid = xlo + (xhi - xlo + 1) // 2
                # query Y + X1 + e where X = B[xlo:xhi] is the search window,
                # X1 its lower half, and Y = B minus X the settled remainder.
                if independent(np.concatenate((b[:mid], b[xhi:], [e]))):
                    xlo = mid  # X2 holds at least one friend
                else:
                    xhi = mid  # X2 holds no friend of e
            x = int(b[xlo])
            t1.append(x)
            phi[x] = e
            in_cur[xlo] = False
            cur = b[in_cur]
    return RepresentativePair(
        np.asarray(sorted(t1), dtype=np.int64),
        np.asarray(sorted(t2), dtype=np.int64),
        phi,
    )


def find_representatives(n, oracle, basis):
    """Find transversals T1 in B, T2 disjoint from B, and the friend map phi: T1 -> T2.

    Scans the n - |B| non-basis elements; each one opening a new part triggers
    a halving search over B (at most ceil(log2 |B|) queries) for a basis
    friend.  Ranks of known-independent sets (B - T1 and Y + X1) are computed
    arithmetically, not queried.
    """
    _check_universe(n, oracle)
    return _find_representatives(n, oracle.ledger, _rank_test(oracle), basis)


def side_complement(n, side):
    return np.setdiff1d(np.arange(n, dtype=np.int64), side, assume_unique=True)


class _InsideOracle:
    """Simulated simple rank over basis positions: rank(B - S + T2) - rank(B - S).

    Positions come from find_partition_run and are trusted; the base oracle
    validates each probe it is asked.
    """

    def __init__(self, base_oracle, basis_members, t2):
        self.base = base_oracle
        self.ledger = base_oracle.ledger
        self.b = basis_members
        self.t2 = t2
        self.n = int(basis_members.size)
        self._keep = np.ones(self.n, dtype=bool)  # all True between probes

    def _probe(self, pos):
        keep = self._keep
        keep[pos] = False
        probe = np.concatenate((self.b[keep], self.t2))
        keep[pos] = True
        return probe, self.n - len(pos)

    def rank(self, pos):
        probe, offset = self._probe(pos)
        return self.base.rank(probe) - offset

    def audit_rank(self, pos):
        probe, offset = self._probe(pos)
        return self.base.audit_rank(probe) - offset


class _OutsideOracle:
    """Simulated simple rank over non-basis positions: rank(B + S - T1) - rank(B - T1).

    Positions are trusted as in _InsideOracle.
    """

    def __init__(self, base_oracle, basis_members, outside_elements, t1):
        self.base = base_oracle
        self.ledger = base_oracle.ledger
        self.outside = outside_elements
        self.n = int(outside_elements.size)
        self._b_minus_t1 = np.setdiff1d(basis_members, t1, assume_unique=True)
        self._offset = int(self._b_minus_t1.size)  # = rank(B - T1), a run constant

    def _probe(self, pos):
        return np.concatenate((self._b_minus_t1, self.outside[pos]))

    def rank(self, pos):
        return self.base.rank(self._probe(pos)) - self._offset

    def audit_rank(self, pos):
        return self.base.audit_rank(self._probe(pos)) - self._offset


def learn_matroid_with_reps(n, oracle, basis, reps, audit=False):
    """Learn partition and capacities given a basis and representative pair.

    Runs the simple-partition learner twice over simulated oracles (inside the
    basis and outside it), reads capacities off the inside parts, and stitches
    the two partitions through phi.  Each step runs as a ledger phase
    (``inside-basis``, ``outside-basis``, ``stitch``); the stitch asks nothing,
    so its record reads zero.
    """
    _check_universe(n, oracle)
    b = basis.members
    outside = side_complement(n, b)
    ledger = oracle.ledger

    with ledger.phase("inside-basis"):
        inside_run = find_partition_run(
            int(b.size), _InsideOracle(oracle, b, reps.outside), audit=audit
        )
    parts1 = [b[p] for p in inside_run.parts]

    with ledger.phase("outside-basis"):
        outside_run = find_partition_run(
            int(outside.size), _OutsideOracle(oracle, b, outside, reps.inside), audit=audit
        )
    parts2 = [outside[p] for p in outside_run.parts]

    with ledger.phase("stitch"):
        part1_of = {}
        for i, p in enumerate(parts1):
            for e in p.tolist():
                part1_of[e] = i
        part2_of = {}
        for j, p in enumerate(parts2):
            for e in p.tolist():
                part2_of[e] = j
        if len(parts1) != reps.k or len(parts2) != reps.k:
            raise InvariantViolation(
                "representative sets do not form transversals of the learned partitions"
            )
        used2 = set()
        final_parts = []
        capacities = []
        for t in reps.inside.tolist():
            i = part1_of[t]
            j = part2_of[reps.phi[t]]
            if j in used2:
                raise InvariantViolation("two inside parts stitched to one outside part")
            used2.add(j)
            final_parts.append(np.concatenate((parts1[i], parts2[j])))
            capacities.append(int(parts1[i].size))
        if len(used2) != len(parts2):
            raise InvariantViolation("an outside part received no representative image")
    matroid = LearnedMatroid(final_parts, capacities)
    return matroid, inside_run, outside_run


def learn_partition_matroid_run(n, oracle, audit=False):
    """Full pipeline; its stages are the ledger phases it opens, in order."""
    _check_universe(n, oracle)
    ledger = oracle.ledger
    start = len(ledger.phases)
    basis = find_basis(n, oracle)
    if audit and oracle.audit_rank(basis.members) != basis.size:
        raise InvariantViolation("greedy scan did not return an independent set")
    reps = find_representatives(n, oracle, basis)
    matroid, inside_run, outside_run = learn_matroid_with_reps(
        n, oracle, basis, reps, audit=audit
    )
    return MatroidRun(matroid, ledger.phases[start:], basis, reps, inside_run, outside_run)


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
    ledger = oracle.ledger
    start = len(ledger.phases)
    independent = oracle.is_independent
    basis = _find_basis(n, ledger, independent)
    reps = _find_representatives(n, ledger, independent, basis)

    b = basis.members
    t1 = reps.inside
    t1_list = t1.tolist()
    groups = {t: {"basis": [t], "outside": [reps.phi[t]]} for t in t1_list}
    rest = np.setdiff1d(b, t1, assume_unique=True)  # B - T1

    # B - T1[lo:mid] + e is built as T1[:lo] + T1[mid:] + (B - T1 + e)
    with ledger.phase("outside-basis"):
        t2_set = set(reps.outside.tolist())
        for e in side_complement(n, b).tolist():
            if e in t2_set:
                continue
            rest_e = np.append(rest, e)
            lo, hi = 0, t1.size
            while hi - lo > 1:
                mid = lo + (hi - lo + 1) // 2
                if independent(np.concatenate((t1[:lo], t1[mid:], rest_e))):
                    hi = mid  # removing X1 freed e's part: friend inside X1
                else:
                    lo = mid
            groups[int(t1[lo])]["outside"].append(e)

    # B - rest[lo:hi] + t2 is built as (T1 + t2) + rest[:lo] + rest[hi:]
    with ledger.phase("inside-basis"):
        for t in t1_list:
            if not rest.size:
                continue
            t1_t2 = np.append(t1, reps.phi[t])

            def hits(lo, hi):
                return independent(np.concatenate((t1_t2, rest[:lo], rest[hi:])))

            def sweep(lo, hi):
                if not hits(lo, hi):
                    return
                if hi - lo == 1:
                    groups[t]["basis"].append(int(rest[lo]))
                    return
                mid = lo + (hi - lo + 1) // 2
                sweep(lo, mid)
                sweep(mid, hi)

            sweep(0, rest.size)

    with ledger.phase("stitch"):
        parts = []
        capacities = []
        for t in t1_list:
            parts.append(
                np.asarray(sorted(groups[t]["basis"] + groups[t]["outside"]), dtype=np.int64)
            )
            capacities.append(len(groups[t]["basis"]))
    matroid = LearnedMatroid(parts, capacities)
    return MatroidRun(matroid, ledger.phases[start:], basis, reps)


def baseline_independence_learner(n, oracle):
    """Independence-oracle-only learner; returns the same LearnedMatroid."""
    return baseline_independence_learner_run(n, oracle).matroid
