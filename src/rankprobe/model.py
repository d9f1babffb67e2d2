"""Ground-truth partition structures, rank/independence oracles, and query accounting.

Element ids are dense integers 0..n-1.  Element sets are represented as 1-D
numpy int64 arrays throughout the package.

Query input contract: every set passed to a public query (``RankOracle.rank``,
``is_independent``, ``audit_rank``, :func:`sum_query_sim`,
:func:`add_query_sim`) holds distinct integer ids in [0, n); any iterable of
ints or integer array is accepted.  Anything else (a float or bool array, an
id out of range, a repeated id) raises :class:`UsageError` and charges
nothing.  Each query is validated once, by :func:`as_element_array` at the
oracle boundary; internal code passes arrays it built itself and does not
validate them again.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager

import numpy as np

from .errors import UsageError

__all__ = [
    "HiddenPartition",
    "CapacitatedPartition",
    "QueryLedger",
    "RankOracle",
    "as_element_array",
    "sum_query_sim",
    "add_query_sim",
    "canonical_parts",
    "instance_to_bytes",
    "instance_from_bytes",
    "read_instance",
    "write_instance",
    "instance_digest",
]


# Up to this size, Python's min/max/set on a list beat NumPy's per-call cost.
_SMALL_SET = 64


def _out_of_range(n, bad):
    return UsageError(f"element id out of range [0, {n}): saw {bad}")


def as_element_array(s, n, mark=None):
    """Validate an element set over {0..n-1}; return it as a 1-D int64 array.

    Raises UsageError unless ``s`` holds distinct integer ids in [0, n).  For
    sets above ``_SMALL_SET`` ids the duplicate check writes each id's
    position into ``mark``, an int64 array of size n that the caller owns, and
    reads it back: O(|S|) and sort-free.  Without ``mark`` a temporary one is
    allocated.
    """
    arr = s if isinstance(s, np.ndarray) else np.asarray(list(s))
    if arr.ndim != 1:
        raise UsageError("element sets must be one-dimensional")
    size = arr.size
    if size == 0:
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind not in "iu":
        raise UsageError(f"element ids must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if size <= _SMALL_SET:
        ids = arr.tolist()
        lo, hi = min(ids), max(ids)
        if lo < 0 or hi >= n:
            raise _out_of_range(n, lo if lo < 0 else hi)
        if len(set(ids)) != size:
            raise UsageError("element sets must not repeat an id")
        return arr
    lo = int(arr.min())
    if lo < 0:
        raise _out_of_range(n, lo)
    if mark is None:
        mark = np.empty(n, dtype=np.int64)
    order = np.arange(size)
    try:
        mark[arr] = order  # an id >= n is the only index left that can fail
    except IndexError:
        raise _out_of_range(n, int(arr.max())) from None
    if not (mark.take(arr) == order).all():
        raise UsageError("element sets must not repeat an id")
    return arr


def canonical_parts(parts):
    """Sort each part ascending and order parts by their minimum element."""
    normalised = [np.asarray(sorted(int(e) for e in p), dtype=np.int64) for p in parts]
    order = sorted(range(len(normalised)), key=lambda i: int(normalised[i][0]))
    return [normalised[i] for i in order], order


class HiddenPartition:
    """A partition P_1..P_k of {0..n-1}; the ground truth a simple rank oracle answers from.

    Parts are pairwise disjoint, nonempty, and cover the universe.  The stored
    order is canonical: each part ascending, parts sorted by minimum element.
    """

    def __init__(self, parts, n=None):
        if not parts:
            raise UsageError("a partition needs at least one part")
        self.parts, _ = canonical_parts(parts)
        total = int(sum(p.size for p in self.parts))
        if any(p.size == 0 for p in self.parts):
            raise UsageError("parts must be nonempty")
        self.n = total if n is None else int(n)
        if total != self.n:
            raise UsageError(f"parts cover {total} elements, expected n={self.n}")
        part_of = np.full(self.n, -1, dtype=np.int64)
        for i, p in enumerate(self.parts):
            if p.size and (p[0] < 0 or p[-1] >= self.n):
                raise UsageError("element id out of range")
            if np.any(part_of[p] != -1):
                raise UsageError("parts must be disjoint")
            part_of[p] = i
        if np.any(part_of < 0):
            raise UsageError("parts must cover the whole universe")
        self.part_of = part_of

    @property
    def k(self):
        return len(self.parts)

    @property
    def capacities(self):
        return None

    def effective_capacities(self):
        return np.ones(self.k, dtype=np.int64)

    def as_tuples(self):
        return tuple(tuple(int(e) for e in p) for p in self.parts)

    def __eq__(self, other):
        return isinstance(other, HiddenPartition) and self.as_tuples() == other.as_tuples()

    def __repr__(self):
        return f"HiddenPartition(n={self.n}, k={self.k})"


class CapacitatedPartition:
    """A partition with per-part capacities r_i, 1 <= r_i < |P_i|.

    The strict upper bound is mandatory: with r_i >= |P_i| the rank oracle
    carries no information that could tell such parts' elements apart, so no
    learner could succeed.
    """

    def __init__(self, parts, capacities, n=None):
        caps_in = [int(c) for c in capacities]
        if len(caps_in) != len(parts):
            raise UsageError("need one capacity per part")
        canon, order = canonical_parts(parts)
        self.base = HiddenPartition(canon, n=n)
        caps = np.asarray([caps_in[i] for i in order], dtype=np.int64)
        sizes = np.asarray([p.size for p in self.base.parts], dtype=np.int64)
        if np.any(caps < 1) or np.any(caps >= sizes):
            raise UsageError("capacities must satisfy 1 <= r_i < |P_i|")
        self.capacities = caps

    @property
    def n(self):
        return self.base.n

    @property
    def k(self):
        return self.base.k

    @property
    def parts(self):
        return self.base.parts

    @property
    def part_of(self):
        return self.base.part_of

    @property
    def rank_total(self):
        return int(self.capacities.sum())

    def effective_capacities(self):
        return self.capacities

    def as_tuples(self):
        return (self.base.as_tuples(), tuple(int(c) for c in self.capacities))

    def __eq__(self, other):
        return isinstance(other, CapacitatedPartition) and self.as_tuples() == other.as_tuples()

    def __repr__(self):
        return f"CapacitatedPartition(n={self.n}, k={self.k}, r={self.rank_total})"


class QueryLedger:
    """Exact per-kind query counters.

    Every oracle call increments exactly one of ``rank_count``,
    ``independence_count`` or ``audit_count``.  Simulated sum/add queries have
    no counter of their own: they charge ``rank_count`` through the rank calls
    they issue.  ``per_phase`` maps each phase label to the charged
    (non-audit) calls made while it was open; a phase adds its calls when it
    closes, so ``per_phase`` is settled only outside open phases.  Labels that
    charged nothing are absent.
    """

    def __init__(self):
        self.rank_count = 0
        self.independence_count = 0
        self.audit_count = 0
        self.per_phase = {}

    @contextmanager
    def phase(self, label):
        start = self.rank_count + self.independence_count
        try:
            yield self
        finally:
            spent = self.rank_count + self.independence_count - start
            if spent:
                self.per_phase[label] = self.per_phase.get(label, 0) + spent

    def charge_rank(self):
        self.rank_count += 1

    def charge_independence(self):
        self.independence_count += 1

    def charge_audit(self):
        self.audit_count += 1

    def snapshot(self):
        return {
            "rank_count": self.rank_count,
            "independence_count": self.independence_count,
            "audit_count": self.audit_count,
            "per_phase": dict(sorted(self.per_phase.items())),
        }


class RankOracle:
    """Answers rank queries from a hidden structure, charging a ledger per call.

    Answers are pure functions of (structure, query set); the element-to-part
    index is precomputed so one query costs O(|S|) plus a counting pass.
    Each public query validates its set once (see the module docstring) and
    charges only after it is accepted.  An oracle and its ledger belong to one
    learner run; run distinct oracle instances when working across threads.
    """

    def __init__(self, structure, ledger=None):
        self.structure = structure
        self.ledger = ledger if ledger is not None else QueryLedger()
        self.n = structure.n
        self._part_of = structure.part_of
        caps = structure.effective_capacities()
        self._caps = caps
        self._simple = bool(np.all(caps == 1))
        self._scratch = np.zeros(caps.size, dtype=bool)
        self._mark = np.empty(self.n, dtype=np.int64)  # as_element_array's duplicate check

    def _evaluate(self, s):
        """Rank of a set already known to hold distinct ids in [0, n) (array or list)."""
        size = len(s)
        if size == 0:
            return 0
        parts = self._part_of[s]
        if self._simple:
            if size <= 64:
                return len(set(parts.tolist()))
            if size >= self._caps.size // 4:
                # scatter-count beats sorting once |S| is comparable to k
                seen = self._scratch
                seen[parts] = True
                count = int(np.count_nonzero(seen))
                seen[parts] = False
                return count
            return int(np.unique(parts).size)
        if size >= self._caps.size // 4:
            counts = np.bincount(parts, minlength=self._caps.size)
            return int(np.minimum(counts, self._caps).sum())
        uniq, counts = np.unique(parts, return_counts=True)
        return int(np.minimum(counts, self._caps[uniq]).sum())

    def rank(self, s):
        """Number of parts hit, capped per part at r_i (r_i = 1 for a simple partition)."""
        value = self._evaluate(as_element_array(s, self.n, self._mark))
        self.ledger.charge_rank()
        return value

    def is_independent(self, s):
        """True iff |S ∩ P_i| <= r_i for every part; charged as one independence query."""
        arr = as_element_array(s, self.n, self._mark)
        value = self._evaluate(arr) == arr.size
        self.ledger.charge_independence()
        return value

    def audit_rank(self, s):
        """Rank evaluated for audit checks only; charged to the audit counter."""
        value = self._evaluate(as_element_array(s, self.n, self._mark))
        self.ledger.charge_audit()
        return value


def _sum_query(oracle, s, i2):
    """sum_query_sim on int64 arrays the caller built: distinct, disjoint, in range."""
    return s.size + i2.size - oracle.rank(np.concatenate((s, i2)))


def _add_query(oracle, s):
    """add_query_sim on an int64 array of distinct in-range ids the caller built."""
    return s.size - oracle.rank(s)


def sum_query_sim(oracle, s, i2):
    """Count elements of S with a friend in the independent set I2, via one rank query.

    Identity used: sum = |S| + |I2| - rank(S ∪ I2), valid when S is contained
    in an independent set disjoint from I2.  S and I2 must be valid element
    sets and disjoint, otherwise UsageError.
    """
    s = as_element_array(s, oracle.n)
    i2 = as_element_array(i2, oracle.n)
    if s.size and i2.size and np.intersect1d(s, i2).size:
        raise UsageError("sum query requires S and I2 disjoint")
    return _sum_query(oracle, s, i2)


def add_query_sim(oracle, s):
    """Count friend pairs fully inside S, via one rank query: |S| - rank(S).

    Meaningful when S is drawn from the union of two independent sets whose
    friendships form a matching; outside that regime the value is well defined
    but not a pair count.  S must be a valid element set, otherwise UsageError.
    """
    return _add_query(oracle, as_element_array(s, oracle.n))


def _instance_payload(structure, meta=None):
    payload = {
        "n": int(structure.n),
        "parts": [[int(e) for e in p] for p in structure.parts],
        "capacities": None
        if structure.capacities is None
        else [int(c) for c in structure.capacities],
    }
    if meta is not None:
        payload["meta"] = meta
    return payload


def instance_to_bytes(structure, meta=None):
    """Canonical JSON bytes: sorted keys, compact separators, trailing newline."""
    payload = _instance_payload(structure, meta)
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def instance_from_bytes(data):
    """Parse an instance document; returns (structure, meta)."""
    doc = json.loads(data)
    try:
        n = int(doc["n"])
        parts = doc["parts"]
        caps = doc.get("capacities")
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed instance document: {exc}") from exc
    if caps is None:
        structure = HiddenPartition(parts, n=n)
    else:
        structure = CapacitatedPartition(parts, caps, n=n)
    return structure, doc.get("meta")


def write_instance(path, structure, meta=None):
    with open(path, "wb") as fh:
        fh.write(instance_to_bytes(structure, meta))


def read_instance(path):
    with open(path, "rb") as fh:
        return instance_from_bytes(fh.read())


def instance_digest(structure):
    """Hex digest of the canonical serialization (meta excluded)."""
    return hashlib.sha256(instance_to_bytes(structure)).hexdigest()
