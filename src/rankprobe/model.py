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
validate them again.  The simulated queries are one rank query each and
leave the check to it: a sum query asks S ++ I2, so an id that S and I2
share is a repeated id.  No learner asks ``audit_rank``: only
:func:`certify` does, after the learner has answered.

Base probes: the matroid learners ask only sets B - drop + add, a fixed base
plus or minus a few ids, through ``_base_probe(oracle, B)``, the one place
that chooses how they are asked.  When ``oracle.rank`` and
``oracle.is_independent`` are the functions :class:`RankOracle` defines
(compared with those captured at import, so an override in a subclass and a
patch of the class or of the instance both count as a change), a
:class:`_BaseProbe` answers from B's per-part counts: it checks the change
in O(|change|) (ids in [0, n), none repeated, dropped ids in B, added ids
outside it; otherwise UsageError and no charge), counts the answer in
O(|change|), plus O(k) once a side of the change passes ``_SMALL_CHANGE``
ids, and charges one query per answer.  Otherwise a :class:`_BuiltProbe`
builds the set, in the order the learner lists it, and asks it through
those methods, so a recording, lying or tracing oracle sees every query as a
set.

Answer contract: a rank answer must be an integer (a bool is not).  The
learners check each answer once, with ``_rank_answer``, where they read it,
and trust it from there on: ``partition.find_partition_run`` its rank(V) and
chunk ranks, ``partition.merge`` its one rank callback, and ``matroid`` its
rank test and simulated oracles.  A misbehaving oracle's non-integer answer
is a :class:`UsageError`.

One class family holds a partition: :class:`HiddenPartition` canonicalises
and checks the parts once, :class:`CapacitatedPartition` adds capacities,
and ``matroid.LearnedMatroid`` extends that.  Instance constructors hold part
ids and capacities to the integer rule of queries.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, UsageError

__all__ = [
    "HiddenPartition",
    "CapacitatedPartition",
    "Phase",
    "QueryLedger",
    "RankOracle",
    "as_element_array",
    "sum_query_sim",
    "add_query_sim",
    "certify",
    "instance_to_bytes",
    "instance_from_bytes",
    "read_instance",
    "write_instance",
    "instance_digest",
]


# Up to this size, Python's min/max/set on a list beat NumPy's per-call cost.
_SMALL_SET = 64
# From |S| * _DENSE_RATIO >= n on, one bincount over [0, n) checks a set faster
# than the mark array; below it, bincount's O(n) pass over mostly empty bins loses.
_DENSE_RATIO = 8
# A base probe checks and counts each side of a change of up to this many ids
# in Python, a larger one with NumPy; of 0, 2, 4, 8, 12, 16 and 32, 8 ran the
# two matroid learners fastest on capacitated-random n=2^11 k=256.
_SMALL_CHANGE = 8


def _out_of_range(n, bad):
    return UsageError(f"element id out of range [0, {n}): saw {bad}")


def _as_list(s, what):
    """``list(s)``; UsageError naming ``what`` when ``s`` is not iterable."""
    try:
        return list(s)
    except TypeError:
        raise UsageError(f"{what} must be an array or an iterable, got {type(s).__name__}") from None


def _int_array(s, what):
    """``s`` (an integer array or an iterable of ints) as a 1-D int64 array.

    The integer rule every query and instance shares: a float or bool dtype
    raises UsageError instead of being truncated, and so does a bool element
    of a non-array ``s``, which NumPy would read as 0/1.  A scalar, None or
    another non-iterable ``s`` is a UsageError too.  An empty ``s`` passes.
    """
    if isinstance(s, np.ndarray):
        arr = s
    else:
        s = _as_list(s, what)
        if not {bool, np.bool_}.isdisjoint(map(type, s)):
            raise UsageError(f"{what} must be integers, not bools")
        try:
            arr = np.asarray(s)
        except ValueError:  # ragged nesting
            raise UsageError(f"{what} must be one-dimensional") from None
    if arr.ndim != 1:
        raise UsageError(f"{what} must be one-dimensional")
    if arr.size and arr.dtype.kind not in "iu":
        raise UsageError(f"{what} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _check_int(value, what):
    """Raise UsageError unless ``value`` is an integer scalar (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise UsageError(f"{what} must be an integer, got {value!r}")


def _rank_answer(value):
    """A rank oracle's answer as an int, checked where a learner reads it:
    UsageError unless it is an integer scalar (a bool is not)."""
    if type(value) is not int:
        _check_int(value, "a rank answer")
        value = int(value)
    return value


def _check_universe(n, oracle):
    """Raise UsageError unless a learner's ``n`` is the oracle's universe size."""
    _check_int(n, "n")
    if n != oracle.n:
        raise UsageError(f"n={n} does not match the oracle's universe size {oracle.n}")


def as_element_array(s, n, mark, order):
    """Validate an element set over {0..n-1}; return it as a 1-D int64 array.

    Raises UsageError unless ``s`` holds distinct integer ids in [0, n).  Sets
    of up to ``_SMALL_SET`` ids are checked in Python.  Larger sets take one of
    two sort-free paths:

    * dense (``|S| * _DENSE_RATIO >= n``): after one ``max`` bounds the ids,
      ``np.bincount(s, minlength=n)`` rejects a negative id, and fewer than
      |S| nonzero bins means a repeated id; O(n).
    * sparse: after one ``min``, each id's position is written into ``mark``,
      an int64 array of size n that the caller owns, and read back; a
      position that does not survive is a repeated id, and an id >= n fails
      the write; O(|S|).  The positions are a prefix of ``order``, the
      caller's int64 array 0..n-1.
    """
    arr = _int_array(s, "element ids")
    size = arr.size
    if size == 0:
        return arr
    if size <= _SMALL_SET:
        ids = arr.tolist()
        lo, hi = min(ids), max(ids)
        if lo < 0 or hi >= n:
            raise _out_of_range(n, lo if lo < 0 else hi)
        if len(set(ids)) != size:
            raise UsageError("element sets must not repeat an id")
        return arr
    if size * _DENSE_RATIO >= n:
        # bound the ids first: bincount allocates max(id) + 1 bins
        hi = int(np.maximum.reduce(arr))
        if hi >= n:
            raise _out_of_range(n, hi)
        try:
            counts = np.bincount(arr, minlength=n)
        except ValueError:  # bincount refuses negative ids
            raise _out_of_range(n, int(arr.min())) from None
        if np.count_nonzero(counts) != size:
            raise UsageError("element sets must not repeat an id")
        return arr
    lo = int(np.minimum.reduce(arr))
    if lo < 0:
        raise _out_of_range(n, lo)
    order = order[:size]
    try:
        mark[arr] = order  # an id >= n is the only index left that can fail
    except IndexError:
        raise _out_of_range(n, int(arr.max())) from None
    if np.count_nonzero(mark.take(arr) == order) != size:
        raise UsageError("element sets must not repeat an id")
    return arr


class HiddenPartition:
    """A partition P_1..P_k of {0..n-1}; the ground truth a simple rank oracle answers from.

    Parts are pairwise disjoint, nonempty sets of integer ids (the rule of
    queries) that cover the universe, otherwise UsageError.  The stored order
    is canonical: each part ascending, parts sorted by minimum element;
    ``_order`` keeps the input index of each part.  Equality is type-strict:
    equal structures are of one class and agree in ``as_tuples()``.
    """

    capacities = None

    def __init__(self, parts, n=None):
        parts = _as_list(parts, "parts")
        if len(parts) == 0:
            raise UsageError("a partition needs at least one part")
        if n is not None:
            _check_int(n, "n")
        normalised = [np.sort(_int_array(p, "part ids")) for p in parts]
        if any(p.size == 0 for p in normalised):
            raise UsageError("parts must be nonempty")
        self._order = sorted(range(len(normalised)), key=lambda i: int(normalised[i][0]))
        self.parts = [normalised[i] for i in self._order]
        ids = np.concatenate(self.parts)
        self.n = ids.size if n is None else int(n)
        if ids.size != self.n:
            raise UsageError(f"parts cover {ids.size} elements, expected n={self.n}")
        # ids[0] is the least id: the first part holds it, sorted
        lo, hi = int(ids[0]), int(ids.max())
        if lo < 0 or hi >= self.n:
            raise _out_of_range(self.n, lo if lo < 0 else hi)
        part_of = np.full(self.n, -1, dtype=np.int64)
        part_of[ids] = np.repeat(np.arange(self.k), [p.size for p in self.parts])
        # the parts hold n ids in [0, n), so a hole means a repeated id
        if np.any(part_of < 0):
            raise UsageError("parts must be disjoint: an id is repeated")
        self.part_of = part_of

    @property
    def k(self):
        return len(self.parts)

    def effective_capacities(self):
        return np.ones(self.k, dtype=np.int64)

    def as_tuples(self):
        return tuple(tuple(int(e) for e in p) for p in self.parts)

    def __eq__(self, other):
        return type(other) is type(self) and self.as_tuples() == other.as_tuples()

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, k={self.k})"


class CapacitatedPartition(HiddenPartition):
    """A partition with per-part capacities r_i, 1 <= r_i < |P_i|.

    The capacities are aligned with the canonical parts.  The strict upper
    bound is mandatory: with r_i >= |P_i| the rank oracle carries no
    information that could tell such parts' elements apart, so no learner
    could succeed.
    """

    def __init__(self, parts, capacities, n=None):
        parts = _as_list(parts, "parts")
        caps = _int_array(capacities, "capacities")
        if caps.size != len(parts):
            raise UsageError("need one capacity per part")
        super().__init__(parts, n)
        self.capacities = caps[self._order]
        sizes = np.asarray([p.size for p in self.parts], dtype=np.int64)
        if np.any(self.capacities < 1) or np.any(self.capacities >= sizes):
            raise UsageError("capacities must satisfy 1 <= r_i < |P_i|")

    @property
    def rank_total(self):
        return int(self.capacities.sum())

    def effective_capacities(self):
        return self.capacities

    def as_tuples(self):
        return (super().as_tuples(), tuple(int(c) for c in self.capacities))


@dataclass
class Phase:
    """Queries charged while one ``QueryLedger.phase`` block was open.

    The counts are zero while the block runs and are filled in when it closes.
    """

    label: str
    rank_queries: int = 0
    independence_queries: int = 0


class _PhaseBlock:
    """The context manager ``QueryLedger.phase`` returns (see there)."""

    __slots__ = ("ledger", "record", "rank0", "independence0")

    def __init__(self, ledger, label):
        self.ledger = ledger
        self.record = Phase(label)

    def __enter__(self):
        self.rank0, self.independence0 = self.ledger.rank_count, self.ledger.independence_count
        return self.record

    def __exit__(self, *exc):
        ledger, record = self.ledger, self.record
        record.rank_queries = ledger.rank_count - self.rank0
        record.independence_queries = ledger.independence_count - self.independence0
        spent = record.rank_queries + record.independence_queries
        if spent:
            ledger.per_phase[record.label] = ledger.per_phase.get(record.label, 0) + spent
        return False


class QueryLedger:
    """Exact per-kind query counters.

    Every oracle call increments exactly one of ``rank_count``,
    ``independence_count`` or ``audit_count``.  Simulated sum/add queries have
    no counter of their own: they charge ``rank_count`` through the rank calls
    they issue.

    ``phase(label)`` opens a block and yields its :class:`Phase` record, which
    receives the block's charged (non-audit) calls of each kind when it
    closes, even if the body raises.  The record goes only to the code that
    opened the block; the learners keep their own stage and phase lists of
    these records.  ``per_phase`` maps each label to the total charged calls
    of all its blocks, nested ones included; it is settled only outside open
    blocks, and labels that charged nothing are absent.
    """

    def __init__(self):
        self.rank_count = 0
        self.independence_count = 0
        self.audit_count = 0
        self.per_phase = {}

    def phase(self, label):
        return _PhaseBlock(self, label)

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

    Answers are pure functions of (structure, query set).  With the
    element-to-part index precomputed, counting costs O(|S|) on a simple
    partition: a Python set up to ``_SMALL_SET`` ids, position marks over the
    k parts above.  On a capacitated one it costs O(|S| + k): one bincount
    over the k parts, faster than a sort even for small sets.  Validation adds
    O(|S|), or O(n) for a dense set (see :func:`as_element_array`).
    Each public query validates its set once (see the module docstring) and
    charges only after it is accepted.  The matroid learners' probes of a
    shared base go around ``rank`` and ``is_independent`` while this class's
    own methods are in place: a base probe checks only its change, in
    O(|change|), counts the answer from the base's per-part counts and
    charges the same counter, one query per answer (see the module
    docstring).  An oracle and its ledger belong to one learner run; run
    distinct oracle instances when working across threads.
    """

    def __init__(self, structure):
        self.structure = structure
        self.ledger = QueryLedger()
        self.n = structure.n
        self._part_of = structure.part_of
        caps = structure.effective_capacities()
        self._caps = caps
        self._simple = bool(np.all(caps == 1))
        self._mark = np.empty(self.n, dtype=np.int64)  # as_element_array's duplicate check
        self._part_mark = np.empty(caps.size, dtype=np.int64)  # distinct-part count
        self._order = np.arange(self.n, dtype=np.int64)  # positions for both marks

    def _evaluate(self, s):
        """Rank of an int64 array that ``as_element_array`` has already checked."""
        size = len(s)
        if size == 0:
            return 0
        parts = self._part_of[s]
        if self._simple:
            if size <= _SMALL_SET:
                return len(set(parts.tolist()))
            # each part's slot keeps the position of one of its writers, so
            # exactly one position per distinct part reads itself back
            order = self._order[:size]
            marks = self._part_mark
            marks[parts] = order
            return int(np.count_nonzero(marks.take(parts) == order))
        counts = np.bincount(parts, minlength=self._caps.size)
        return int(np.minimum(counts, self._caps).sum())

    def rank(self, s):
        """Number of parts hit, capped per part at r_i (r_i = 1 for a simple partition)."""
        value = self._evaluate(as_element_array(s, self.n, self._mark, self._order))
        self.ledger.charge_rank()
        return value

    def is_independent(self, s):
        """True iff |S ∩ P_i| <= r_i for every part; charged as one independence query."""
        arr = as_element_array(s, self.n, self._mark, self._order)
        value = self._evaluate(arr) == arr.size
        self.ledger.charge_independence()
        return value

    def audit_rank(self, s):
        """Rank for :func:`certify`'s checks; charged to the audit counter alone."""
        value = self._evaluate(as_element_array(s, self.n, self._mark, self._order))
        self.ledger.charge_audit()
        return value

    @functools.cached_property
    def _part_list(self):
        """``part_of`` as a list, for the base probes' per-id Python path."""
        return self._part_of.tolist()


# the methods a base probe stands in for, as this module defines them
_RANK, _IS_INDEPENDENT = RankOracle.rank, RankOracle.is_independent


def _base_probe(oracle, base):
    """A probe of ``base`` on ``oracle``: a :class:`_BaseProbe` when the oracle
    answers with RankOracle's own ``rank`` and ``is_independent``, otherwise
    a :class:`_BuiltProbe`.

    The methods are compared with those this module defined, so an override
    in a subclass, a patch of the class or of the instance (a tracer's
    wrapper, say) all take the built path and see every query as a set.
    """
    own = (
        getattr(oracle.rank, "__func__", None) is _RANK
        and getattr(oracle.is_independent, "__func__", None) is _IS_INDEPENDENT
    )
    return (_BaseProbe if own else _BuiltProbe)(oracle, base)


def _not_in_base(x):
    return UsageError(f"dropped id {x} is not in the base")


def _in_base(x):
    return UsageError(f"added id {x} is already in the base")


class _BaseProbe:
    """Rank queries of B - drop + add for one base B, answered from B's per-part counts.

    B is held as its per-part counts c_i, a membership mask over [0, n) and
    rank(B) = sum of min(c_i, r_i); ``base`` is checked once, as a query set
    would be.  ``rank(drop, add)`` answers rank(B) plus, over the parts the
    change touches, min(c_i', r_i) - min(c_i, r_i), and ``is_independent``
    compares that with |B| - |drop| + |add|; each charges the oracle's
    ledger one query of its kind, as the oracle's own method would.  The
    change is checked in O(|change|) before anything is charged: its ids lie
    in [0, n) and none repeats, every dropped id is in B and every added id
    outside it; anything else is a UsageError.  Up to ``_SMALL_CHANGE`` ids
    are checked and counted in Python, more with NumPy over the k parts.
    ``move_in(v)`` and ``move_out(x)`` change B itself in O(1).
    """

    def __init__(self, oracle, base):
        self.n = n = oracle.n
        self._ledger = oracle.ledger
        self._marks = oracle._mark, oracle._order
        self._part_of, self._caps = oracle._part_of, oracle._caps
        self._part_list, self._cap_list = oracle._part_list, self._caps.tolist()
        base = as_element_array(base, n, *self._marks)
        self._in = bytearray(n)  # B, read per id in Python
        self._mask = np.frombuffer(self._in, dtype=np.bool_)  # the same bytes, for NumPy
        self._mask[base] = True
        self._counts = np.bincount(self._part_of[base], minlength=self._caps.size)
        self._count_list = self._counts.tolist()
        self._rank = int(np.minimum(self._counts, self._caps).sum())
        self.size = int(base.size)

    def _checked(self, ids, inside):
        """One side of a change, checked: a list up to ``_SMALL_CHANGE`` ids,
        an int64 array above.  ``inside`` is whether its ids must lie in B."""
        n = self.n
        if len(ids) <= _SMALL_CHANGE:
            ids = ids.tolist() if isinstance(ids, np.ndarray) else list(ids)
            member = self._in
            for x in ids:
                if not 0 <= x < n:
                    raise _out_of_range(n, x)
                if member[x] != inside:
                    raise _not_in_base(x) if inside else _in_base(x)
            if len(set(ids)) != len(ids):
                raise UsageError("element sets must not repeat an id")
            return ids
        ids = _int_array(ids, "element ids")
        if np.count_nonzero(ids[1:] <= ids[:-1]):
            as_element_array(ids, n, *self._marks)
        else:  # strictly ascending, so distinct: its ends bound it
            lo, hi = ids.item(0), ids.item(-1)
            if lo < 0 or hi >= n:
                raise _out_of_range(n, lo if lo < 0 else hi)
        member = self._mask[ids]
        if np.count_nonzero(member) != (ids.size if inside else 0):
            if inside:
                raise _not_in_base(ids.item(np.argmin(member)))
            raise _in_base(ids.item(np.argmax(member)))
        return ids

    def _rank_of(self, drop, add):
        """rank(B - drop + add) for the two checked sides of a change."""
        part_of = self._part_list
        if type(drop) is list and type(add) is list:
            counts, caps = self._count_list, self._cap_list
            delta = {}
            for x in drop:
                p = part_of[x]
                delta[p] = delta.get(p, 0) - 1
            for x in add:
                p = part_of[x]
                delta[p] = delta.get(p, 0) + 1
            value = self._rank
            for p, d in delta.items():
                c, r = counts[p], caps[p]
                value += min(c + d, r) - min(c, r)
            return value
        # the counts of B - drop + add, a small side added in id by id
        k = self._caps.size
        if type(drop) is list:
            counts = self._counts.copy()
            for x in drop:
                counts[part_of[x]] -= 1
        else:
            counts = self._counts - np.bincount(self._part_of[drop], minlength=k)
        if type(add) is list:
            for x in add:
                counts[part_of[x]] += 1
        else:
            counts += np.bincount(self._part_of[add], minlength=k)
        return int(np.add.reduce(np.minimum(counts, self._caps, out=counts)))

    def rank(self, drop=(), add=()):
        """rank(B - drop + add), charged as one rank query."""
        value = self._rank_of(self._checked(drop, True), self._checked(add, False))
        self._ledger.charge_rank()
        return value

    def is_independent(self, drop=(), add=()):
        """Whether B - drop + add is independent, charged as one independence query."""
        drop, add = self._checked(drop, True), self._checked(add, False)
        value = self._rank_of(drop, add) == self.size - len(drop) + len(add)
        self._ledger.charge_independence()
        return value

    def _move(self, x, step):
        p = self._part_list[x]
        c, r = self._count_list[p], self._cap_list[p]
        self._rank += min(c + step, r) - min(c, r)
        self._count_list[p] = c + step
        self._counts[p] = c + step
        self.size += step

    def move_in(self, v):
        """Put ``v``, an id outside B, into B."""
        self._checked((v,), False)
        self._in[v] = 1
        self._move(v, 1)

    def move_out(self, x):
        """Take ``x``, an id of B, out of B."""
        self._checked((x,), True)
        self._in[x] = 0
        self._move(x, -1)


class _BuiltProbe:
    """The base probe of an oracle whose ``rank`` or ``is_independent`` is not
    RankOracle's own: each query is built as a set and asked through them.

    The set lists B - drop in B's order (``base`` as given, each ``move_in``
    id appended), then the added ids.  The oracle checks that set as it
    checks any query, and a rank answer is checked as it is read.
    """

    def __init__(self, oracle, base):
        self._oracle = oracle
        self._ids = np.asarray(base, dtype=np.int64)
        self._mask = np.zeros(oracle.n, dtype=bool)  # B
        self._mask[self._ids] = True

    @property
    def size(self):
        return self._ids.size

    def _set(self, drop, add):
        ids = self._ids
        if len(drop):
            mask = self._mask
            mask[drop] = False
            ids = ids[mask.take(ids)]
            mask[drop] = True
        return np.concatenate((ids, np.asarray(add, dtype=np.int64)))

    def rank(self, drop=(), add=()):
        return _rank_answer(self._oracle.rank(self._set(drop, add)))

    def is_independent(self, drop=(), add=()):
        return self._oracle.is_independent(self._set(drop, add))

    def move_in(self, v):
        self._ids = np.append(self._ids, v)
        self._mask[v] = True

    def move_out(self, x):
        self._ids = self._ids[self._ids != x]
        self._mask[x] = False


def _add_query(oracle, s):
    """add_query_sim on an int64 array; the oracle's rank call validates it."""
    return s.size - oracle.rank(s)


def sum_query_sim(oracle, s, i2):
    """Count elements of S with a friend in the independent set I2, via one rank query.

    Identity used: sum = |S| + |I2| - rank(S ∪ I2), valid when S is contained
    in an independent set disjoint from I2.  It is the add query of the
    concatenation S ++ I2, so the oracle checks that one set once: an id
    repeated within S or I2, or shared by both, raises UsageError and charges
    nothing.
    """
    s = _int_array(s, "element ids")
    i2 = _int_array(i2, "element ids")
    return _add_query(oracle, np.concatenate((s, i2)))


def add_query_sim(oracle, s):
    """Count friend pairs fully inside S, via one rank query: |S| - rank(S).

    Meaningful when S is drawn from the union of two independent sets whose
    friendships form a matching; outside that regime the value is well defined
    but not a pair count.  The oracle checks S once, as its rank query:
    UsageError, and no charge, unless S is a valid element set.
    """
    return _add_query(oracle, _int_array(s, "element ids"))


def certify(oracle, structure):
    """Check a learned answer against the oracle's rank function; raise if it is wrong.

    ``structure`` holds the learned parts Q_1..Q_k, each ascending, and their
    capacities c_i (``effective_capacities()``, all 1 for a simple answer).
    Let B_i be the first c_i elements of Q_i, B their union and
    u_i = Q_i[c_i].  Four checks, each asked through ``oracle.audit_rank``,
    so that they charge ``audit_count`` alone:

    1. rank(B) = |B|;
    2. rank(V) = |B|;
    3. rank(Q_i) = c_i for each i;
    4. rank(B - b + u_i) = |B| for each i with c_i >= 2 and each b in B_i.

    The first check that fails raises InvariantViolation naming it.  The cost
    is k + 2 + (the sum of the c_i >= 2) queries: k + 2 on a simple answer,
    at most k + r + 2 on any.  A ``structure`` that is not a
    :class:`HiddenPartition` (a list of parts, None), or one over another
    universe size than the oracle's, is a UsageError, raised before any query.

    Why passing proves the answer, for true parts P_j with capacities r_j:

    * Simple answer: check 3 puts each learned part inside one true part.
      Check 1 puts the k parts in distinct true parts.  The parts cover V,
      so they are the true parts, and check 2 makes every r_j 1.
    * Matroid answer: checks 1 and 2 make B a basis, so B holds r_j elements
      of each P_j.  B_i is an independent c_i-subset of Q_i, so check 3
      forces |B_i ∩ P_j| = min(|Q_i ∩ P_j|, r_j) for every j.  So any
      non-basis element of P_j lies in the learned part that holds all of
      B ∩ P_j, and every true part lies inside one learned part.  u_i is
      outside the basis B, so check 4 puts B_i inside u_i's true part.
      Every true part inside Q_i holds at least one element of B_i.  So Q_i
      is exactly one true part, and c_i = r_j.

    Both rest on two assumptions:

    1. the audit answers are honest;
    2. the oracle is the rank function of a simple partition, or of a
       partition matroid whose every part is larger than its capacity.
       Every CapacitatedPartition is one, and so is every simple instance
       the matroid learners accept: they route singleton parts to
       ``find_partition``.
    """
    if not isinstance(structure, HiddenPartition):
        raise UsageError(
            f"certify needs a HiddenPartition or one of its subclasses, got {type(structure).__name__}"
        )
    _check_universe(structure.n, oracle)
    parts, caps = structure.parts, structure.effective_capacities().tolist()
    basis = np.concatenate([q[:c] for q, c in zip(parts, caps)])
    size = basis.size

    def check(s, want, claim):
        if oracle.audit_rank(s) != want:
            raise InvariantViolation(f"certificate check {claim} does not hold")

    check(basis, size, "1 (rank(B) = |B|)")
    check(np.arange(oracle.n, dtype=np.int64), size, "2 (rank(V) = |B|)")
    for i, (q, c) in enumerate(zip(parts, caps)):
        check(q, c, f"3 (rank(Q_{i}) = c_{i} = {c})")
    swapped = basis.copy()
    start = 0
    for i, (q, c) in enumerate(zip(parts, caps)):
        if c >= 2:
            for pos in range(start, start + c):
                swapped[pos] = q[c]
                check(swapped, size, f"4 (rank(B - {int(basis[pos])} + u_{i}) = |B|)")
                swapped[pos] = basis[pos]
        start += c


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
    try:
        doc = json.loads(data)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise UsageError(f"instance document is not valid JSON: {exc}") from exc
    try:
        n = doc["n"]
        parts = doc["parts"]
        caps = doc.get("capacities")
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed instance document: {exc}") from exc
    _check_int(n, "instance n")
    if caps is None:
        structure = HiddenPartition(parts, n=n)
    else:
        structure = CapacitatedPartition(parts, caps, n=n)
    return structure, doc.get("meta")


def write_instance(path, structure, meta=None):
    """Write the instance file at ``path``; a file that cannot be written is a UsageError."""
    data = instance_to_bytes(structure, meta)
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise UsageError(f"cannot write instance file {path}: {exc.strerror or exc}") from exc


def read_instance(path):
    """Parse the instance file at ``path``; a file that cannot be read is a UsageError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read instance file {path}: {exc.strerror or exc}") from exc
    return instance_from_bytes(data)


def instance_digest(structure):
    """Hex digest of the canonical serialization (meta excluded)."""
    return hashlib.sha256(instance_to_bytes(structure)).hexdigest()
