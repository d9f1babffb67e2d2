"""Coin-weighing primitives.

Three capabilities back the partition learners:

* non-adaptive detecting designs with a constructive decoder — full recovery
  of a binary vector from subset-sum measurements;
* adaptive recovery of a sparse binary vector from a sum-query callback;
* reconstruction of a hidden perfect matching from an additive-query callback.

Detecting designs
-----------------
A design is *B-ary detecting* if x -> (row sums of x) is injective on
{0..B}^n; binary detecting is the B = 1 case.  Large designs are built as
Kronecker towers over three small frozen bases, using the composition rule

    outer B-ary detecting with max row weight w  (+)  inner (B*w)-ary
    detecting   =>   Kronecker product is B-ary detecting,

proved by peeling: each outer row group measures the inner design applied to
a nonnegative combination of at most w columns-slices (entries <= B*w), which
the inner design decodes; the outer design then decodes each column slice.

The frozen bases (re-verified by the test suite):

* ``_B16``  10x16 binary detecting, row weight <= 5  (exhaustive check);
* ``_A2``   8x10  5-ary detecting, row weight <= 5   (meet-in-the-middle
  check over {-5..5}^10);
* ``_A3``   8x9   25-ary detecting: its integer kernel is spanned by a
  single vector with an entry of magnitude 38 > 25, so no two vectors in
  {0..25}^9 can share measurements.

Tiers: T1 = B16 (16 cols, 10 rows), T2 = B16 (x) A2 (160 cols, 80 rows),
T3 = B16 (x) (A2 (x) A3) (1440 cols, 640 rows).  One product decoder serves
every tier and follows the peeling proof on a batch of b measurement vectors:
the inner level decodes all b*r_out row groups at once, then the outer level
decodes all b*c_in column slices at once.  T3's inner level is itself a
product, so the same two steps recurse.  Each base decodes a whole batch in
one vectorised pass.

A design for N columns packs the largest tiers first and finishes with
identity columns, so the row count stays well under N once N reaches a few
hundred (about 0.46*N at N = 4096).  A tier's blocks sit side by side, so
decoding a design hands all of them to the tier as one batch.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DecodeFailure, ProtocolError, UsageError
from .model import _check_int, _int_array

__all__ = [
    "DetectingMatrix",
    "build_detecting_matrix",
    "SparseRecovery",
    "recover_sparse",
    "MatchingResult",
    "recover_matching",
    "SPLIT_THRESHOLD",
    "MATRIX_MIN_SIZE",
    "MATCHING_SEARCH_CUTOFF",
]

# Below this size an identity design is used: the smallest base only pays off
# once it replaces 16 columns.
MATRIX_MIN_SIZE = 16

# recover_sparse switches from halving to a detecting design once the
# sub-universe holds at most SPLIT_THRESHOLD times as many columns as
# remaining ones.
SPLIT_THRESHOLD = 4

# recover_matching uses per-element binary search below this size.
MATCHING_SEARCH_CUTOFF = 32

_B16 = np.array(
    [
        [0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1],
        [1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1],
        [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0],
        [0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0],
        [0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1],
        [1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0],
        [0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0],
    ],
    dtype=np.int64,
)

_A2 = np.array(
    [
        [0, 1, 1, 0, 1, 0, 0, 0, 0, 1],
        [1, 0, 1, 0, 1, 1, 0, 1, 0, 0],
        [0, 0, 1, 1, 1, 0, 1, 0, 1, 0],
        [0, 0, 0, 1, 0, 1, 0, 1, 0, 1],
        [1, 1, 0, 1, 1, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 1, 1, 0, 0, 1, 1],
        [0, 1, 0, 0, 0, 0, 0, 1, 1, 1],
        [1, 1, 1, 1, 0, 1, 0, 0, 0, 0],
    ],
    dtype=np.int64,
)

_A3 = np.array(
    [
        [0, 1, 1, 1, 1, 1, 1, 0, 0],
        [1, 0, 1, 1, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 1, 1, 0, 1],
        [1, 0, 1, 0, 1, 1, 1, 1, 0],
        [1, 0, 0, 1, 1, 0, 0, 1, 1],
        [1, 1, 1, 0, 0, 1, 0, 0, 1],
        [0, 1, 0, 1, 0, 1, 0, 1, 0],
        [1, 1, 1, 1, 0, 0, 1, 1, 0],
    ],
    dtype=np.int64,
)

# Alphabet each lattice base must decode: A2 sees sums of <=5 binary column
# slices (B16 row weight), A3 sees sums of <=5 A2-alphabet slices.
_A2_BOX = 5
_A3_BOX = 25


class _LatticeBase:
    """Decoder for a frozen m x u 0/1 base with u - m in {1, 2}.

    Fixing the free coordinates (chosen so the remaining square submatrix is
    invertible) determines the rest linearly; decoding enumerates the at most
    (box+1)^(u-m) choices and keeps the unique exact integer solution in the
    box.  The solving tables are built on the first decode.
    """

    def __init__(self, matrix, box):
        self.matrix = matrix
        self.box = int(box)
        self.n_cols = matrix.shape[1]
        self.rows = [np.flatnonzero(r) for r in matrix]

    @functools.cached_property
    def _tables(self):
        m, u = self.matrix.shape
        for free in itertools.combinations(range(u), u - m):
            pinned = [j for j in range(u) if j not in free]
            square = self.matrix[:, pinned].astype(np.float64)
            if abs(np.linalg.det(square)) > 0.5:
                break
        else:
            raise RuntimeError("no invertible pinned submatrix; bad base")
        free = list(free)
        inv_t = np.linalg.inv(square).T
        vals = np.arange(self.box + 1, dtype=np.int64)
        choices = np.stack([g.ravel() for g in np.meshgrid(*[vals] * len(free), indexing="ij")], 1)
        # pinned values of choice c for measurements y: y @ inv_t - offset[c]
        offset = (choices @ self.matrix[:, free].T) @ inv_t
        return free, pinned, inv_t, choices, offset

    def decode(self, meas):
        """Per row of a (b, m) batch, the unique y in {0..box}^u with matrix @ y == row.

        Each row keeps the first candidate that passes the exact integer check;
        a row without one raises DecodeFailure.
        """
        free, pinned, inv_t, choices, offset = self._tables
        vals = (meas @ inv_t)[:, None, :] - offset[None, :, :]
        cand = np.rint(vals).astype(np.int64)
        ok = (np.abs(vals - cand) < 1e-6) & (cand >= 0) & (cand <= self.box)
        rows, picks = np.nonzero(ok.all(axis=2))
        y = np.empty((rows.size, self.n_cols), dtype=np.int64)
        y[:, free] = choices[picks]
        y[:, pinned] = cand[rows, picks]
        exact = (y @ self.matrix.T == meas[rows]).all(axis=1)
        rows, y = rows[exact], y[exact]
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        if first.size != meas.shape[0]:
            raise DecodeFailure("no vector in the box matches the measurements")
        return y[first]


_BITS = np.arange(16, dtype=np.int64)
_POW6 = 6 ** np.arange(10, dtype=np.int64)  # base-6 code of a B16 measurement (entries <= 5)


class _BinaryBase:
    """Decoder for the 10 x 16 binary base via a sorted table of all 2^16 codes."""

    n_cols = 16

    def __init__(self):
        self.rows = [np.flatnonzero(r) for r in _B16]

    @functools.cached_property
    def _table(self):
        x = ((np.arange(1 << 16)[:, None] >> _BITS[None, :]) & 1).astype(np.int64)
        codes = (x @ _B16.T) @ _POW6
        order = np.argsort(codes, kind="stable")
        return codes[order], np.arange(1 << 16, dtype=np.int64)[order]

    def decode(self, meas):
        """Decode a (b, 10) batch of measurements to a (b, 16) batch of 0/1 vectors."""
        codes, patterns = self._table
        if np.any(meas < 0) or np.any(meas > 5):
            raise DecodeFailure("binary-base measurements out of range")
        keys = meas @ _POW6
        idx = np.searchsorted(codes, keys).clip(max=codes.size - 1)
        if np.any(codes[idx] != keys):
            raise DecodeFailure("no binary vector matches the measurements")
        return (patterns[idx][:, None] >> _BITS[None, :]) & 1


class _Product:
    """The Kronecker product outer (x) inner: rows outer-row-major, column g*c_in + i.

    Row (rho, a) measures inner row a applied to the sum of the column slices
    in outer row rho, so decoding peels the inner level off every outer row,
    then decodes the outer level on every inner column.
    """

    def __init__(self, outer, inner):
        self.outer = outer
        self.inner = inner
        self.n_cols = outer.n_cols * inner.n_cols
        self.rows = [
            np.sort((groups[:, None] * inner.n_cols + irow[None, :]).ravel())
            for groups in outer.rows
            for irow in inner.rows
        ]

    def decode(self, meas):
        """Decode a (b, r_out*r_in) batch: the inner level on all b*r_out slices at once,
        then the outer level on all b*c_in columns at once."""
        b = meas.shape[0]
        r_out, r_in = len(self.outer.rows), len(self.inner.rows)
        c_out, c_in = self.outer.n_cols, self.inner.n_cols
        slices = self.inner.decode(meas.reshape(b * r_out, r_in))
        cols = slices.reshape(b, r_out, c_in).transpose(0, 2, 1).reshape(b * c_in, r_out)
        x = self.outer.decode(cols)
        return x.reshape(b, c_in, c_out).transpose(0, 2, 1).reshape(b, self.n_cols)


@functools.cache
def _build_tiers():
    """T3 = B16 (x) (A2 (x) A3), T2 = B16 (x) A2, T1 = B16, largest first."""
    b16 = _BinaryBase()
    a2 = _LatticeBase(_A2, _A2_BOX)
    return [_Product(b16, _Product(a2, _LatticeBase(_A3, _A3_BOX))), _Product(b16, a2), b16]


@dataclass
class DetectingMatrix:
    """A binary query design whose measurement map is injective on {0,1}^n_cols."""

    n_cols: int
    rows: list = field(repr=False)
    _blocks: list = field(default=(), repr=False)  # (tier, block count), largest tier first

    @property
    def n_rows(self):
        return len(self.rows)

    def as_dense(self):
        m = np.zeros((len(self.rows), self.n_cols), dtype=np.int64)
        for i, r in enumerate(self.rows):
            m[i, r] = 1
        return m

    def measure(self, x):
        """Forward map: one subset sum per row (the test-side oracle)."""
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (self.n_cols,):
            raise UsageError(f"expected a vector of length {self.n_cols}")
        return np.array([int(x[r].sum()) for r in self.rows], dtype=np.int64)

    def decode(self, measurements):
        """Invert the measurement map; raises DecodeFailure on inconsistent input.

        A tier's blocks are contiguous in rows and columns, so each tier
        decodes all of its blocks as one batch; the identity tail follows.
        """
        meas = np.asarray(measurements, dtype=np.int64)
        if meas.shape != (len(self.rows),):
            raise DecodeFailure(f"expected {len(self.rows)} measurements, got {meas.shape}")
        out = np.empty(self.n_cols, dtype=np.int64)
        pos = col = 0
        for tier, count in self._blocks:
            n_rows, width = count * len(tier.rows), count * tier.n_cols
            batch = meas[pos : pos + n_rows].reshape(count, -1)
            out[col : col + width] = tier.decode(batch).ravel()
            pos += n_rows
            col += width
        tail = meas[pos:]
        if np.any((tail < 0) | (tail > 1)):
            raise DecodeFailure("identity-tail measurements must be 0/1")
        out[col:] = tail
        return out


_matrix_cache = {}


def build_detecting_matrix(N):
    """Deterministic detecting design for N columns.

    Packs the largest Kronecker tiers first (1440, 160, then 16 columns) and
    finishes with identity rows for the remainder or for any N below
    MATRIX_MIN_SIZE.  Row count is at most N, and o(N) once tiers dominate.
    """
    _check_int(N, "N")
    if N < 1:
        raise UsageError("need at least one column")
    cached = _matrix_cache.get(N)
    if cached is not None:
        return cached
    rows = []
    blocks = []
    offset = 0
    for tier in _build_tiers():
        count = (N - offset) // tier.n_cols
        if count:
            blocks.append((tier, count))
        for _ in range(count):
            rows.extend(offset + r for r in tier.rows)
            offset += tier.n_cols
    rows.extend(np.array([j], dtype=np.int64) for j in range(offset, N))
    matrix = DetectingMatrix(N, rows, blocks)
    _matrix_cache[N] = matrix
    return matrix


@dataclass
class SparseRecovery:
    """Result of recover_sparse: the support plus the sum-query budget it used."""

    support: np.ndarray
    queries_used: int
    strategy: str


def recover_sparse(N, sum_oracle, *, split_threshold=SPLIT_THRESHOLD, known_total=None):
    """Recover the support of an unknown x in {0,1}^N from a sum-query callback.

    Adaptive halving (lower-index half first, odd splits give the extra
    element to the lower half) with a switch to detecting-design recovery on
    any sub-universe of size s <= split_threshold * (ones remaining in it),
    provided s is large enough for a non-identity design to pay off.

    ``known_total`` skips the root query when the caller already knows the
    number of ones; the public contract with d unknown always spends the root
    query, so x = 0 costs exactly one query.
    """
    state = {"queries": 0, "matrix_used": False}

    def ask(indices):
        state["queries"] += 1
        return int(sum_oracle(indices))

    support = []

    def solve(lo, hi, ones):
        size = hi - lo
        if ones < 0 or ones > size:
            raise DecodeFailure(
                f"sum oracle reported {ones} ones in a sub-universe of size {size}"
            )
        if ones == 0:
            return
        if ones == size:
            support.extend(range(lo, hi))
            return
        if size >= MATRIX_MIN_SIZE and size <= split_threshold * ones:
            state["matrix_used"] = True
            matrix = build_detecting_matrix(size)
            meas = [ask(lo + row) for row in matrix.rows]
            bits = matrix.decode(meas)
            if int(bits.sum()) != ones:
                raise DecodeFailure("decoded weight disagrees with the known sub-universe sum")
            support.extend((lo + np.flatnonzero(bits)).tolist())
            return
        mid = lo + (size + 1) // 2
        left = ask(np.arange(lo, mid, dtype=np.int64))
        solve(lo, mid, left)
        solve(mid, hi, ones - left)

    _check_int(N, "N")
    if N < 0:
        raise UsageError("N must be nonnegative")
    if N == 0:
        total = 0 if known_total is None else int(known_total)
    elif known_total is None:
        total = ask(np.arange(N, dtype=np.int64))
    else:
        total = int(known_total)
    solve(0, N, total)
    strategy = "hybrid" if state["matrix_used"] else "binary-split"
    return SparseRecovery(np.asarray(support, dtype=np.int64), state["queries"], strategy)


@dataclass
class MatchingResult:
    """A learned perfect matching, as a map from X-elements to Y-elements."""

    pairs: dict
    queries_used: int


def recover_matching(x_side, y_side, add_oracle):
    """Learn the hidden perfect matching between X and Y from an add-query callback.

    For small d a per-element binary search over the remaining candidates is
    used (at most ceil(log2 d) add queries each).  For d >= 32 each X-element
    gets a ceil(log2 d)-bit id and, per bit plane b, the indicator over Y of
    "my partner's bit b is set" is recovered as a sparse-recovery instance
    with known total (the number of ids with bit b set), one add query per
    sum query.  A decode failure or a non-bijective result means the matching
    precondition was violated.  Each side must hold distinct integer ids, the
    sides disjoint and of equal size, otherwise UsageError.
    """
    xs = np.sort(_int_array(x_side, "matching ids"))
    ys = np.sort(_int_array(y_side, "matching ids"))
    if xs.size != ys.size:
        raise UsageError("matching sides must have equal size")
    if (xs[1:] == xs[:-1]).any() or (ys[1:] == ys[:-1]).any():
        raise UsageError("a matching side must not repeat an id")
    if np.intersect1d(xs, ys).size:
        raise UsageError("matching sides must be disjoint")
    d = int(xs.size)
    if d == 0:
        return MatchingResult({}, 0)
    if d == 1:
        return MatchingResult({int(xs[0]): int(ys[0])}, 0)

    state = {"queries": 0}

    def ask(subset):
        state["queries"] += 1
        return int(add_oracle(subset))

    pairs = {}
    if d < MATCHING_SEARCH_CUTOFF:
        pool = ys.tolist()
        for x in xs.tolist():
            if len(pool) == 1:
                pairs[x] = pool[0]
                break
            cands = pool
            while len(cands) > 1:
                half = cands[: (len(cands) + 1) // 2]
                inside = ask(np.asarray([x] + half, dtype=np.int64))
                cands = half if inside else cands[len(half) :]
            pairs[x] = cands[0]
            pool.remove(cands[0])
        return MatchingResult(pairs, state["queries"])

    planes = max(1, math.ceil(math.log2(d)))
    ids = np.arange(d, dtype=np.int64)
    partner_id = np.zeros(d, dtype=np.int64)
    for b in range(planes):
        x_b = xs[(ids >> b) & 1 == 1]
        count_b = int(((ids >> b) & 1).sum())
        try:
            rec = recover_sparse(
                d,
                lambda idx: ask(np.concatenate((ys[idx], x_b))),
                known_total=count_b,
            )
        except DecodeFailure as exc:
            raise ProtocolError(f"bit-plane {b} decode failed: {exc}") from exc
        indicator = np.zeros(d, dtype=np.int64)
        indicator[rec.support] = 1
        partner_id += indicator << b
    if not np.array_equal(np.sort(partner_id), ids):
        raise ProtocolError("decoded partner ids are not a bijection")
    for j in range(d):
        pairs[int(xs[partner_id[j]])] = int(ys[j])
    return MatchingResult(pairs, state["queries"])
