"""Coin-weighing primitives.

Three capabilities back the partition learners:

* non-adaptive detecting designs with a constructive decoder — full recovery
  of a binary vector from subset-sum measurements;
* adaptive recovery of a sparse binary vector from a block sum-query callback;
* reconstruction of a hidden perfect matching from an additive-query callback.

Every query ``recover_sparse`` asks belongs to a block: a design's rows are
all known before the first answer, so the callback gets them as one block
(flat column ids plus row bounds) and answers them together; a root or
halving query is a one-row block.  ``_row_sets`` turns a block into the query
sets its callers ask, one concatenate ``src[row] ++ fixed`` per row.

``recover_sparse`` and ``recover_matching`` check their inputs and each
answer of their callback, then run a private core, ``_recover_sparse`` and
``_recover_matching``, that trusts both.  ``partition.merge``, which checks
each rank answer as it reads it, and the matching planes call the cores.
They return only what they learn: the support as an int64 array, and the
matching as a dict.  Queries are counted where they are answered, in the
callback (and, for the learners, in the oracle's ledger), never here.

Detecting designs
-----------------
A design is *detecting* if x -> (row sums of x) is injective on {0,1}^n.
Designs pack the blocks of Cantor & Mills (1966), in the line of Lindström
(1964).

The Cantor-Mills blocks A_k, k = 2..10, have 2^k rows for k*2^(k-1) + 1
columns: 4 x 5, 8 x 13, 16 x 33, 32 x 81, 64 x 193, 128 x 449, 256 x 1025,
512 x 2305 and 1024 x 5121.  A_1 = [[1, 0], [1, 1]] and

    A_{j+1} = [[A_j, A_j,     I'],
               [A_j, J - A_j, 0 ]],

with columns (x1, x2, z), where I' is the identity on every row of A_j but
its last (so z has 2^j - 1 entries) and J is all ones.  Column 0 of every
A_j is all ones.  A decoding pass reads the two row halves ``top`` and
``mid`` of an A_{j+1} block.  Their last rows sum to 2*(A_j x1)_last + |x2|,
so p = (top_last + mid_last) mod 2 is |x2| mod 2; on the other rows
top + mid - p = 2*(A_j x1) + z + 2c with c = (|x2| - p)/2, so its parity is
z, and g = (top + mid - I'z - p)/2 and h = top - I'z - g are the A_j
measurements of x1 + c*e_0 and x2 - c*e_0 (column 0 is all ones).  Each pass
splits every block of a batch at once, down to A_3 blocks, which the leaf
decodes with their column 0 left free: one lookup of the other 12 columns in
the sorted codes of y - y_0 (2^12 codes), and x[0] = y_0 minus row 0's sum of
the others.  On the way back up, with w_h the weight of the decoded x2 - c*e_0,
c = w_h - p: x1[0] -= c and x2[0] += c.  A decoded vector with an entry
outside {0, 1} raises DecodeFailure.

Each step reproduces its rows exactly for any integer measurements: the leaf
by construction, and a pass because (g - c) + (h + c) + I'z = top and, with
c = w_h - p and |x2| = w_h + c, (g - c) - (h + c) + |x2| = g - h + p = mid.
So an accepted vector reproduces the measurements exactly.  For a binary x
the same steps are forced (p, z and c are functions of the measurements, and
y - y_0 of A_3 with column 0 free is injective on the other 12 columns, which
the leaf checks when it builds its codes), which proves every A_k detecting.

A_2, A_3 and the free leaf are each a ``_Table``: it reads a measurement as
one number in base (widest row range + 1) and looks it up in the sorted
codes of all its patterns, built on first decode; two patterns with one code
raise InternalConsistencyError, so a table proves itself detecting on first
use.  With those checks every decoded vector reproduces the measurements
exactly, or the decode raises DecodeFailure.

``build_detecting_matrix(N)`` packs A_k blocks and identity columns with the
fewest rows, found by one dynamic program over N shared by every design
(ties go to identity columns, then to the smaller block).

Deleting columns from a detecting matrix keeps it detecting (Cantor & Mills
1966), so a design may end in one cut block: the first j columns of a kind
wider than j, each row restricted to them.  The program is

    f(N) = min(f(N - 1) + 1, min over kinds c of f(max(0, N - c)) + rows_c),

where a kind with c > N is that cut block, and a full block wins a tie
against a cut one; so a design holds at most one.  No cut row goes empty,
since column 0 is all ones, so the cut block's measurements are its kind's
rows with the missing columns zeros: it decodes through its kind's decoder
unchanged, in one batch with the design's full blocks of its kind, if it has
any, and a decoded one in a missing column raises DecodeFailure.  The row
count is 16 at N = 32, 32 at N = 64, 96 at N = 256, 256 at N = 1024, 384
(about 0.27*N) at N = 1440 and 1016 (about 0.25*N) at N = 4096, where no
block is cut.  Cut blocks save rows at 91,580 of the 131,072 sizes up to
2^17 and cost a row at none.

``recover_sparse`` chooses between halving and a design by expected cost: on
s columns known to hold w ones it asks the design exactly when the design's
rows are at most the expected queries of halving, the ones placed at random
(``_band``).  Those w form one band [a(s), s - a(s)], from a(12) = 5 through
a(16) = 9, a(32) = 6, a(64) = 14, a(128) = 20, a(256) = 28 and a(512) = 42
to a(1024) = 60.  Below 12 columns the band is empty, so A_2 enters only as
a part of larger designs.  Above 1024 columns the band's edge a(1024)/1024
scales with s.

A design is a list of (block, count) pairs and at most one cut block.  Each
block kind keeps its rows as one flat array of column ids with row bounds,
built once, on first use, from its 0/1 matrix.  A design tiles those into
its own rows once, on first use, and keeps them compactly: the column ids in
the narrowest integer type that holds its column count, the bounds as one
read-only int64 array.  The cut block's rows come in the same pass: each
row's ids ascend, so a cut row is its ids below the width.
``DetectingMatrix.flat_rows(lo)`` returns the ids plus ``lo`` as a
fresh int64 array, with the shared bounds.  Decoding hands all blocks of one
kind, the cut block among them, to that kind as one batch.

Matching recovery
-----------------
``recover_matching`` learns a hidden perfect matching of d pairs from add
queries.  Below ``MATCHING_SEARCH_CUTOFF`` pairs each X element finds its
partner by binary search.  From there on the X elements get the ids 0..d-1
and each Y element's partner id is learned one bit plane at a time, as
grouped planes: the planes below b split Y into one group per residue of
the partner id mod 2^b, and a group's candidate ids, and how many of them
have bit b set, are known.  So the bits of a group without such a candidate
are settled, and the last bit of every other group follows from the rest:
plane b asks one ``recover_sparse`` over d - 2^b columns, not d.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DecodeFailure, InternalConsistencyError, ProtocolError, UsageError
from .model import _check_int, _int_array

__all__ = [
    "DetectingMatrix",
    "build_detecting_matrix",
    "recover_sparse",
    "recover_matching",
]

# recover_matching uses per-element binary search below this size.
MATCHING_SEARCH_CUTOFF = 32


def _flat(mat):
    """The rows of a 0/1 matrix as one block: flat column ids and the R + 1 row bounds."""
    cols = np.flatnonzero(mat)
    cols %= mat.shape[1]
    bounds = np.zeros(mat.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(mat, axis=1), out=bounds[1:])
    return cols, bounds


class _Kind:
    """A block kind's rows in one form: flat column ids ``cols``, each row's
    ids ascending, and the R + 1 row ``bounds``."""

    def __init__(self, mat):
        self.n_rows, self.n_cols = mat.shape
        self.cols, self.bounds = _flat(mat)

    def prefix_lengths(self, j):
        """Each row's number of column ids below j, its part when the block is
        cut to its first j columns: at least 1, as column 0 of A_k is all ones."""
        return np.add.reduceat(self.cols < j, self.bounds[:-1])


class _Table(_Kind):
    """Block kind A_2 or A_3, decoded by one lookup (see the module docstring).

    With ``free`` the block is A_3 with its all-ones column 0 left free, the
    leaf of every larger Cantor-Mills block: the lookup reads y - y_0 on the
    other 12 columns, rows whose entries lie in {-1, 0, 1}.
    """

    def __init__(self, mat, free=False):
        super().__init__(mat)
        mat = mat.astype(np.int64)
        self.row0 = mat[0, 1:] if free else None
        if free:
            mat = mat[1:, 1:] - self.row0
        self.lo = np.minimum(mat, 0).sum(axis=1)  # each row's least value
        top = int(np.abs(mat).sum(axis=1).max())  # the widest row's range
        self.hi = self.lo + top
        self.pow = (top + 1) ** np.arange(mat.shape[0], dtype=np.int64)
        self.weights = self.pow @ mat  # pattern i's code sums these over i's set bits
        self.shifts = np.arange(mat.shape[1])

    @functools.cached_property
    def table(self):
        """All codes sorted, one per pattern of the looked-up columns, and each code's pattern."""
        codes = np.zeros(1, dtype=np.int64)
        for w in self.weights.tolist():
            codes = np.concatenate((codes, codes + w))
        patterns = np.argsort(codes, kind="stable")
        codes = codes[patterns]
        if np.any(codes[1:] == codes[:-1]):
            raise InternalConsistencyError(f"a {self.n_rows}x{self.n_cols} table block is not detecting")
        return codes, patterns

    def decode(self, meas):
        """Decode a (b, rows) batch to a (b, n_cols) batch of 0/1 vectors, or with
        ``free`` to vectors whose column 0 is any integer."""
        codes, patterns = self.table
        y = meas
        if self.row0 is not None:
            y = y[:, 1:] - y[:, :1]
        if (y < self.lo).any() or (y > self.hi).any():
            raise DecodeFailure("table-block measurements out of range")
        keys = y @ self.pow
        idx = np.searchsorted(codes, keys)
        if (codes.take(idx, mode="clip") != keys).any():
            raise DecodeFailure("no binary vector matches the measurements")
        x = (patterns[idx][:, None] >> self.shifts) & 1
        if self.row0 is not None:
            return np.column_stack((meas[:, 0] - x @ self.row0, x))
        return x


class _CantorMills(_Kind):
    """Cantor-Mills block A_k, k >= 4, its passes stopping at A_3 blocks whose
    column 0 ``leaf`` leaves free (see the module docstring)."""

    def __init__(self, mat, leaf):
        super().__init__(mat)
        self.leaf = leaf

    def decode(self, meas):
        """Decode a (b, rows) batch of block measurements to a (b, n_cols) batch."""
        y = meas
        passes = []
        while y.shape[1] > self.leaf.n_rows:
            m = y.shape[1] // 2
            top, mid = y[:, :m], y[:, m:]
            u = top + mid
            p = u[:, -1:] & 1  # |x2| mod 2, from the row without I'
            u -= p  # 2 * g + I'z
            z = u[:, :-1] & 1
            halves = np.empty((y.shape[0], 2, m), dtype=np.int64)
            g = np.right_shift(u, 1, out=halves[:, 0])
            np.subtract(top, g, out=halves[:, 1])
            halves[:, 1, :-1] -= z  # h = top - I'z - g
            y = halves.reshape(-1, m)
            passes.append((p[:, 0], z))
        x = self.leaf.decode(y)
        for p, z in reversed(passes):
            x = x.reshape(p.size, 2, -1)
            c = x[:, 1].sum(axis=1) - p  # g, h decoded x1 + c*e_0 and x2 - c*e_0
            x[:, 0, 0] -= c
            x[:, 1, 0] += c
            x = np.concatenate((x.reshape(p.size, -1), z), axis=1)
        if ((x < 0) | (x > 1)).any():
            raise DecodeFailure("a decoded entry lies outside 0/1")
        return x


def _cantor_mills_matrix(k):
    """A_k as a boolean matrix: A_1 = [[1, 0], [1, 1]], A_{j+1} = [[A_j, A_j, I'], [A_j, J - A_j, 0]]."""
    a = np.array([[1, 0], [1, 1]], dtype=bool)
    for _ in range(1, k):
        m = a.shape[0]
        eye = np.eye(m, m - 1, dtype=bool)  # I': no entry on the last row
        a = np.block([[a, a, eye], [a, ~a, np.zeros_like(eye)]])
    return a


@functools.cache
def _cantor_mills(k):
    """Block kind A_k, built on first use: a ``_Table`` up to A_3, above it a
    ``_CantorMills`` whose passes stop at the one free A_3 leaf."""
    if k <= 3:
        return _Table(_cantor_mills_matrix(k))
    return _CantorMills(_cantor_mills_matrix(k), _free_leaf())


@functools.cache
def _free_leaf():
    """A_3 with its column 0 left free, the one leaf of every A_k from A_4 up:
    a table of 2^12 codes, apart from the A_3 kind's 2^13."""
    return _Table(_cantor_mills_matrix(3), free=True)


# Each block kind a design may use, A_2..A_10 by column count, smallest first
# for _plan's ties: (row count, factory).
_KINDS = {k * 2 ** (k - 1) + 1: (2**k, functools.partial(_cantor_mills, k)) for k in range(2, 11)}

# The shared dynamic program: _fewest[N] rows for N columns, ending in a block
# of _last[N] columns (1: an identity column; more than N: a block of that
# kind cut to its first N columns).  Grown on demand.
_fewest = [0]
_last = [1]


def _plan(N):
    """A fewest-rows design for N columns: (full block counts by column count,
    and (column count, width) of the one cut block, or None)."""
    for n in range(len(_fewest), N + 1):
        best, last = _fewest[n - 1] + 1, 1
        # kinds ascend, so on a tie identity columns beat blocks, a smaller
        # kind a larger one, and a full block a cut one
        for cols, (rows, _) in _KINDS.items():
            if _fewest[max(0, n - cols)] + rows < best:
                best, last = _fewest[max(0, n - cols)] + rows, cols
        _fewest.append(best)
        _last.append(last)
    counts = {}
    while N >= _last[N]:
        counts[_last[N]] = counts.get(_last[N], 0) + 1
        N -= _last[N]
    return counts, ((_last[N], N) if N else None)


@dataclass(frozen=True)
class DetectingMatrix:
    """A binary query design whose measurement map is injective on {0,1}^n_cols.

    Its columns are ``_blocks`` (block, count) side by side, the largest
    block first, then ``_cut`` (block, width), the first ``width`` columns of
    one block wider than that, every row of it kept, if the design has one,
    then one identity row per remaining column.  Its rows are built once, on
    first use, and kept with the design, compactly (see ``_layout``); the cut
    block decodes in one batch with its kind's full blocks.
    """

    n_cols: int
    n_rows: int
    _blocks: tuple = field(repr=False)
    _cut: tuple = field(default=None, repr=False)

    @functools.cached_property
    def _layout(self):
        """(cols, bounds), built on first use from each block kind's flat rows.

        ``cols`` holds every row's column ids at offset 0, in the narrowest
        integer type that holds ``n_cols``, and ``bounds`` the read-only int64
        row bounds: each block's rows in turn, the cut block's rows, then one
        row per identity column.  Each row's ids ascend, so a cut row is its
        kind's ids below the width, in order.
        """
        cols, bounds = [], [np.zeros(1, dtype=np.int64)]
        base = end = 0
        for block, count in self._blocks:
            copies = np.arange(count, dtype=np.int64)
            cols.append((block.cols + (base + block.n_cols * copies)[:, None]).ravel())
            bounds.append((block.bounds[1:] + (end + block.cols.size * copies)[:, None]).ravel())
            base += count * block.n_cols
            end += count * block.cols.size
        if self._cut:
            block, width = self._cut
            lengths = block.prefix_lengths(width)
            cols.append(block.cols[block.cols < width] + base)
            bounds.append(np.cumsum(lengths) + end)
            base += width
            end += int(lengths.sum())
        cols.append(np.arange(base, self.n_cols, dtype=np.int64))
        bounds.append(np.arange(end + 1, end + self.n_cols - base + 1, dtype=np.int64))
        cols = np.concatenate(cols).astype(np.min_scalar_type(self.n_cols))
        bounds = np.concatenate(bounds)
        cols.flags.writeable = bounds.flags.writeable = False
        return cols, bounds

    def flat_rows(self, lo=0):
        """Every row's column ids plus ``lo`` as one block: (cols, bounds).

        ``cols`` is a fresh flat int64 array and row i is
        ``cols[bounds[i]:bounds[i + 1]]``: each block's rows in turn, the cut
        block's rows, then one row per identity column.  ``bounds``
        is the design's own read-only int64 array, shared by every call.
        """
        cols, bounds = self._layout
        return np.add(cols, lo, dtype=np.int64), bounds

    def measure(self, x):
        """Forward map: one subset sum per row (the test-side oracle).

        ``x`` must be an integer vector of length ``n_cols`` (UsageError
        otherwise).
        """
        x = _int_array(x, "x")
        if x.shape != (self.n_cols,):
            raise UsageError(f"expected a vector of length {self.n_cols}")
        cols, bounds = self.flat_rows()
        return np.add.reduceat(x[cols], bounds[:-1])  # no design row is empty

    def decode(self, measurements):
        """Invert the measurement map; raises DecodeFailure on inconsistent input.

        Measurements must be integers (UsageError otherwise).  A block kind's
        blocks are contiguous in rows and columns, so each kind decodes all of
        its blocks as one batch.  The cut block's measurements are its kind's
        rows with the missing columns zeros, so they join the batch of its
        kind's full blocks as the last row, or form a batch of their own; a
        decoded one in a missing column raises DecodeFailure.  The identity
        tail follows.
        """
        meas = _int_array(measurements, "measurements")
        if meas.shape != (self.n_rows,):
            raise DecodeFailure(f"expected {self.n_rows} measurements, got {meas.shape}")
        batches, pos = {}, 0
        for block, count in self._blocks:
            batches[block] = meas[pos : pos + count * block.n_rows].reshape(count, -1)
            pos += count * block.n_rows
        if self._cut:
            kind, width = self._cut
            cut = meas[None, pos : pos + kind.n_rows]
            pos += kind.n_rows
            full = batches.get(kind)
            batches[kind] = cut if full is None else np.concatenate((full, cut))
        decoded = {block: block.decode(batch) for block, batch in batches.items()}
        out = np.empty(self.n_cols, dtype=np.int64)
        col = 0
        for block, count in self._blocks:
            out[col : col + count * block.n_cols] = decoded[block][:count].ravel()
            col += count * block.n_cols
        if self._cut:
            x = decoded[kind][-1]
            if x[width:].any():
                raise DecodeFailure("a cut block decodes a one in a column it does not have")
            out[col : col + width] = x[:width]
            col += width
        tail = meas[pos:]
        if ((tail < 0) | (tail > 1)).any():
            raise DecodeFailure("identity-tail measurements must be 0/1")
        out[col:] = tail
        return out


def _matrix(blocks, cut, tail):
    """The DetectingMatrix of (block, count) ``blocks``, the ``cut`` block
    (block, width) or None, and ``tail`` identity columns."""
    n_cols = tail + sum(block.n_cols * count for block, count in blocks)
    n_rows = tail + sum(block.n_rows * count for block, count in blocks)
    if cut:
        n_cols += cut[1]
        n_rows += cut[0].n_rows
    return DetectingMatrix(n_cols, n_rows, tuple(blocks), cut)


@functools.cache
def _design(N):
    counts, cut = _plan(N)
    blocks = [(_KINDS[c][1](), counts[c]) for c in sorted(counts, reverse=True) if c > 1]
    return _matrix(blocks, cut and (_KINDS[cut[0]][1](), cut[1]), counts.get(1, 0))


def build_detecting_matrix(N):
    """Deterministic detecting design for N columns with the fewest rows the packing allows.

    Packs Cantor-Mills blocks A_2..A_10 (5 to 5121 columns) and identity
    columns, and may end in one block cut to the columns it has left (see
    the module docstring).  Row count is at most N.
    """
    _check_int(N, "N")
    if N < 1:
        raise UsageError("need at least one column")
    return _design(int(N))


# recover_sparse's expected-cost table covers sub-universes of up to this many
# columns; a larger one scales the band at the cap (see _takes_design).
_RULE_CAP = 1024


def _rows(s):
    """Rows of the design for s columns (the shared DP's count)."""
    _plan(s)
    return _fewest[s]


def _costs(s):
    """V(s, w) for w = 0..s as floats: the expected queries recover_sparse
    spends on s columns holding w randomly placed ones, once w is known."""
    head = _band(s)
    w = np.arange(s + 1)
    w = np.minimum(w, s - w)
    return np.where(w < head.size, head[np.minimum(w, head.size - 1)], _rows(s))


@functools.cache
def _band(s):
    """V(s, w) for w = 0..a(s) - 1, the ones too few for a design to pay off.

    The design is taken exactly for a(s) <= w <= s - a(s), where its rows are
    at most H(s, w), halving's expected cost: one query, then V of both
    halves under the hypergeometric law of the ones in the lower half.  V is
    H below a(s) and the design's rows inside the band.  H is computed for
    growing chunks of w until it first reaches the rows, so a size costs
    O(a(s)^2), not O(s^2).  A tie, to within 1e-9, takes the design.
    """
    half, rows = s // 2, _rows(s)
    head = np.zeros(1)
    if half == 0:
        return head
    c, f = s - half, half
    lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, s + 1)))))  # log k!
    vc, vf = _costs(c), _costs(f)
    w0, step = 1, 8
    while w0 <= half:
        w = np.arange(w0, min(w0 + step, half + 1))[:, None]
        lo = np.arange(w[-1, 0] + 1)[None, :]
        hi = np.maximum(w - lo, 0)
        log_p = lf[c] - lf[lo] - lf[c - lo] + lf[f] - lf[hi] - lf[f - hi] - (lf[s] - lf[w] - lf[s - w])
        p = np.exp(np.where(lo <= w, log_p, -np.inf))
        h = 1 + (p * (vc[lo] + vf[hi])).sum(axis=1)
        over = np.flatnonzero(h + 1e-9 >= rows)
        if over.size:
            return np.concatenate((head, h[: over[0]]))
        head = np.concatenate((head, h))
        w0, step = w0 + step, 2 * step
    return head


def _takes_design(s, w):
    """Whether recover_sparse asks a design for s columns holding w ones, 0 < w < s.

    Up to _RULE_CAP columns: w in the band [a(s), s - a(s)] of ``_band``.
    Above it: min(w, s - w) / s at least a(cap) / cap, the band's edge at the cap.
    """
    w = min(w, s - w)
    if s > _RULE_CAP:
        return w * _RULE_CAP >= _band(_RULE_CAP).size * s
    return w >= _band(s).size


def recover_sparse(N, sum_oracle, *, known_total=None):
    """Recover the support of an unknown x in {0,1}^N from a block sum-query callback.

    Returns the support, the indices of x's ones in ascending order, as an
    int64 array.  No query count comes back: a caller that wants one counts
    the rows its callback answers.

    ``sum_oracle(cols, bounds)`` answers one block of R sum queries: ``cols``
    is one flat int64 array of column ids in [0, N), row i is
    ``cols[bounds[i]:bounds[i + 1]]``, and it returns a sequence of the R
    integer sums of x over the rows, in row order.  Each row counts as one
    query.  Any other number of answers raises ProtocolError and an answer
    that is not an integer (a bool is not) UsageError, before anything is
    decoded.  A detecting design is one block, asked in one call; the root
    query and each halving query are one-row blocks.

    Adaptive halving (lower-index half first, odd splits give the extra
    element to the lower half), where each sub-universe of s columns known
    to hold w ones, 0 < w < s, is either halved or asked as one detecting
    design, whichever the expected-cost rule of the module docstring picks.

    The rule minimises expected cost for randomly placed ones; its worst
    case over every support is the bound halving alone keeps.  With
    m = min(w, N - w) for w ones, recovery after the root asks at most
    min(N - 1, sum over t < ceil(log2 N) of min(2^t, m)) queries, which is
    at most m * (log2(N/m) + 3).  Halving keeps it because depth t of the
    halving tree holds at most min(2^t, m) sub-universes with both a one and
    a zero.  A design replaces a subtree only where its rows are at most the
    subtree's expected cost, so at most that subtree's bound; above 1024
    columns the rows stay under the bound too (checked for every N up to
    2^17: at the fewest ones that take the design, its rows are at most 0.929
    of the bound, at N = 1803).  So the rule keeps the O(d log(k/d)) cost,
    for d ones among k columns, that halving gives the merges in the
    paper's O(n) argument.

    ``known_total`` skips the root query when the caller already knows the
    number of ones; the public contract with d unknown always spends the root
    query, so x = 0 costs exactly one query.  It must be an integer in
    [0, N] (UsageError before any query otherwise).

    Every input and answer check above is made here, once; the recovery
    itself runs in ``_recover_sparse``, which trusts its callback's answers.
    """
    _check_int(N, "N")
    if N < 0:
        raise UsageError("N must be nonnegative")
    if known_total is not None:
        _check_int(known_total, "known_total")
        if not 0 <= known_total <= N:
            raise UsageError(f"known_total must lie in [0, {N}], got {known_total}")
        known_total = int(known_total)

    def checked(cols, bounds):
        rows = len(bounds) - 1
        got = sum_oracle(cols, bounds)
        try:
            count = len(got)
        except TypeError:  # a scalar
            raise ProtocolError(f"sum oracle gave a {type(got).__name__}, not {rows} answers") from None
        if count != rows:
            raise ProtocolError(f"sum oracle gave {count} answers to a block of {rows} rows")
        # one C-level pass clears the usual all-int block; other answer types
        # (NumPy integers, or a bool to reject) take the per-answer rule
        if not {int}.issuperset(map(type, got)):
            for value in got:
                _check_int(value, "a sum-query answer")
        return got

    return _recover_sparse(int(N), checked, known_total)


def _recover_sparse(N, sum_oracle, total):
    """recover_sparse on checked inputs: ``sum_oracle`` returns exactly one
    integer answer per row, and ``total`` is the known number of ones in
    [0, N], or None to spend the root query."""

    def ask(lo, hi):
        row = np.arange(lo, hi, dtype=np.int64)
        return int(sum_oracle(row, np.array([0, row.size], dtype=np.int64))[0])

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
        if _takes_design(size, ones):
            matrix = build_detecting_matrix(size)
            bits = matrix.decode(sum_oracle(*matrix.flat_rows(lo)))
            if int(bits.sum()) != ones:
                raise DecodeFailure("decoded weight disagrees with the known sub-universe sum")
            support.extend((lo + np.flatnonzero(bits)).tolist())
            return
        mid = lo + (size + 1) // 2
        left = ask(lo, mid)
        solve(lo, mid, left)
        solve(mid, hi, ones - left)

    if total is None:
        total = ask(0, N) if N else 0
    solve(0, N, total)
    return np.asarray(support, dtype=np.int64)


def _row_sets(src, cols, bounds, fixed):
    """The query set ``src[row] ++ fixed`` of each row of a block, in row order.

    Row i is ``cols[bounds[i]:bounds[i + 1]]`` (the block contract of
    ``recover_sparse``); each set is one concatenate.
    """
    if len(bounds) == 2:
        yield np.concatenate((src[cols], fixed))
        return
    b = bounds.tolist()
    for i in range(len(b) - 1):
        yield np.concatenate((src[cols[b[i] : b[i + 1]]], fixed))


def _halve(lo, hi, in_upper):
    """The one index of the window [lo, hi) that a halving search singles out.

    Each step splits the window at ``mid = lo + (hi - lo + 1) // 2``, so the
    lower half gets the extra element of an odd window, and asks
    ``in_upper(lo, mid, hi)`` whether the index lies in [mid, hi).  A window
    of width w costs ceil(log2 w) questions; a 1-wide window costs none.
    """
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        if in_upper(lo, mid, hi):
            lo = mid
        else:
            hi = mid
    return lo


def recover_matching(x_side, y_side, add_oracle):
    """Learn the hidden perfect matching between X and Y from an add-query callback.

    Returns the matching as a dict from each X element to its Y partner, as
    ints.  No query count comes back: a caller that wants one counts the
    calls of its callback.

    Below ``MATCHING_SEARCH_CUTOFF`` (32) pairs each X element, in turn,
    binary-searches the Y elements not yet taken: at most ceil(log2 d) add
    queries each.

    From 32 pairs on, the sorted X elements get the ids 0..d-1, and P =
    ceil(log2 d) grouped bit planes learn each Y element's partner id.
    Before plane b the ids are known mod 2^b: group l holds the Y elements
    whose partner id is l mod 2^b, as many as there are candidate ids
    l, l + 2^b, ... below d, and w_l of those have bit b set.  A group with
    w_l = 0 is settled without a query (w_l is never the group's size: its
    candidate l has bit b clear).  In every other group the last member's bit
    is w_l minus the others' bits.  So plane b asks one ``recover_sparse``
    over the other members, d - 2^b columns, each sum query one add query of
    the row's Y elements plus the X elements whose id has bit b set; the
    columns' total is unknown, so it spends its root query.  A derived bit
    outside {0, 1} or a plane's decode failure raises ProtocolError, and so
    does a result that is not a bijection.

    Cost: plane b asks at most d - 2^b queries, so the planes ask at most
    P*d - 2^P + 1.  Over random permutations the mean is under 3*d: 185 at
    d = 64, 840 at d = 300 and 1947 at d = 700.  The derived bits leave no
    redundancy: a single wrong answer fails a decode or a derived bit, or
    yields another perfect matching of the two sides.

    Each side must hold distinct integer ids, the sides disjoint and of equal
    size, otherwise UsageError; so must each add answer be an integer.  These
    checks are made here, once; the learning runs in ``_recover_matching``,
    which trusts its sides and its callback's answers.
    """
    xs = np.sort(_int_array(x_side, "matching ids"))
    ys = np.sort(_int_array(y_side, "matching ids"))
    if xs.size != ys.size:
        raise UsageError("matching sides must have equal size")
    if (xs[1:] == xs[:-1]).any() or (ys[1:] == ys[:-1]).any():
        raise UsageError("a matching side must not repeat an id")
    if np.intersect1d(xs, ys).size:
        raise UsageError("matching sides must be disjoint")

    def checked(subset):
        value = add_oracle(subset)
        _check_int(value, "an add-query answer")
        return int(value)

    return _recover_matching(xs, ys, checked)


def _recover_matching(xs, ys, add_oracle):
    """recover_matching on checked inputs: ``xs`` and ``ys`` ascending int64
    arrays of equal size, each without a repeated id, disjoint, and
    ``add_oracle`` returning an int."""
    d = int(xs.size)
    if d == 0:
        return {}
    if d == 1:
        return {int(xs[0]): int(ys[0])}

    pairs = {}
    if d < MATCHING_SEARCH_CUTOFF:
        pool = ys.tolist()
        for x in xs.tolist():

            def in_upper(lo, mid, hi):
                # x's partner is in pool[lo:mid] iff x and that half hold a pair
                return not add_oracle(np.asarray([x] + pool[lo:mid], dtype=np.int64))

            pairs[x] = pool.pop(_halve(0, len(pool), in_upper))
        return pairs

    ids = np.arange(d, dtype=np.int64)
    partner_id = np.zeros(d, dtype=np.int64)  # bits below plane b, known before it
    for b in range(math.ceil(math.log2(d))):
        low, high = ids & ((1 << b) - 1), (ids >> b) & 1 == 1
        # group l: the Y elements whose partner id is l mod 2^b, as many as
        # there are such ids, ``ones[l]`` of them with bit b set
        size = np.bincount(low, minlength=1 << b)
        ones = np.bincount(low[high], minlength=1 << b)
        order = np.argsort(partner_id, kind="stable")  # Y positions, group by group
        last = np.cumsum(size) - 1
        asked = np.repeat(ones > 0, size)
        asked[last] = False  # each group's last bit follows from the others
        asked = order[asked]
        src, x_b = ys[asked], xs[high]
        try:
            support = _recover_sparse(
                asked.size, lambda cols, bounds: [add_oracle(s) for s in _row_sets(src, cols, bounds, x_b)], None
            )
        except DecodeFailure as exc:
            raise ProtocolError(f"bit-plane {b} decode failed: {exc}") from exc
        plane = np.zeros(d, dtype=np.int64)
        plane[asked[support]] = 1
        derived = ones - np.add.reduceat(plane[order], last + 1 - size)
        if np.any((derived < 0) | (derived > 1)):
            raise ProtocolError(f"bit-plane {b}: a group's last partner bit derives outside 0/1")
        plane[order[last]] = derived
        partner_id += plane << b
    if not np.array_equal(np.sort(partner_id), ids):
        raise ProtocolError("decoded partner ids are not a bijection")
    for j in range(d):
        pairs[int(xs[partner_id[j]])] = int(ys[j])
    return pairs
