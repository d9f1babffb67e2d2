import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprobe import (
    DecodeFailure,
    ProtocolError,
    UsageError,
    build_detecting_matrix,
    recover_matching,
    recover_sparse,
)
from rankprobe import weighing
from rankprobe.errors import InternalConsistencyError, InvariantViolation
from rankprobe.regression import load_regression_config
from rankprobe.weighing import _Table, _cantor_mills, _free_leaf, _halve, _row_sets

from _bruteforce import as_dense, family_block


# two blocks of each of three tiers (block kinds: Cantor-Mills A_8 and A_5,
# and the A_2 table), A_4 cut to 30 columns, then 2 identity columns.  Built
# by hand: once a design may end in a cut block, no fewest-rows design below
# 2^17 columns repeats more than two kinds.
MULTI_BLOCK = weighing._matrix(
    [(_cantor_mills(8), 2), (_cantor_mills(5), 2), (_cantor_mills(2), 2)], (_cantor_mills(4), 30), 2
)


def row_budget(n):
    return max(n, math.ceil(4 * n / math.log2(n))) if n >= 2 else n


def all_binary(n):
    return ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int64)


def rows_of(cols, bounds):
    """A block's rows, one column-id array each: row i is ``cols[bounds[i]:bounds[i + 1]]``."""
    return np.split(cols, bounds[1:-1])


def block_measure(block, x):
    """Row sums of a (b, n_cols) batch under a block kind's rows."""
    return np.stack([x[:, r].sum(axis=1) for r in rows_of(block.cols, block.bounds)], axis=1)


def check_round_trips(block, seed):
    """40 random vectors, all-zero and all-one among them, decode from their measurements."""
    rng = np.random.default_rng(seed)
    x = (rng.random((40, block.n_cols)) < rng.random((40, 1))).astype(np.int64)
    x[0], x[1] = 0, 1
    assert np.array_equal(block.decode(block_measure(block, x)), x)


def check_decodes_exactly_or_fails(block, seed):
    """One corrupt row: a value no 0/1 vector gives must fail, and a +-1 error
    decodes only to a vector that has exactly those measurements."""
    rng = np.random.default_rng(seed)
    meas = block_measure(block, (rng.random((1, block.n_cols)) < 0.5).astype(np.int64))
    sizes = np.diff(block.bounds)
    for r in range(block.n_rows):
        for bad in (-1, sizes[r] + 1, meas[0, r] - 1, meas[0, r] + 1):
            corrupt = meas.copy()
            corrupt[0, r] = bad
            try:
                x = block.decode(corrupt)
            except DecodeFailure:
                continue
            assert set(np.unique(x).tolist()) <= {0, 1}
            assert np.array_equal(block_measure(block, x), corrupt)


class TestFrozenBases:
    def test_small_kinds_and_every_leaf_are_tables(self):
        # one table per kind: every larger block ends in the same one
        assert all(isinstance(_cantor_mills(k), _Table) for k in (2, 3))
        assert all(_cantor_mills(k).leaf is _free_leaf() for k in range(4, 11))

    def test_one_cache_entry_per_block_kind(self):
        # the free leaf is its own table (2^12 codes), not the A_3 kind's (2^13)
        assert _cantor_mills(4) is _cantor_mills(4)
        assert _free_leaf() is not _cantor_mills(3)
        assert _free_leaf().table[0].size == 1 << 12
        assert _cantor_mills(3).table[0].size == 1 << 13

    @pytest.mark.parametrize(
        "block",
        [_Table(np.array([[1, 0]])), _Table(np.array([[1, 1, 0], [0, 0, 1]]))],
        ids=["d1", "equal-columns"],
    )
    def test_table_of_a_non_detecting_block_raises(self, block):
        # [[1, 0]], which never sees column 1, and two equal columns
        with pytest.raises(InternalConsistencyError, match="not detecting"):
            block.decode(np.zeros((1, block.n_rows), dtype=np.int64))


class TestFamily:
    """Cantor-Mills blocks A_k, k = 2..10: 2^k rows for k * 2^(k-1) + 1 columns."""

    def test_sizes(self):
        sizes = [(_cantor_mills(k).n_cols, _cantor_mills(k).n_rows) for k in range(2, 11)]
        assert sizes == [
            (5, 4), (13, 8), (33, 16), (81, 32), (193, 64), (449, 128), (1025, 256), (2305, 512), (5121, 1024)
        ]
        assert all(_cantor_mills(k).bounds.size == _cantor_mills(k).n_rows + 1 for k in range(2, 11))

    def test_built_as_defined(self):
        # against the recursion of tests/_bruteforce.py; column 0 is all ones
        for k in range(2, 11):
            block = _cantor_mills(k)
            want = family_block(block.n_cols)
            assert want.shape == (block.n_rows, block.n_cols) and want[:, 0].all()
            rows = [np.flatnonzero(r) for r in want]
            assert np.array_equal(block.cols, np.concatenate(rows))
            assert block.bounds.tolist() == [0] + np.cumsum([r.size for r in rows]).tolist()

    @pytest.mark.parametrize("k", [2, 3])
    def test_block_injective_exhaustive(self, k):
        block = _cantor_mills(k)
        x = all_binary(block.n_cols)
        meas = block_measure(block, x)
        assert len(np.unique(meas, axis=0)) == 1 << block.n_cols
        assert np.array_equal(block.decode(meas), x)

    def test_free_leaf_exhaustive(self):
        # A_3 with column 0 any integer: y - y_0 finds the other 12 columns
        x = np.repeat(all_binary(13), 4, axis=0)
        x[:, 0] += np.tile([-5, -1, 0, 3], 1 << 13)
        assert np.array_equal(_free_leaf().decode(block_measure(_free_leaf(), x)), x)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_level_round_trips(self, k):
        check_round_trips(_cantor_mills(k), k)
        block = _cantor_mills(k)
        rng = np.random.default_rng(k)
        for density in (0.05, 0.5, 0.95):
            x = (rng.random((3, block.n_cols)) < density).astype(np.int64)
            assert np.array_equal(block.decode(block_measure(block, x)), x)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_level_decodes_exactly_or_fails(self, k):
        check_decodes_exactly_or_fails(_cantor_mills(k), k)

    @pytest.mark.parametrize("bad", [2, -1])
    @pytest.mark.parametrize("pos", [0, 13, 33, 46])
    def test_leaf_column_0_outside_0_1_fails(self, pos, bad):
        # A_5 measures x with one entry 2 or -1 in a leaf's column 0: every
        # lookup finds binary columns, and the decode recovers x exactly, so
        # only the final 0/1 check stands between it and a wrong answer
        block = _cantor_mills(5)
        x = np.random.default_rng(pos).integers(0, 2, (1, 81))
        assert np.array_equal(block.decode(block_measure(block, x)), x)
        x[0, pos] = bad
        with pytest.raises(DecodeFailure, match="outside 0/1"):
            block.decode(block_measure(block, x))

    # every block kind a design may use, by column count: A_2..A_10
    @pytest.mark.parametrize("cols", list(weighing._KINDS))
    def test_cut_block_round_trips(self, cols):
        # a design may end in a block cut to its first j columns: every row
        # restricted to them, decoded with the missing columns zeros
        block = weighing._KINDS[cols][1]()
        rng = np.random.default_rng(block.n_cols)
        widths = {1, 2, 7, 8, block.n_cols // 2, block.n_cols - 2, block.n_cols - 1}
        for width in sorted(widths & set(range(1, block.n_cols))):
            m = weighing._matrix((), (block, width), 0)
            dense = as_dense(m)
            assert dense.shape == (m.n_rows, width) and dense.any(axis=1).all()
            x = (rng.random((12, width)) < rng.random((12, 1))).astype(np.int64)
            x[0], x[1] = 0, 1
            for v in x:
                assert np.array_equal(m.measure(v), dense @ v)
                assert np.array_equal(m.decode(dense @ v), v)

    def test_cut_block_exhaustive(self):
        # A_4 cut to 14 columns: a Cantor-Mills pass and the free leaf on
        # zero-padded measurements, every 0/1 vector
        m = weighing._matrix((), (_cantor_mills(4), 14), 0)
        x = all_binary(14)
        meas = x @ as_dense(m).T
        assert m.n_rows == 16 and len(np.unique(meas, axis=0)) == 1 << 14
        assert all(np.array_equal(m.decode(y), v) for y, v in zip(meas, x))

    def test_column_0_covers_every_row(self):
        # column 0 of every A_k is all ones, so a cut block keeps every row
        for cols, (rows, kind) in weighing._KINDS.items():
            block = kind()
            assert block.n_rows == rows and (block.cols[block.bounds[:-1]] == 0).all()
            assert (block.prefix_lengths(1) == 1).all()
            assert weighing._matrix((), (block, 1), 0).n_rows == rows

    @pytest.mark.parametrize("block", [_cantor_mills(4)], ids=["A_4"])
    def test_cut_block_one_in_a_missing_column_fails(self, block):
        # the whole block's measurements of a vector with a one past the cut:
        # the kind decodes it, and the cut rejects the one it cannot have
        m = weighing._matrix((), (block, 20), 0)
        x = (np.random.default_rng(2).random((1, block.n_cols)) < 0.5).astype(np.int64)
        x[0, 20:] = 0
        x[0, 25] = 1
        meas = block_measure(block, x)[0]
        assert np.array_equal(block.decode(meas[None, :]), x)
        with pytest.raises(DecodeFailure, match="column it does not have"):
            m.decode(meas)

    def test_cut_block_in_its_kinds_batch_one_in_a_missing_column_fails(self):
        # A_4 beside A_4 cut to 20 columns: the cut block decodes in one
        # batch with the full one and still rejects a one past the cut
        block = _cantor_mills(4)
        m = weighing._matrix([(block, 1)], (block, 20), 0)
        rng = np.random.default_rng(4)
        full, cut = (rng.random((2, block.n_cols)) < 0.5).astype(np.int64)
        cut[20:] = 0
        meas = np.concatenate((block_measure(block, full[None, :])[0], block_measure(block, cut[None, :])[0]))
        assert np.array_equal(m.decode(meas), np.concatenate((full, cut[:20])))
        cut[25] = 1
        meas = np.concatenate((block_measure(block, full[None, :])[0], block_measure(block, cut[None, :])[0]))
        with pytest.raises(DecodeFailure, match="column it does not have"):
            m.decode(meas)

    def test_cut_block_joins_its_kinds_batch(self, monkeypatch):
        # 63 columns are A_4 and A_4 cut to 30: one decode call of the kind
        m = build_detecting_matrix(63)
        block = _cantor_mills(4)
        assert (m._blocks, m._cut) == (((block, 1),), (block, 30))
        batches = []

        def decode(meas):
            batches.append(meas.shape)
            return type(block).decode(block, meas)

        monkeypatch.setattr(block, "decode", decode)
        x = (np.random.default_rng(63).random(63) < 0.5).astype(np.int64)
        assert np.array_equal(m.decode(m.measure(x)), x)
        assert batches == [(2, block.n_rows)]


class TestBuild:
    def test_n1_single_row(self):
        m = build_detecting_matrix(1)
        assert [r.tolist() for r in rows_of(*m.flat_rows())] == [[0]]

    def test_n2_identity(self):
        m = build_detecting_matrix(2)
        assert [r.tolist() for r in rows_of(*m.flat_rows())] == [[0], [1]]

    def test_n12_exhaustive_injectivity(self):
        m = build_detecting_matrix(12)
        dense = as_dense(m)
        x = ((np.arange(1 << 12)[:, None] >> np.arange(12)[None, :]) & 1).astype(np.int64)
        meas = x @ dense.T
        assert len(np.unique(meas, axis=0)) == 1 << 12

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 17, 100, 160, 512, 1440, 1500, 4096])
    def test_row_budget(self, n):
        m = build_detecting_matrix(n)
        assert m.n_rows <= row_budget(n)
        covered = np.zeros(n, dtype=bool)
        for r in rows_of(*m.flat_rows()):
            covered[r] = True
        assert covered.all()

    def test_sublinear_at_scale(self):
        assert build_detecting_matrix(1440).n_rows == 384
        assert build_detecting_matrix(4096).n_rows == 1016

    def test_never_more_rows_than_the_unseeded_family(self):
        # the fewest rows from identity columns and whole A_2..A_10 blocks
        # (``full``); with one block cut to the columns left (``cut``), the
        # shipped rows, which only ever save rows.  ``seeded`` also cuts and
        # packs the B16-seeded blocks D_1..D_7, kept here as sizes only: the
        # price of designs without them is at most 2 rows, at 967 sizes
        cantor_mills = {5: 4, 13: 8, 33: 16, 81: 32, 193: 64, 449: 128, 1025: 256, 2305: 512, 5121: 1024}
        with_seeded = cantor_mills | {16: 10, 42: 22, 106: 46, 258: 94, 610: 190, 1410: 382, 3202: 766}
        full, cut, seeded = [0], [0], [0]
        risen = 0
        for n in range(1, 4097):
            options = [full[n - c] + r for c, r in cantor_mills.items() if c <= n]
            full.append(min([full[n - 1] + 1] + options))
            for fewest, kinds in ((cut, cantor_mills), (seeded, with_seeded)):
                options = [fewest[max(0, n - c)] + r for c, r in kinds.items()]
                fewest.append(min([fewest[n - 1] + 1] + options))
            rows = build_detecting_matrix(n).n_rows
            assert rows == weighing._rows(n) == cut[n] <= full[n]
            assert seeded[n] <= rows <= seeded[n] + 2
            risen += rows > seeded[n]
            if n in (32, 64, 192, 1024, 1440, 2048):
                assert rows < full[n]
        assert risen == 967

    # n:rows:blocks, each block kind as columns x count, largest first, then
    # a cut block as columns "to" width
    BELOW_98 = """
        1:1: 2:2: 3:3: 4:4: 5:4:5x1 6:5:5x1 7:6:5x1 8:7:5x1 9:8:5x1 10:8:5x2 11:8:13to11 12:8:13to12
        13:8:13x1 14:9:13x1 15:10:13x1 16:11:13x1 17:12:13x1 18:12:13x1,5x1 19:13:13x1,5x1
        20:14:13x1,5x1 21:15:13x1,5x1 22:16:13x1,5x1 23:16:13x1,5x2 24:16:13x1,13to11 25:16:13x1,13to12
        26:16:13x2 27:16:33to27 28:16:33to28 29:16:33to29 30:16:33to30 31:16:33to31 32:16:33to32
        33:16:33x1 34:17:33x1 35:18:33x1 36:19:33x1 37:20:33x1 38:20:33x1,5x1 39:21:33x1,5x1
        40:22:33x1,5x1 41:23:33x1,5x1 42:24:33x1,5x1 43:24:33x1,5x2 44:24:13x1,33to31 45:24:13x1,33to32
        46:24:33x1,13x1 47:25:33x1,13x1 48:26:33x1,13x1 49:27:33x1,13x1 50:28:33x1,13x1
        51:28:33x1,13x1,5x1 52:29:33x1,13x1,5x1 53:30:33x1,13x1,5x1 54:31:33x1,13x1,5x1
        55:32:33x1,13x1,5x1 56:32:33x1,13x1,5x2 57:32:13x2,33to31 58:32:13x2,33to32 59:32:33x1,13x2
        60:32:33x1,33to27 61:32:33x1,33to28 62:32:33x1,33to29 63:32:33x1,33to30 64:32:33x1,33to31
        65:32:33x1,33to32 66:32:33x2 67:32:81to67 68:32:81to68 69:32:81to69 70:32:81to70 71:32:81to71
        72:32:81to72 73:32:81to73 74:32:81to74 75:32:81to75 76:32:81to76 77:32:81to77 78:32:81to78
        79:32:81to79 80:32:81to80 81:32:81x1 82:33:81x1 83:34:81x1 84:35:81x1 85:36:81x1 86:36:81x1,5x1
        87:37:81x1,5x1 88:38:81x1,5x1 89:39:81x1,5x1 90:40:81x1,5x1 91:40:81x1,5x2 92:40:13x1,81to79
        93:40:13x1,81to80 94:40:81x1,13x1 95:41:81x1,13x1 96:42:81x1,13x1 97:43:81x1,13x1
    """

    def test_below_98_columns_exact_structure(self):
        # every design below 98 columns: the kinds of 5, 13, 33 and 81
        # columns, a cut block of 13, 33 or 81, then an identity tail
        got = []
        for n in range(1, 98):
            m = build_detecting_matrix(n)
            blocks = [f"{b.n_cols}x{c}" for b, c in m._blocks]
            if m._cut:
                blocks.append(f"{m._cut[0].n_cols}to{m._cut[1]}")
            got.append(f"{n}:{m.n_rows}:" + ",".join(blocks))
        assert got == self.BELOW_98.split()

    def test_rows_built_as_asked(self):
        m = build_detecting_matrix(200)
        shifted = rows_of(*m.flat_rows(lo=1000))
        assert [r.tolist() for r in shifted] == [(1000 + r).tolist() for r in rows_of(*m.flat_rows())]
        assert all(r.dtype == np.int64 for r in shifted)

    @pytest.mark.parametrize("lo", [0, 1000])
    def test_flat_rows_match_definition(self, lo):
        # against the dense design built from the A_k recursion
        for m in [build_detecting_matrix(n) for n in range(1, 301)] + [MULTI_BLOCK]:
            cols, bounds = m.flat_rows(lo)
            rows = [lo + np.flatnonzero(r) for r in as_dense(m)]
            assert cols.dtype == bounds.dtype == np.int64
            assert bounds.tolist() == [0] + np.cumsum([r.size for r in rows]).tolist()
            assert np.array_equal(cols, np.concatenate(rows))
            assert (np.diff(bounds) > 0).all()  # np.add.reduceat needs nonempty rows
            assert m.n_rows == len(rows)

    # 256 is A_5 twice beside A_6 cut to 190 columns; 300 packs three kinds,
    # A_3 twice; 700 ends in A_7 cut to 448 columns, 2925 in A_9 cut to 2283,
    # 6901 in A_10 cut to 5120 after five kinds, and 6957 in A_10 cut to 5097
    # after A_8, A_7 and A_6 twice
    @pytest.mark.parametrize(
        "n", [1, 15, 16, 17, 100, 256, 300, 700, 1440, 2224, 2925, 6901, 6957, 4096]
    )
    def test_measure_is_the_dense_product(self, n):
        m = build_detecting_matrix(n)
        dense = as_dense(m)
        rng = np.random.default_rng(n)
        for density in (0.0, 0.3, 1.0):
            x = (rng.random(n) < density).astype(np.int64)
            got = m.measure(x)
            assert got.dtype == np.int64 and np.array_equal(got, dense @ x)

    @pytest.mark.parametrize(
        "bad",
        [[0.7] * 20, np.full(20, 1.0), np.ones(20, dtype=bool)],
        ids=["float-list", "float-array", "bool-array"],
    )
    def test_measure_rejects_non_integers(self, bad):
        # a float list once measured as zeros, and a bool vector was accepted
        with pytest.raises(UsageError, match="integers"):
            build_detecting_matrix(20).measure(bad)

    def test_measure_rejects_wrong_length(self):
        with pytest.raises(UsageError, match="length 20"):
            build_detecting_matrix(20).measure([0] * 19)

    def test_returned_rows_do_not_touch_the_design(self):
        # the rows are kept per design: the ids come back as a fresh array,
        # the bounds as the design's own read-only one
        m = build_detecting_matrix(300)
        cols, bounds = m.flat_rows(7)
        want_cols, want_bounds = cols.copy(), bounds.copy()
        cols[:] = -1
        with pytest.raises(ValueError, match="read-only"):
            bounds[1] = 0
        again = m.flat_rows(7)
        assert np.array_equal(again[0], want_cols) and np.array_equal(again[1], want_bounds)
        assert again[0] is not cols and np.array_equal(m.flat_rows()[0], want_cols - 7)

    # the kept column ids take the narrowest integer type that holds n_cols
    @pytest.mark.parametrize(
        "n,dtype",
        [(255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32)],
    )
    def test_rows_round_trip_on_both_sides_of_a_width(self, n, dtype):
        m = build_detecting_matrix(n)
        assert m._layout[0].dtype == dtype
        cols, bounds = m.flat_rows(70000)
        assert cols.dtype == bounds.dtype == np.int64
        assert cols.min() == 70000 and cols.max() == 70000 + n - 1
        x = (np.random.default_rng(n).random(n) < 0.3).astype(np.int64)
        meas = m.measure(x)
        assert np.array_equal(meas, np.add.reduceat(np.append(np.zeros(70000, np.int64), x)[cols], bounds[:-1]))
        assert np.array_equal(m.decode(meas), x)

    def test_deterministic(self):
        a = build_detecting_matrix(100)
        b = build_detecting_matrix(100)
        assert a is b or all(np.array_equal(u, v) for u, v in zip(a.flat_rows(), b.flat_rows()))


class TestDecode:
    def test_all_zero(self):
        m = build_detecting_matrix(40)
        assert m.decode(np.zeros(m.n_rows, dtype=np.int64)).tolist() == [0] * 40

    def test_all_ones(self):
        m = build_detecting_matrix(40)
        sizes = np.diff(m.flat_rows()[1])
        assert m.decode(sizes).tolist() == [1] * 40

    @pytest.mark.parametrize("n", [16, 31, 98, 160, 200, 1440, 1600])
    def test_round_trips(self, n):
        m = build_detecting_matrix(n)
        dense = as_dense(m)
        rng = np.random.default_rng(n)
        for _ in range(60):
            x = (rng.random(n) < rng.random()).astype(np.int64)
            assert np.array_equal(m.decode(dense @ x), x)

    def test_inconsistent_measurements_fail(self):
        m = build_detecting_matrix(64)
        bad = np.full(m.n_rows, 10**6, dtype=np.int64)
        with pytest.raises(DecodeFailure):
            m.decode(bad)

    def test_wrong_length_fails(self):
        m = build_detecting_matrix(64)
        with pytest.raises(DecodeFailure):
            m.decode(np.zeros(3, dtype=np.int64))

    @pytest.mark.parametrize("n", [64, 1440])
    def test_non_integer_measurements_rejected(self, n):
        # D @ x + 0.4 used to truncate to the right answer
        m = build_detecting_matrix(n)
        x = (np.random.default_rng(n).random(n) < 0.5).astype(np.int64)
        meas = as_dense(m) @ x
        for bad in (meas + 0.4, meas.astype(np.float64), meas.astype(bool)):
            with pytest.raises(UsageError, match="integers"):
                m.decode(bad)

    def test_multi_block_tiers_round_trip(self):
        # every tier decodes a batch of several blocks, then the cut block and
        # the identity tail
        m = MULTI_BLOCK
        blocks = [(tier.n_cols, count) for tier, count in m._blocks]
        assert blocks == [(1025, 2), (81, 2), (5, 2)]
        dense = as_dense(m)
        rng = np.random.default_rng(m.n_cols)
        for density in (0.0, 0.05, 0.3, 0.5, 0.8, 1.0):
            x = (rng.random(m.n_cols) < density).astype(np.int64)
            assert np.array_equal(m.measure(x), dense @ x)
            assert np.array_equal(m.decode(m.measure(x)), x)

    @pytest.mark.parametrize("tier", [0, 1, 2], ids=["t3", "t2", "t1"])
    def test_corrupt_second_block_fails(self, tier):
        m = MULTI_BLOCK
        start = sum(t.n_rows * count for t, count in m._blocks[:tier])
        block_rows = m._blocks[tier][0].n_rows
        sizes = np.diff(m.flat_rows()[1])
        x = (np.random.default_rng(tier).random(m.n_cols) < 0.5).astype(np.int64)
        meas = m.measure(x)
        for r in (start + block_rows, start + block_rows + block_rows // 2, start + 2 * block_rows - 1):
            # no 0/1 vector measures -1 or more than the row's size
            for bad in (-1, sizes[r] + 1):
                corrupt = meas.copy()
                corrupt[r] = bad
                with pytest.raises(DecodeFailure):
                    m.decode(corrupt)

    def test_off_by_one_decodes_exactly_or_fails(self):
        # a +-1 error may land on another vector's measurements; decode then
        # returns that vector, never one that disagrees with its input
        m = MULTI_BLOCK
        rng = np.random.default_rng(7)
        failures = 0
        for _ in range(30):
            meas = m.measure((rng.random(m.n_cols) < 0.5).astype(np.int64))
            meas[rng.integers(m.n_rows)] += rng.choice([-1, 1])
            try:
                x = m.decode(meas)
            except DecodeFailure:
                failures += 1
                continue
            assert set(np.unique(x).tolist()) <= {0, 1}
            assert np.array_equal(m.measure(x), meas)
        assert failures > 0

    @settings(max_examples=40, derandomize=True)
    @given(st.integers(min_value=1, max_value=220), st.integers(0, 2**31))
    def test_round_trip_random_sizes(self, n, seed):
        m = build_detecting_matrix(n)
        x = (np.random.default_rng(seed).random(n) < 0.4).astype(np.int64)
        assert np.array_equal(m.decode(m.measure(x)), x)


def counting_oracle(support):
    """A block sum callback: each row's count of ids in ``support``.

    ``ask.queries`` counts the rows it has answered, one query each, and
    ``ask.calls`` the blocks.
    """
    sup = set(int(v) for v in support)

    def ask(cols, bounds):
        ids, b = cols.tolist(), bounds.tolist()
        ask.queries += len(b) - 1
        ask.calls += 1
        return [sum(1 for i in ids[b[r] : b[r + 1]] if i in sup) for r in range(len(b) - 1)]

    ask.queries = ask.calls = 0
    return ask


def reduceat_oracle(n, support):
    """counting_oracle through one np.add.reduceat per block; ``ask.queries``
    counts the rows it has answered."""
    x = np.zeros(n, dtype=np.int64)
    x[support] = 1

    def ask(cols, bounds):
        ask.queries += len(bounds) - 1
        return np.add.reduceat(x[cols], bounds[:-1]).tolist()

    ask.queries = 0
    return ask


def halving_bound(n, w):
    """Queries after the root that halving can ask for w ones in n columns:
    depth t holds at most min(2^t, m) sub-universes with both a one and a
    zero, m = min(w, n - w), and no more than n - 1 in all."""
    m = min(w, n - w)
    return min(n - 1, sum(min(1 << t, m) for t in range((n - 1).bit_length())))


class TestRecoverSparse:
    def test_zero_vector_one_query(self):
        ask = counting_oracle([])
        support = recover_sparse(100, ask)
        assert support.dtype == np.int64 and support.tolist() == []
        assert ask.queries == 1

    def test_single_element_binary_descent(self):
        ask = counting_oracle([3])
        assert recover_sparse(8, ask).tolist() == [3]
        assert ask.queries <= 1 + 3
        assert ask.queries == ask.calls  # one-row blocks only: no design asked

    def test_exhaustive_small_universes(self):
        # every support, within the worst-case bound of the docstring
        for n in range(1, 13):
            for code in range(2**n):
                support = [e for e in range(n) if (code >> e) & 1]
                ask = counting_oracle(support)
                assert recover_sparse(n, ask).tolist() == support
                assert ask.queries <= 1 + halving_bound(n, len(support))

    def test_packed_supports_within_the_worst_case_bound(self):
        # all ones at one end: halving meets them in one half at every step
        for n in range(2, 257):
            for w in range(1, n, max(1, n // 24)):
                for support in (np.arange(w), np.arange(n - w, n)):
                    ask = reduceat_oracle(n, support)
                    assert recover_sparse(n, ask).tolist() == support.tolist()
                    assert ask.queries <= 1 + halving_bound(n, w)

    def test_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(10_000):
            n = int(rng.integers(1, 120))
            d = int(rng.integers(0, n + 1))
            support = sorted(rng.choice(n, size=d, replace=False).tolist())
            assert recover_sparse(n, counting_oracle(support)).tolist() == support

    def test_frozen_budgets(self):
        config = load_regression_config()
        for n, d in ((4096, 64), (1024, 32), (256, 16)):
            budget = config.sparse_budget(n, d)
            for seed in range(10):
                rng = np.random.default_rng(seed)
                support = rng.choice(n, size=d, replace=False)
                ask = counting_oracle(support)
                assert sorted(recover_sparse(n, ask).tolist()) == sorted(support.tolist())
                assert ask.queries <= budget

    def test_known_total_skips_root(self):
        ask = counting_oracle([5])
        assert recover_sparse(64, ask, known_total=1).tolist() == [5]
        assert ask.queries <= 6

    @pytest.mark.parametrize(
        "n,d",
        [(64, 40), (1024, 300), (4096, 1100), (2925, 900), (2224, 600), (6901, 1800), (6957, 1800)],
    )
    def test_one_callback_per_design(self, n, d, monkeypatch):
        # a design's rows reach the callback as one block, in flat_rows order;
        # every other block is one halving or root row
        designs = []

        def counting_build(size):
            designs.append(size)
            return build_detecting_matrix(size)

        monkeypatch.setattr(weighing, "build_detecting_matrix", counting_build)
        blocks = []
        ask = counting_oracle(np.random.default_rng(n).choice(n, size=d, replace=False))

        def block(cols, bounds):
            blocks.append((cols.copy(), bounds.copy()))
            return ask(cols, bounds)

        recover_sparse(n, block)
        designs_asked = [(c, b) for c, b in blocks if b.size > 2]
        assert len(designs_asked) == len(designs) > 0
        for (cols, bounds), size in zip(designs_asked, designs):
            m = build_detecting_matrix(size)
            want_cols, want_bounds = m.flat_rows(int(cols.min()))
            assert bounds.size == m.n_rows + 1
            assert np.array_equal(cols, want_cols) and np.array_equal(bounds, want_bounds)

    # (n, support, known_total): the root query is a one-row block; 40 ones
    # in 64 columns go straight to one design block
    BLOCKS = {"one-row": (8, [3, 5], None), "design": (64, list(range(24, 64)), 40)}

    @pytest.mark.parametrize(
        "corrupt",
        [lambda a: a[:-1], lambda a: a + [0], lambda a: np.int64(sum(a))],
        ids=["missing", "extra", "scalar"],
    )
    @pytest.mark.parametrize("kind", BLOCKS)
    def test_answer_count_is_checked(self, kind, corrupt):
        # the one-row path read answers[0] (IndexError, or an extra answer
        # ignored), and a design block failed to decode, blaming the data
        n, support, total = self.BLOCKS[kind]
        ask = counting_oracle(support)
        with pytest.raises(ProtocolError, match="answers"):
            recover_sparse(n, lambda cols, bounds: corrupt(ask(cols, bounds)), known_total=total)

    @pytest.mark.parametrize(
        "corrupt",
        [lambda a: [v + 0.5 for v in a], lambda a: [float(v) for v in a], lambda a: np.asarray(a, dtype=float)],
        ids=["fractional", "float", "float-array"],
    )
    @pytest.mark.parametrize("kind", BLOCKS)
    def test_non_integer_answers_rejected(self, kind, corrupt):
        # the one-row path truncated float answers with int()
        n, support, total = self.BLOCKS[kind]
        ask = counting_oracle(support)
        with pytest.raises(UsageError, match="integer"):
            recover_sparse(n, lambda cols, bounds: corrupt(ask(cols, bounds)), known_total=total)

    @pytest.mark.parametrize("true", [True, np.True_], ids=["bool", "numpy-bool"])
    @pytest.mark.parametrize("kind", BLOCKS)
    def test_bool_answers_rejected(self, kind, true):
        # a design block read its answers through np.asarray, so a list
        # mixing True and ints decoded as if True were 1
        n, support, total = self.BLOCKS[kind]
        ask = counting_oracle(support)
        swapped = []

        def with_bools(cols, bounds):
            answers = [true if v == 1 else v for v in ask(cols, bounds)]
            swapped.extend(v is true for v in answers)
            return answers

        with pytest.raises(UsageError, match="integer"):
            recover_sparse(n, with_bools, known_total=total)
        assert any(swapped)

    def test_query_count_monotone_in_d(self):
        n = 1024
        ds = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
        means = []
        for d in ds:
            samples = []
            for seed in range(8):
                rng = np.random.default_rng(seed * 1000 + d)
                support = rng.choice(n, size=d, replace=False)
                ask = counting_oracle(support)
                recover_sparse(n, ask)
                samples.append(ask.queries)
            means.append(np.mean(samples))
        # Spearman rank correlation between d and mean query count
        xr = np.argsort(np.argsort(ds)).astype(float)
        yr = np.argsort(np.argsort(means)).astype(float)
        rho = np.corrcoef(xr, yr)[0, 1]
        assert rho > 0.9


# log k! for k = 0..RULE_CAP
LOG_FACTORIAL = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, weighing._RULE_CAP + 1)))))


def scaled_binomials(n):
    """C(n, k) / C(n, n // 2) for k = 0..n: at most 1, and a normal float for n <= 1024."""
    k = np.arange(n + 1)
    lf = LOG_FACTORIAL
    return np.exp(lf[n // 2] + lf[n - n // 2] - lf[k] - lf[n - k])


def halving_costs(s):
    """H(s, w) for w = 0..s from the shipped V of both halves, as the
    convolutions sum_l C(c, l) C(f, w - l) (V(c, l) + V(f, w - l)) / C(s, w)
    of the scaled binomials (Vandermonde: their plain convolution is C(s, w))."""
    c, f = s - s // 2, s // 2
    bc, bf = scaled_binomials(c), scaled_binomials(f)
    bs = np.convolve(bc, bf)
    return 1 + (np.convolve(bc * weighing._costs(c), bf) + np.convolve(bc, bf * weighing._costs(f))) / bs


def exact_costs(top):
    """V(s, w) as Fractions for every s <= top, by the rule's definition."""
    costs = [[Fraction(0)]]
    for s in range(1, top + 1):
        c, f, rows = s - s // 2, s // 2, weighing._rows(s)
        row = [Fraction(0)]
        for w in range(1, s):
            h = 1 + sum(
                Fraction(math.comb(c, l) * math.comb(f, w - l), math.comb(s, w)) * (costs[c][l] + costs[f][w - l])
                for l in range(max(0, w - f), min(c, w) + 1)
            )
            row.append(min(Fraction(rows), h))
        costs.append(row + [Fraction(0)])
    return costs


class TestDesignRule:
    """recover_sparse asks a design on s columns holding w ones exactly when
    the design's rows are at most halving's expected cost H(s, w)."""

    # a(s), the band's lower edge; a(s) = s // 2 + 1 is an empty band
    EDGES = {12: 5, 15: 6, 16: 9, 20: 9, 25: 9, 32: 6, 64: 14, 128: 20, 215: 23, 256: 28, 512: 42, 1024: 60}

    def test_pinned_edges(self):
        assert {s: weighing._band(s).size for s in self.EDGES} == self.EDGES

    def test_matches_exact_fractions(self):
        # the shipped float table against the definition in exact arithmetic
        costs = exact_costs(40)
        for s in range(1, 41):
            rows = weighing._rows(s)
            edge = next((w for w in range(1, s // 2 + 1) if costs[s][w] == rows), s // 2 + 1)
            head = weighing._band(s)
            assert head.size == edge
            assert np.allclose(head, [float(v) for v in costs[s][:edge]], rtol=1e-12)

    def test_band_is_one_symmetric_interval(self):
        # every w of every s up to the cap, against the table's prefix and edge
        for s in range(2, weighing._RULE_CAP + 1):
            h = halving_costs(s)
            head = weighing._band(s)
            design = np.flatnonzero(h[1:s] + 1e-9 >= weighing._rows(s)) + 1
            assert design.tolist() == list(range(head.size, s - head.size + 1))
            assert np.allclose(h[1 : head.size], head[1:], rtol=1e-9)

    def test_above_the_cap_the_edge_scales(self):
        # a(1024) = 60, so 2048 columns take the design from 120 ones (or zeros)
        takes = weighing._takes_design
        assert [takes(2048, w) for w in (119, 120, 1928, 1929)] == [False, True, True, False]
        assert [takes(65536, w) for w in (3839, 3840)] == [False, True]

    def test_design_rows_within_the_halving_bound(self):
        # the worst case of recover_sparse's docstring: a design's rows never
        # exceed halving's bound at the smallest w that takes it
        for s in range(2, 4097):
            w = next((w for w in range(1, s // 2 + 1) if weighing._takes_design(s, w)), None)
            if w is not None:
                assert weighing._rows(s) <= halving_bound(s, w)

    def test_table_build_memory(self):
        # the early stop keeps every size's work O(a(s)^2): a full H matrix per
        # size peaked near 10 MB
        weighing._band.cache_clear()
        tracemalloc.start()
        try:
            for s in range(1, weighing._RULE_CAP + 1):
                weighing._band(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024


class TestRowSets:
    @staticmethod
    def expected(src, cols, bounds, fixed):
        return [np.concatenate((src[cols[a:b]], fixed)) for a, b in zip(bounds[:-1], bounds[1:])]

    def check(self, src, cols, bounds, fixed):
        got = list(_row_sets(src, cols, np.asarray(bounds, dtype=np.int64), fixed))
        want = self.expected(src, cols, bounds, fixed)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and g.tobytes() == w.tobytes()

    def random_block(self, rng, rows, max_row, n_fixed):
        ids = rng.permutation(4 * (max_row + n_fixed) + 8).astype(np.int64)
        src, fixed = ids[: 2 * max_row + 4], ids[-n_fixed:] if n_fixed else ids[:0]
        lens = rng.integers(1, max_row + 1, rows)
        cols = np.concatenate([rng.choice(src.size, size=k, replace=False) for k in lens])
        bounds = np.concatenate(([0], np.cumsum(lens)))
        return src, cols.astype(np.int64), bounds, fixed

    @pytest.mark.parametrize("seed", range(6))
    def test_random_blocks(self, seed):
        rng = np.random.default_rng(seed)
        for n_fixed in (0, 1, 37, 900):
            self.check(*self.random_block(rng, int(rng.integers(2, 60)), 400, n_fixed))

    def test_one_row_blocks(self):
        rng = np.random.default_rng(1)
        for n_fixed in (0, 5, 2000):
            self.check(*self.random_block(rng, 1, 3000, n_fixed))


def matching_oracle(partner):
    """An add callback: the pairs of ``partner`` inside a set; ``add.queries``
    counts its calls."""

    def add(subset):
        add.queries += 1
        ss = set(int(v) for v in np.asarray(subset).tolist())
        return sum(1 for a, b in partner.items() if a in ss and b in ss)

    add.queries = 0
    return add


def random_matching(d, seed):
    """X = 0..d-1 and Y = d..2d-1 matched by a seeded permutation: (xs, ys,
    partner, add), where ``add`` counts the pairs inside a set in O(|set|)
    and ``add.queries`` its calls."""
    rng = np.random.default_rng(seed)
    xs = np.arange(d)
    ys = np.arange(d, 2 * d)
    perm = rng.permutation(d)
    partner = {int(xs[perm[j]]): int(ys[j]) for j in range(d)}
    pair_arr = np.full(2 * d, -1, dtype=np.int64)
    for a, b in partner.items():
        pair_arr[a] = b
        pair_arr[b] = a

    def add(subset):
        add.queries += 1
        arr = np.asarray(subset, dtype=np.int64)
        mask = np.zeros(2 * d, dtype=bool)
        mask[arr] = True
        return int(np.count_nonzero(mask[arr] & mask[pair_arr[arr]])) // 2

    add.queries = 0
    return xs, ys, partner, add


RANKPROBE_ERRORS = (UsageError, DecodeFailure, ProtocolError, InternalConsistencyError, InvariantViolation)


class TestHalve:
    @pytest.mark.parametrize("lo", [0, 5])
    def test_exhaustive_windows(self, lo):
        for size in range(1, 66):
            for target in range(lo, lo + size):
                asked = []

                def in_upper(a, mid, b):
                    assert a < mid < b and mid - a == (b - a + 1) // 2
                    asked.append((a, mid, b))
                    return target >= mid

                assert _halve(lo, lo + size, in_upper) == target
                assert len(asked) <= math.ceil(math.log2(size))
        assert _halve(7, 8, None) == 7  # a 1-wide window asks nothing


class TestRecoverMatching:
    def test_single_pair_zero_queries(self):
        add = matching_oracle({4: 9})
        assert recover_matching([4], [9], add) == {4: 9}
        assert add.queries == 0

    def test_two_pairs_one_query(self):
        partner = {0: 2, 1: 3}
        add = matching_oracle(partner)
        assert recover_matching([0, 1], [2, 3], add) == partner
        assert add.queries == 1

    def test_exhaustive_up_to_4(self):
        for d in range(1, 5):
            xs = list(range(d))
            ys = list(range(d, 2 * d))
            for perm in permutations(range(d)):
                partner = {xs[perm[j]]: ys[j] for j in range(d)}
                assert recover_matching(xs, ys, matching_oracle(partner)) == partner

    @pytest.mark.parametrize("d", [32, 256, 1024])
    def test_large_random_within_budget(self, d):
        limit = load_regression_config().value("c_match") * d
        for seed in range(3):
            xs, ys, partner, add = random_matching(d, seed)
            assert recover_matching(xs, ys, add) == partner
            assert add.queries <= limit

    def test_grouped_planes_every_size(self):
        # every d from the cutoff to 160, then around powers of two, where the
        # last plane's groups are all pairs (256) or mostly settled (257)
        limit = load_regression_config().value("c_match")
        for d in [*range(weighing.MATCHING_SEARCH_CUTOFF, 161), 255, 256, 257, 511, 513, 1024]:
            xs, ys, partner, add = random_matching(d, d)
            assert recover_matching(xs, ys, add) == partner, d
            assert add.queries <= limit * d, d

    @pytest.mark.parametrize(
        "d,queries",
        [(32, 81), (33, 83), (64, 176), (100, 263), (256, 682), (300, 829)],
        ids=["32", "33", "64", "100", "256", "300"],
    )
    def test_pinned_query_counts(self, d, queries):
        # all planes over all d columns asked 100, 110, 222, 336, 832 and 1044
        # with the first design family; grouped planes over it, 94, 101, 191,
        # 313, 785 and 910; over A_k without cut blocks, 89, 93, 185, 265, 706
        # and 840; with cut blocks of A_k and the B16-seeded family, 79, 81,
        # 175, 262, 674 and 822
        xs, ys, partner, add = random_matching(d, 0)
        assert (recover_matching(xs, ys, add), add.queries) == (partner, queries)

    @pytest.mark.parametrize("d", [32, 33, 100, 256, 257])
    def test_plane_b_recovers_d_minus_2_to_the_b_columns(self, d, monkeypatch):
        # before plane b the partner ids are known mod 2^b: one bit per residue
        # group follows from the group's count, and groups without a candidate
        # that has bit b set need no query
        sizes = []

        core = weighing._recover_sparse

        def recording(n, sum_oracle, total):
            assert total is None  # the root query is spent: the total is unknown
            sizes.append(n)
            return core(n, sum_oracle, total)

        monkeypatch.setattr(weighing, "_recover_sparse", recording)
        xs, ys, partner, add = random_matching(d, 1)
        assert recover_matching(xs, ys, add) == partner
        assert sizes == [d - 2**b for b in range(math.ceil(math.log2(d)))]

    @pytest.mark.parametrize("d", [40, 100])
    def test_one_faulty_answer(self, d):
        # shift one add answer by +-1 at each query index in turn: a perfect
        # matching of the given sides or a rankprobe error, nothing else
        xs, ys, partner, add = random_matching(d, 5)
        recover_matching(xs, ys, add)
        honest = add.queries
        errors = 0
        for index in range(honest):
            for shift in (-1, 1):
                asked = [0]

                def faulty(subset):
                    asked[0] += 1
                    return add(subset) + (shift if asked[0] == index + 1 else 0)

                try:
                    pairs = recover_matching(xs, ys, faulty)
                except RANKPROBE_ERRORS:
                    errors += 1
                    continue
                assert sorted(pairs) == xs.tolist() and sorted(pairs.values()) == ys.tolist()
        assert errors > 0

    def test_derived_bit_outside_0_1_raises(self):
        # an oracle that puts every Y partner in the odd ids: plane 0 recovers
        # d - 1 ones, so the single group's last bit derives as d//2 - (d - 1)
        d = 40
        ys = list(range(d, 2 * d))
        with pytest.raises(ProtocolError, match="bit-plane 0: a group's last partner bit derives outside 0/1"):
            recover_matching(list(range(d)), ys, lambda s: int(np.count_nonzero(np.asarray(s) >= d)))

    def test_mid_sizes_random(self):
        for d in (5, 12, 31, 33, 100, 513):
            rng = np.random.default_rng(d)
            xs = np.arange(d)
            ys = np.arange(d, 2 * d)
            perm = rng.permutation(d)
            partner = {int(xs[perm[j]]): int(ys[j]) for j in range(d)}
            assert recover_matching(xs, ys, matching_oracle(partner)) == partner

    def test_not_a_matching_raises(self):
        # everyone claims the same partner: bit planes cannot form a bijection
        def add(subset):
            ss = set(int(v) for v in np.asarray(subset).tolist())
            return sum(1 for y in range(40, 80) if y in ss and 0 in ss)

        with pytest.raises(ProtocolError):
            recover_matching(list(range(40)), list(range(40, 80)), add)

    def test_size_mismatch(self):
        with pytest.raises(UsageError):
            recover_matching([0, 1], [2], lambda s: 0)

    def test_overlap_rejected(self):
        with pytest.raises(UsageError):
            recover_matching([0, 1], [1, 2], lambda s: 0)

    def test_repeated_id_rejected(self):
        asked = []
        for xs, ys in (([0, 0], [1, 2]), ([1, 2], [0, 0]), ([5] * 40, list(range(40)))):
            with pytest.raises(UsageError, match="repeat"):
                recover_matching(xs, ys, asked.append)
        assert asked == []

    @pytest.mark.parametrize("d", [8, 40], ids=["search", "bit-planes"])
    @pytest.mark.parametrize("one", [0.9, 1.0, np.float64(1)], ids=["0.9", "1.0", "float64"])
    def test_non_integer_add_answers_rejected(self, d, one):
        # answering 0.9 for 1 was truncated to 0, and d = 8 returned a wrong
        # matching without an error
        xs = list(range(d))
        ys = list(range(100, 100 + d))
        add = matching_oracle({x: 100 + 3 * x % d for x in xs})
        with pytest.raises(UsageError, match="add-query answer"):
            recover_matching(xs, ys, lambda s: one if add(s) == 1 else add(s))

    def test_non_integer_ids_rejected(self):
        asked = []
        for xs, ys in (([0.7, 1.2], [2.9, 3.1]), ([0, 1], [2.0, 3.0]), ([True, False], [2, 3])):
            with pytest.raises(UsageError, match="integers"):
                recover_matching(xs, ys, asked.append)
        assert asked == []

    def test_bool_in_a_list_rejected(self):
        # [True, 5] used to run as the ids [1, 5]
        asked = []
        for xs, ys in (([True, 5], [2, 3]), ([0, 1], [np.True_, 3])):
            with pytest.raises(UsageError, match="not bools"):
                recover_matching(xs, ys, asked.append)
        assert asked == []


class TestIntegerSizes:
    @pytest.mark.parametrize("N", [10.5, 10.0, True, np.float64(8)])
    def test_recover_sparse_rejects_non_integer_n(self, N):
        asked = []
        with pytest.raises(UsageError, match="integer"):
            recover_sparse(N, lambda cols, bounds: asked.append(cols) or [0])
        assert asked == []

    @pytest.mark.parametrize("N", [40.0, True, np.float64(40)])
    def test_build_detecting_matrix_rejects_non_integer_n(self, N):
        build_detecting_matrix(40)  # a cached 40-column design must not answer 40.0
        with pytest.raises(UsageError, match="integer"):
            build_detecting_matrix(N)

    def test_numpy_integer_n_accepted(self):
        assert recover_sparse(np.int64(8), counting_oracle([3])).tolist() == [3]
        assert build_detecting_matrix(np.int64(16)).n_cols == 16

    @pytest.mark.parametrize(
        "N,total", [(8, True), (8, 2.7), (8, 2.0), (8, np.float64(2)), (8, "2"), (8, -1), (8, 9), (0, 1)]
    )
    def test_recover_sparse_known_total_rule(self, N, total):
        # support {3, 5} in N=8: True returned [3], 2.7 was truncated, -1 and 9
        # raised DecodeFailure, which blames the oracle for a caller error
        asked = []
        with pytest.raises(UsageError, match="known_total"):
            recover_sparse(N, lambda cols, bounds: asked.append(cols) or [0], known_total=total)
        assert asked == []

    def test_recover_sparse_integer_known_total_accepted(self):
        for total in (2, np.int64(2), np.uint8(2)):
            assert recover_sparse(8, counting_oracle([3, 5]), known_total=total).tolist() == [3, 5]


# Build and decode a 1440-column design in a fresh interpreter, as the
# benchmark's warm-up does, and print the growth of peak RSS (KiB on Linux).
_WARM_UP = """
import resource
import rankprobe

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
m = rankprobe.build_detecting_matrix(1440)
m.decode(m.measure([0] * 1440))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


class TestMemory:
    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
    def test_design_warm_up_peak_rss(self):
        # builds the A_7 and A_8 kinds, the free leaf's 2^12-code table and the design's rows
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", _WARM_UP], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 8 * 1024
