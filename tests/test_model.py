import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprobe import (
    CapacitatedPartition,
    HiddenPartition,
    RankOracle,
    UsageError,
    add_query_sim,
    build_detecting_matrix,
    instance_digest,
    read_instance,
    recover_matching,
    sum_query_sim,
)
from rankprobe import model
from rankprobe.bench import InstanceSpec, generate
from rankprobe.model import Phase, QueryLedger, instance_from_bytes, instance_to_bytes

from _bruteforce import brute_rank, brute_sum_query, enumerate_set_partitions


def oracle(parts, caps=None):
    if caps is None:
        return RankOracle(HiddenPartition(parts))
    return RankOracle(CapacitatedPartition(parts, caps))


class TestSimpleRank:
    def test_empty_set(self):
        assert oracle([[0, 1], [2]]).rank([]) == 0

    def test_both_elements_one_part(self):
        assert oracle([[0, 1], [2]]).rank([0, 1]) == 1

    def test_one_element_per_part(self):
        assert oracle([[0, 1], [2]]).rank([0, 2]) == 2

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            oracle([[0, 1], [2]]).rank([3])
        with pytest.raises(UsageError):
            oracle([[0, 1], [2]]).rank([-1])

    def test_counts_rank_queries(self):
        o = oracle([[0, 1], [2]])
        o.rank([0])
        o.rank([0, 2])
        assert o.ledger.rank_count == 2
        assert o.ledger.independence_count == 0


class TestGeneralRank:
    def test_capped_at_capacity(self):
        assert oracle([[0, 1, 2]], [2]).rank([0, 1, 2]) == 2

    def test_min_per_part(self):
        assert oracle([[0, 1, 2], [3, 4]], [2, 1]).rank([0, 3, 4]) == 2

    def test_basis_with_transversal_outside(self):
        # parts with capacities (1, 2, 3, 4); basis B holds exactly the
        # capacity of each part, so rank(B) = 10 and any subset of B is
        # independent.  Removing S (4 elements of B hitting 3 parts) and
        # adding a transversal T2 caps one part, giving rank 9, and the
        # difference counts exactly the parts S hits.
        parts = [[0, 1], [2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12, 13]]
        caps = [1, 2, 3, 4]
        o = oracle(parts, caps)
        basis = [0, 2, 3, 5, 6, 7, 9, 10, 11, 12]
        assert o.rank(basis) == 10
        t2 = [1, 4, 8, 13]
        s = [0, 5, 9, 10]  # one purple, one blue, two black: hits 3 parts
        b_minus_s = [e for e in basis if e not in s]
        assert o.rank(b_minus_s) == 6
        assert o.rank(b_minus_s + t2) == 9
        assert o.rank(b_minus_s + t2) - o.rank(b_minus_s) == 3

    def test_full_universe_rank_is_capacity_sum(self):
        o = oracle([[0, 1, 2], [3, 4]], [2, 1])
        assert o.rank(range(5)) == 3

    @pytest.mark.parametrize("size", [1, 2, 3, 17, 100, 255])
    def test_small_sets_many_parts(self, size):
        # |S| < k/4 at k = 1024: sets spread over the parts, and sets packed
        # into a few parts so that capacities bind
        rng = np.random.default_rng(size)
        part_of = rng.integers(0, 1024, 4096)
        part_of[:2048] = np.arange(2048) % 1024  # every part holds 2 or more
        parts = [np.flatnonzero(part_of == i).tolist() for i in range(1024)]
        caps = [len(p) // 2 for p in parts]
        o = oracle(parts, caps)
        few = np.flatnonzero(part_of < 8)
        for s in (rng.permutation(4096)[:size], rng.permutation(few)[: min(size, few.size)]):
            expected = brute_rank(parts, caps, s)
            assert o.rank(s) == expected
            assert o.is_independent(s) == (expected == s.size)


class TestIndependence:
    def test_independent_pair(self):
        o = oracle([[0, 1], [2]])
        assert o.is_independent([0, 2]) is True

    def test_dependent_pair(self):
        o = oracle([[0, 1], [2]])
        assert o.is_independent([0, 1]) is False

    def test_empty_always_independent(self):
        assert oracle([[0, 1], [2]]).is_independent([]) is True

    def test_charged_as_independence_query(self):
        o = oracle([[0, 1], [2]])
        o.is_independent([0, 1])
        assert o.ledger.independence_count == 1
        assert o.ledger.rank_count == 0


class TestSumQuery:
    def test_friend_count(self):
        o = oracle([[0, 2], [1], [3]])
        assert sum_query_sim(o, [0, 1], [2, 3]) == 1
        assert o.ledger.rank_count == 1

    def test_empty_s(self):
        o = oracle([[0, 2], [1], [3]])
        assert sum_query_sim(o, [], [2, 3]) == 0

    def test_all_singletons_no_friends(self):
        o = oracle([[0], [1], [2], [3]])
        assert sum_query_sim(o, [0, 1], [2, 3]) == 0

    def test_overlap_rejected(self):
        o = oracle([[0, 2], [1], [3]])
        with pytest.raises(UsageError):
            sum_query_sim(o, [0, 2], [2, 3])

    def test_matches_brute_force_exhaustively(self):
        # every partition of a 5-element universe, every (S, I2) assignment
        for parts in enumerate_set_partitions(5):
            o = oracle(parts)
            for code in range(3**5):
                s, i2, rest = [], [], code
                for e in range(5):
                    rest, which = divmod(rest, 3)
                    (s if which == 1 else i2 if which == 2 else []).append(e)
                if brute_rank(parts, None, s) != len(s):
                    continue
                if brute_rank(parts, None, i2) != len(i2):
                    continue
                expected = brute_sum_query(parts, s, i2)
                assert sum_query_sim(o, s, i2) == expected

    def test_matches_brute_force_n8(self):
        parts = [[0, 3, 5], [1, 6], [2], [4, 7]]
        o = oracle(parts)
        for code in range(3**8):
            s, i2, rest = [], [], code
            for e in range(8):
                rest, which = divmod(rest, 3)
                (s if which == 1 else i2 if which == 2 else []).append(e)
            if brute_rank(parts, None, s) != len(s) or brute_rank(parts, None, i2) != len(i2):
                continue
            assert sum_query_sim(o, s, i2) == brute_sum_query(parts, s, i2)


class TestSimulatedQueryValidation:
    """A simulated query is one rank query, and the oracle checks its one set once."""

    @pytest.mark.parametrize(
        "query",
        [lambda o: sum_query_sim(o, [0, 1], [2, 3]), lambda o: add_query_sim(o, [0, 1, 2, 3])],
        ids=["sum", "add"],
    )
    def test_one_check_one_charge(self, query, monkeypatch):
        calls = []
        check = model.as_element_array

        def counting(*args):
            calls.append(args[0])
            return check(*args)

        monkeypatch.setattr(model, "as_element_array", counting)
        o = oracle([[0, 2], [1], [3]])
        query(o)
        assert len(calls) == 1
        assert o.ledger.rank_count == 1


class TestAddQuery:
    def test_matched_pair_inside(self):
        o = oracle([[0, 2], [1, 3]])
        assert add_query_sim(o, [0, 2]) == 1

    def test_endpoints_of_different_pairs(self):
        o = oracle([[0, 2], [1, 3]])
        assert add_query_sim(o, [0, 3]) == 0

    def test_two_pairs(self):
        o = oracle([[0, 2], [1, 3]])
        assert add_query_sim(o, [0, 1, 2, 3]) == 2


class TestQueryContract:
    """Queries must hold distinct integer ids in [0, n); a rejected one charges nothing."""

    CAPPED = ([[0, 1, 2], [3, 4]], [2, 1])

    @pytest.mark.parametrize(
        "query",
        [
            lambda o: o.rank([0, 0]),
            lambda o: o.is_independent([3, 3]),
            lambda o: o.rank(np.array([1.7, 0.2])),
            lambda o: o.rank([1.0, 0.0]),
            lambda o: o.rank(np.array([True, False])),
            lambda o: o.audit_rank([2, 2]),
            lambda o: sum_query_sim(o, [0, 0], [3]),
            lambda o: sum_query_sim(o, [0], [3, 3]),
            lambda o: add_query_sim(o, [1, 4, 1]),
            lambda o: sum_query_sim(o, [0, 1], [1, 3]),
        ],
        ids=[
            "rank-duplicate",
            "independence-duplicate",
            "float-array",
            "float-list",
            "bool-array",
            "audit-duplicate",
            "sum-duplicate-in-s",
            "sum-duplicate-in-i2",
            "add-duplicate",
            "sum-overlap",
        ],
    )
    def test_rejected_and_uncharged(self, query):
        o = oracle(*self.CAPPED)
        with pytest.raises(UsageError):
            query(o)
        assert (o.ledger.rank_count, o.ledger.independence_count, o.ledger.audit_count) == (0, 0, 0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda o: o.rank(5),
            lambda o: o.rank(None),
            lambda o: o.rank(np.int64(1)),
            lambda o: o.is_independent(3),
            lambda o: add_query_sim(o, 3),
            lambda o: sum_query_sim(o, 1, [2]),
            lambda o: recover_matching(1, 2, lambda s: add_query_sim(o, s)),
            lambda o: build_detecting_matrix(5).decode(7),
            lambda o: HiddenPartition(5),
            lambda o: HiddenPartition(None),
            lambda o: HiddenPartition([5]),
            lambda o: HiddenPartition([None]),
            lambda o: HiddenPartition([[0, [1]]]),
            lambda o: CapacitatedPartition(5, [1]),
            lambda o: CapacitatedPartition([[0, 1]], 2),
        ],
        ids=[
            "rank-int",
            "rank-none",
            "rank-numpy-int",
            "independence-int",
            "add-int",
            "sum-int",
            "matching-ints",
            "decode-int",
            "parts-int",
            "parts-none",
            "part-int",
            "part-none",
            "part-ragged",
            "capacitated-parts-int",
            "capacities-int",
        ],
    )
    def test_non_iterable_rejected_and_uncharged(self, build):
        # each raised a bare TypeError (list() of a scalar, len() of one)
        o = oracle(*self.CAPPED)
        with pytest.raises(UsageError, match="iterable|one-dimensional"):
            build(o)
        assert (o.ledger.rank_count, o.ledger.independence_count, o.ledger.audit_count) == (0, 0, 0)

    def test_bool_in_a_list_rejected_and_uncharged(self):
        # [True, 2] was charged and answered as [1, 2]
        o = oracle(*self.CAPPED)
        with pytest.raises(UsageError, match="not bools"):
            o.rank([True, 2])
        assert o.ledger.rank_count == 0

    def test_numpy_bool_in_a_list_is_not_a_repeated_id(self):
        # [1, np.True_] was read as [1, 1] and blamed on a repeated id
        o = oracle(*self.CAPPED)
        for query in (o.rank, o.is_independent, lambda s: add_query_sim(o, s), lambda s: sum_query_sim(o, s, [4])):
            with pytest.raises(UsageError, match="not bools"):
                query([1, np.True_])
        assert (o.ledger.rank_count, o.ledger.independence_count) == (0, 0)

    def test_large_set_duplicate(self):
        # above the small-set threshold and with |S| * _DENSE_RATIO >= n (here
        # n = 200), one bincount does the check; see test_large_set_paths
        parts = [list(range(i, 200, 7)) for i in range(7)]
        o = oracle(parts)
        for bad in (list(range(100)) + [42], [199] * 70):
            with pytest.raises(UsageError):
                o.rank(bad)
            with pytest.raises(UsageError):
                o.is_independent(np.asarray(bad))
        with pytest.raises(UsageError):
            o.rank(list(range(100)) + [200])
        with pytest.raises(UsageError):
            o.rank(list(range(100)) + [-1])
        assert o.ledger.rank_count == o.ledger.independence_count == 0

    @pytest.mark.parametrize(
        "n,size,dense", [(200, 100, True), (4096, 100, False)], ids=["bincount", "mark-array"]
    )
    def test_large_set_paths(self, n, size, dense):
        assert size > model._SMALL_SET and (size * model._DENSE_RATIO >= n) == dense
        parts = [list(range(i, n, 7)) for i in range(7)]
        caps = [len(p) // 2 for p in parts]
        o = oracle(parts, caps)
        good = np.arange(0, n, n // size)[:size]
        cases = [
            (np.r_[good[:-1], good[0]], "repeat"),
            (np.r_[good[:-1], -1], "saw -1"),
            (np.r_[good[:-1], n], f"saw {n}"),
        ]
        for bad, message in cases:
            for query in (o.rank, o.is_independent, o.audit_rank):
                with pytest.raises(UsageError, match=message):
                    query(bad)
        assert (o.ledger.rank_count, o.ledger.independence_count, o.ledger.audit_count) == (0, 0, 0)
        expected = brute_rank(parts, caps, good.tolist())
        assert o.rank(good) == expected
        assert o.is_independent(good) == (expected == size)
        assert o.is_independent(good[:2]) and o.rank(good[::-1]) == expected
        assert (o.ledger.rank_count, o.ledger.independence_count, o.ledger.audit_count) == (2, 2, 0)

    def test_scratch_usable_after_rejection(self):
        parts = [list(range(i, 300, 11)) for i in range(11)]
        caps = [len(p) // 2 for p in parts]
        o = oracle(parts, caps)
        with pytest.raises(UsageError):
            o.rank(np.r_[np.arange(150), np.arange(150)])
        universe = list(range(300))[::-1]
        assert o.rank(universe) == brute_rank(parts, caps, universe)
        assert o.rank([5, 16, 27]) == brute_rank(parts, caps, [5, 16, 27])
        evens = np.arange(0, 300, 2)
        assert o.rank(evens) == brute_rank(parts, caps, evens)
        assert o.ledger.rank_count == 3


class TestSimpleLargeK:
    """Sets above the small-set threshold on a simple partition with many parts."""

    N, K = 4096, 1024
    # K ids: a dense set (8|S| >= n), and the largest independent one
    SIZES = [64, 65, K // 4 - 1, K // 4, K]

    @pytest.fixture(scope="class")
    def instance(self):
        rng = np.random.default_rng(5)
        part_of = np.r_[np.arange(self.K), rng.integers(0, self.K, self.N - self.K)]
        part_of = part_of[rng.permutation(self.N)]
        parts = [np.flatnonzero(part_of == i).tolist() for i in range(self.K)]
        return parts, part_of

    def subset(self, parts, part_of, size, independent):
        rng = np.random.default_rng(size)
        if independent:
            chosen = rng.permutation(self.K)[:size]
            return np.asarray([parts[i][0] for i in chosen], dtype=np.int64)
        # elements of the first parts holding 5|S|/4 ids, so parts repeat
        limit = np.searchsorted(np.cumsum(np.bincount(part_of)), size * 5 // 4) + 1
        few = np.flatnonzero(part_of < limit)
        return rng.permutation(few)[:size]

    @pytest.mark.parametrize("independent", [True, False], ids=["independent", "repeated-parts"])
    @pytest.mark.parametrize("size", SIZES)
    def test_matches_brute_force(self, instance, size, independent):
        parts, part_of = instance
        s = self.subset(parts, part_of, size, independent)
        assert s.size == size
        expected = brute_rank(parts, None, s)
        assert (expected == size) == independent
        o = RankOracle(HiddenPartition(parts))
        for form in (s, s[::-1].copy(), s.tolist()):
            assert o.rank(form) == expected
            assert o.is_independent(form) == independent
            assert o.audit_rank(form) == expected
        assert (o.ledger.rank_count, o.ledger.independence_count, o.ledger.audit_count) == (3, 3, 3)


class TestRankProperties:
    def test_bounded_by_size_and_k(self):
        parts = [[0, 3], [1, 4, 6], [2], [5, 7]]
        o = oracle(parts)
        for code in range(2**8):
            s = [e for e in range(8) if (code >> e) & 1]
            r = o._evaluate(s)
            assert r <= min(len(s), 4)
            assert r == brute_rank(parts, None, s)

    def test_monotone_and_submodular(self):
        parts = [[0, 3], [1, 4, 6], [2, 5]]
        o = oracle(parts)
        n = 7
        for code in range(3**n):
            s, t, rest = [], [], code
            for e in range(n):
                rest, which = divmod(rest, 3)
                if which >= 1:
                    t.append(e)
                if which == 2:
                    s.append(e)
            rs, rt = o._evaluate(s), o._evaluate(t)
            assert rs <= rt  # monotone on S <= T
            for e in range(n):
                if e in t:
                    continue
                gain_s = o._evaluate(s + [e]) - rs
                gain_t = o._evaluate(t + [e]) - rt
                assert gain_s >= gain_t  # submodular

    def test_general_rank_of_independent_sets(self):
        parts = [[0, 1, 2], [3, 4, 5, 6], [7, 8]]
        caps = [2, 3, 1]
        o = oracle(parts, caps)
        for code in range(2**9):
            s = [e for e in range(9) if (code >> e) & 1]
            r = o._evaluate(s)
            assert r == brute_rank(parts, caps, s)
            if brute_rank(parts, caps, s) == len(s):
                assert r == len(s)

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(min_value=1, max_value=40), st.data())
    def test_repeat_query_same_answer(self, n, data):
        labels = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        parts = {}
        for e, lab in enumerate(labels):
            parts.setdefault(lab, []).append(e)
        o = oracle(list(parts.values()))
        subset = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
        assert o.rank(subset) == o.rank(subset)


class TestStructures:
    def test_partition_validation(self):
        with pytest.raises(UsageError):
            HiddenPartition([[0, 1], [1, 2]])  # overlap
        with pytest.raises(UsageError):
            HiddenPartition([[0], [2]])  # hole
        with pytest.raises(UsageError):
            HiddenPartition([])
        with pytest.raises(UsageError, match="out of range"):
            HiddenPartition([[0, 4], [1, 2]], n=4)
        with pytest.raises(UsageError, match="repeated"):
            HiddenPartition([[0, 1], [1]], n=3)  # the right total, 2 missing

    def test_capacity_validation(self):
        with pytest.raises(UsageError):
            CapacitatedPartition([[0, 1], [2, 3]], [2, 1])  # r_i = |P_i|
        with pytest.raises(UsageError):
            CapacitatedPartition([[0, 1], [2, 3]], [0, 1])
        cp = CapacitatedPartition([[0, 1, 2], [3, 4]], [2, 1])
        assert cp.rank_total == 3
        assert cp.k <= cp.rank_total <= cp.n - cp.k

    def test_canonical_order(self):
        hp = HiddenPartition([[5, 2], [1, 0], [4, 3]])
        assert [p.tolist() for p in hp.parts] == [[0, 1], [2, 5], [3, 4]]

    def test_non_integer_ids_and_capacities_rejected(self):
        # the rule of queries: float and bool ids or capacities are never truncated
        bad = [
            lambda: HiddenPartition([[0.7, 1], [2]]),
            lambda: HiddenPartition([np.array([True]), np.array([False])]),
            lambda: CapacitatedPartition([[0, 1, 2], [3, 4]], [1.9, 1]),
            lambda: CapacitatedPartition([[0, 1, 2], [3, 4]], np.array([True, True])),
            lambda: instance_from_bytes(b'{"n":3,"parts":[[0,1.5],[2]],"capacities":null}'),
            lambda: instance_from_bytes(b'{"n":5,"parts":[[0,1,2],[3,4]],"capacities":[1.5,1]}'),
        ]
        for build in bad:
            with pytest.raises(UsageError, match="must be integers"):
                build()
        for n in (b"3.7", b"true", b'"3"'):
            with pytest.raises(UsageError, match="must be an integer"):
                instance_from_bytes(b'{"n":' + n + b',"parts":[[0,1],[2]],"capacities":null}')
        with pytest.raises(UsageError, match="nonempty"):
            HiddenPartition([[0], []])

    def test_bool_ids_and_capacities_in_json_rejected(self):
        # both documents loaded silently, as parts [[0, 1], [2]] and capacities [1, 1]
        for doc in (
            b'{"n":3,"parts":[[0,true],[2]],"capacities":null}',
            b'{"n":5,"parts":[[0,1,2],[3,4]],"capacities":[true,1]}',
        ):
            with pytest.raises(UsageError, match="not bools"):
                instance_from_bytes(doc)

    @pytest.mark.parametrize("n", [4.5, 4.0, True, np.float64(4), "4"])
    @pytest.mark.parametrize("capacitated", [False, True], ids=["simple", "capacitated"])
    def test_non_integer_n_rejected(self, n, capacitated):
        # n=4.5 used to build a 4-element instance; n=True complained "expected n=1"
        with pytest.raises(UsageError, match="n must be an integer"):
            if capacitated:
                CapacitatedPartition([[0, 1], [2, 3]], [1, 1], n=n)
            else:
                HiddenPartition([[0, 1], [2, 3]], n=n)

    def test_integer_n_accepted(self):
        assert HiddenPartition([[0, 1], [2, 3]], n=np.int64(4)).n == 4
        assert CapacitatedPartition([[0, 1], [2, 3]], [1, 1], n=4).n == 4

    def test_integer_arrays_accepted(self):
        assert HiddenPartition(np.array([[0, 3], [2, 1]])).as_tuples() == ((0, 3), (1, 2))
        parts = [np.array([4, 3], dtype=np.int32), np.arange(3, dtype=np.uint8)]
        cp = CapacitatedPartition(parts, np.array([1, 2], dtype=np.int16))
        assert cp.as_tuples() == (((0, 1, 2), (3, 4)), (2, 1))
        assert all(p.dtype == np.int64 for p in cp.parts)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        cp = CapacitatedPartition([[4, 0], [1, 2, 3]], [1, 2])
        blob = instance_to_bytes(cp, meta={"seed": 7})
        structure, meta = instance_from_bytes(blob)
        assert structure == cp
        assert meta == {"seed": 7}
        assert instance_to_bytes(structure, meta) == blob

    def test_canonical_sorting_in_json(self):
        hp = HiddenPartition([[2], [1, 0]])
        doc = json.loads(instance_to_bytes(hp))
        assert doc["parts"] == [[0, 1], [2]]
        assert doc["capacities"] is None

    def test_digest_stable(self):
        a = HiddenPartition([[0, 1], [2]])
        b = HiddenPartition([[1, 0], [2]])
        assert instance_digest(a) == instance_digest(b)

    def test_malformed_rejected(self):
        with pytest.raises(UsageError):
            instance_from_bytes(b'{"n": 3}')

    @pytest.mark.parametrize("data", [b"{not json", b"", b'{"n": 1, "parts": [[0]]}\xff'])
    def test_corrupt_document_rejected(self, data):
        with pytest.raises(UsageError, match="not valid JSON"):
            instance_from_bytes(data)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_file_rejected(self, tmp_path, kind):
        # a missing file raised a bare FileNotFoundError
        path = tmp_path / "instance.json"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(UsageError, match=re.escape(f"cannot read instance file {path}")):
            read_instance(path)


class TestLedger:
    def test_phases_attribute_all_active_labels(self):
        o = oracle([[0, 1], [2]])
        with o.ledger.phase("outer") as outer:
            o.rank([0])
            with o.ledger.phase("inner") as inner:
                o.is_independent([1, 2])
        assert outer == Phase("outer", 1, 1)
        assert inner == Phase("inner", 0, 1)
        assert o.ledger.per_phase == {"outer": 2, "inner": 1}

    def test_phase_charging_nothing_not_in_per_phase(self):
        o = oracle([[0, 1], [2]])
        with o.ledger.phase("idle") as idle:
            o.audit_rank([0, 1])
        assert idle == Phase("idle", 0, 0)
        assert o.ledger.per_phase == {}
        assert o.ledger.snapshot()["per_phase"] == {}

    def test_raising_body_closes_its_phase(self):
        o = oracle([[0, 1], [2]])
        with pytest.raises(UsageError):
            with o.ledger.phase("broken") as broken:
                o.rank([0])
                o.rank([5])  # out of range: raises and charges nothing
        with o.ledger.phase("next"):
            o.rank([1])
        assert broken == Phase("broken", 1, 0)
        assert o.ledger.per_phase == {"broken": 1, "next": 1}

    def test_audit_kept_separate(self):
        o = oracle([[0, 1], [2]])
        o.audit_rank([0, 1])
        assert o.ledger.rank_count == 0
        assert o.ledger.audit_count == 1
        assert o.ledger.per_phase == {}

    def test_snapshot_deterministic(self):
        def run():
            o = oracle([[0, 2], [1, 3]])
            with o.ledger.phase("p"):
                sum_query_sim(o, [0], [1])
                add_query_sim(o, [0, 2])
            o.is_independent([0, 1])
            return o.ledger.snapshot()

        assert run() == run()


class TestBaseProbe:
    """``model._BaseProbe`` against the rank of the set it stands for."""

    N = 48

    @staticmethod
    def structure(family, seed):
        st_, _ = generate(InstanceSpec(family, TestBaseProbe.N, k=6, seed=seed))
        return st_

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("family", ["capacitated-random", "uniform-k"])
    def test_answers_equal_the_built_sets_rank(self, family, seed):
        # random bases, not only independent ones; changes up to 20 ids, as
        # lists, ascending arrays and shuffled arrays, so that both the
        # per-id and the NumPy path check and count them
        o = RankOracle(self.structure(family, seed))
        rng = np.random.default_rng(seed)
        ids = rng.permutation(self.N)
        base = set(ids[: rng.integers(0, self.N + 1)].tolist())
        probe = model._base_probe(o, ids[: len(base)])
        assert type(probe) is model._BaseProbe
        for _ in range(400):
            if rng.random() < 0.2:
                if base and (rng.random() < 0.5 or len(base) == self.N):
                    x = int(rng.choice(sorted(base)))
                    probe.move_out(x)
                    base.remove(x)
                else:
                    v = int(rng.choice(sorted(set(range(self.N)) - base)))
                    probe.move_in(v)
                    base.add(v)
            inside, outside = sorted(base), sorted(set(range(self.N)) - base)
            drop = rng.permutation(inside)[: rng.integers(0, 21)]
            add = rng.permutation(outside)[: rng.integers(0, 21)]
            built = np.array(sorted((base - set(drop.tolist())) | set(add.tolist())), dtype=np.int64)
            form = rng.integers(3)
            if form == 0:
                drop, add = drop.tolist(), add.tolist()
            elif form == 1:
                drop, add = np.sort(drop), np.sort(add)
            want = o._evaluate(built)
            ledger = o.ledger
            before = (ledger.rank_count, ledger.independence_count)
            assert probe.rank(drop, add) == want
            assert probe.is_independent(drop, add) == (want == built.size)
            assert (ledger.rank_count, ledger.independence_count) == (before[0] + 1, before[1] + 1)
            assert probe.size == len(base)

    EVEN = list(range(0, N, 2))  # the base of the malformed cases
    ODD = list(range(1, N, 2))

    # (drop, add); the long forms take the NumPy path, ascending or shuffled
    MALFORMED = {
        "add-id-n": ([], [N]),
        "add-id-minus-1": ([], [-1]),
        "drop-id-n": ([N], []),
        "drop-id-minus-1": ([-1], []),
        "drop-outside-base": ([0, 1], []),
        "add-inside-base": ([], [1, 2]),
        "repeat-in-drop": ([4, 4], [1]),
        "repeat-in-add": ([], [3, 3]),
        "long-add-id-n": ([], ODD[:12] + [N]),
        "long-add-id-minus-1": ([], [-1] + ODD[:12]),
        "long-drop-id-n": (EVEN[:12] + [N], []),
        "long-drop-outside-base": (EVEN[:12] + [1], []),
        "long-add-inside-base": ([], ODD[:12] + [2]),
        "long-repeat-in-drop": (EVEN[:12] + [6], []),
        "long-repeat-in-add": ([0], ODD[:12] + [5]),
        "shuffled-drop-outside-base": (EVEN[12:0:-1] + [1], []),
        "shuffled-repeat-in-add": ([], ODD[12:0:-1] + [5]),
        "shuffled-add-id-n": ([], [N] + ODD[12:0:-1]),
    }

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_change_charges_nothing(self, case, as_array):
        drop, add = self.MALFORMED[case]
        if as_array:
            drop, add = np.array(drop, dtype=np.int64), np.array(add, dtype=np.int64)
        o = RankOracle(self.structure("capacitated-random", 1))
        probe = model._base_probe(o, self.EVEN)
        for ask in (probe.rank, probe.is_independent):
            with pytest.raises(UsageError):
                ask(drop, add)
        assert o.ledger.snapshot() == QueryLedger().snapshot()
        assert probe.rank() == o._evaluate(np.array(self.EVEN))

    @pytest.mark.parametrize(
        "move,x", [("move_in", 0), ("move_in", N), ("move_out", 1), ("move_out", -1)]
    )
    def test_malformed_move_is_rejected(self, move, x):
        o = RankOracle(self.structure("uniform-k", 1))
        probe = model._base_probe(o, self.EVEN)
        with pytest.raises(UsageError):
            getattr(probe, move)(x)
        assert probe.size == len(self.EVEN)
        assert probe.rank() == o._evaluate(np.array(self.EVEN))

    @pytest.mark.parametrize("base", [[0, 0], [0, N], [-1]], ids=["repeat", "id-n", "id-minus-1"])
    def test_malformed_base_is_rejected(self, base):
        with pytest.raises(UsageError):
            model._base_probe(RankOracle(self.structure("uniform-k", 1)), base)
