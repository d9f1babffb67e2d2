import json

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
    instance_digest,
    sum_query_sim,
)
from rankprobe.model import instance_from_bytes, instance_to_bytes

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
        ],
    )
    def test_rejected_and_uncharged(self, query):
        o = oracle(*self.CAPPED)
        with pytest.raises(UsageError):
            query(o)
        assert (o.ledger.rank_count, o.ledger.independence_count, o.ledger.audit_count) == (0, 0, 0)

    def test_large_set_duplicate(self):
        # above the small-set threshold the duplicate check uses the mark array
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


class TestLedger:
    def test_phases_attribute_all_active_labels(self):
        o = oracle([[0, 1], [2]])
        with o.ledger.phase("outer"):
            o.rank([0])
            with o.ledger.phase("inner"):
                o.rank([1])
        assert o.ledger.per_phase == {"outer": 2, "inner": 1}

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
