import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprobe import (
    DecodeFailure,
    HiddenPartition,
    InvariantViolation,
    QueryLedger,
    RankOracle,
    UsageError,
    build_detecting_matrix,
    components,
    find_partition,
    find_partition_run,
    merge,
)
from rankprobe import partition
from rankprobe.bench import FAMILIES, InstanceSpec, generate, run_learner
from rankprobe.regression import load_regression_config

from _bruteforce import brute_components, canonical, enumerate_set_partitions, random_partition
from _recording import RecordingOracle


def oracle(parts):
    return RankOracle(HiddenPartition(parts))


def assert_no_edges(out):
    assert out.removed.dtype == out.reps.dtype == np.int64
    assert out.removed.size == out.reps.size == 0


class TestMerge:
    def test_all_singletons(self):
        o = oracle([[0], [1], [2], [3]])
        out = merge(np.array([0, 1]), np.array([2, 3]), o)
        assert out.merged.tolist() == [0, 1, 2, 3]
        assert_no_edges(out)
        assert o.ledger.rank_count == 1  # one root sum settles both directions
        assert "matching" not in o.ledger.per_phase

    def test_single_common_pair(self):
        o = oracle([[0, 2], [1], [3]])
        out = merge(np.array([0, 1]), np.array([2, 3]), o)
        assert out.merged.tolist() == [1, 2, 3]
        assert (out.removed.tolist(), out.reps.tolist()) == ([0], [2])

    @pytest.mark.parametrize("d", [2, 5, 40])
    def test_removed_ascending_with_aligned_reps(self, d):
        # I1 and I2 shuffled, friends paired at random: removed is sorted all
        # the same, and reps[i] is removed[i]'s friend in I2 (40 pairs take
        # the bit-plane matching, fewer the binary search)
        rng = np.random.default_rng(d)
        ids = rng.permutation(3 * d + 6)
        com1, com2, rest1, rest2 = ids[:d], ids[d : 2 * d], ids[2 * d : 2 * d + 3], ids[2 * d + 3 :]
        parts = [[int(a), int(b)] for a, b in zip(com1, com2)] + [[int(e)] for e in ids[2 * d :]]
        structure = HiddenPartition(parts)
        i1 = rng.permutation(np.concatenate((com1, rest1)))
        i2 = rng.permutation(np.concatenate((com2, rest2)))
        out = merge(i1, i2, RankOracle(structure))
        assert out.removed.tolist() == sorted(com1.tolist())
        assert np.array_equal(structure.part_of[out.reps], structure.part_of[out.removed])
        assert set(out.reps.tolist()) == set(com2.tolist())
        assert out.merged.tolist() == sorted(rest1.tolist() + i2.tolist())

    def test_matching_skipped_when_com_empty(self):
        o = oracle([[0], [1], [2], [3], [4], [5]])
        merge(np.array([0, 1, 2]), np.array([3, 4, 5]), o)
        assert o.ledger.per_phase.get("matching", 0) == 0

    @pytest.mark.parametrize(
        "answer,i1,i2",
        [
            (0, [0], [1, 2, 3]),  # every sum query reports everything common
            (1, [0, 1, 2], [3]),  # root sum 3 exceeds |I2| = 1
            (2, [0, 1, 2], [3]),  # root sum 2 exceeds |I2| = 1
        ],
        ids=["rank-0", "rank-1", "rank-2"],
    )
    def test_lying_oracle_detected(self, answer, i1, i2):
        # an honest root sum lies in [0, min(|I1|, |I2|)]; outside it the
        # oracle is at fault, not the caller
        class Lying:
            n = 4

            def __init__(self):
                self.ledger = QueryLedger()

            def rank(self, s):
                self.ledger.charge_rank()
                return answer

        with pytest.raises(DecodeFailure):
            merge(np.array(i1), np.array(i2), Lying())

    @pytest.mark.parametrize("d", [None, 2], ids=["root-asked", "root-passed"])
    @pytest.mark.parametrize("convert", [float, bool, lambda r: r + 0.5], ids=["float", "bool", "half"])
    def test_rank_answers_follow_the_integer_rule(self, convert, d):
        # the root query and every design or halving row read the oracle's
        # rank through merge's one checked callback
        class Converted(RankOracle):
            def rank(self, s):
                return convert(super().rank(s))

        o = Converted(HiddenPartition([[0, 4], [1, 5], [2], [3], [6], [7]]))
        with pytest.raises(UsageError, match="a rank answer must be an integer"):
            merge(np.arange(4), np.arange(4, 8), o, d=d)

    def test_independent_union_ends_after_one_query(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("an independent union needs no recovery")

        monkeypatch.setattr(partition, "_recover_sparse", unreachable)
        monkeypatch.setattr(partition, "_recover_matching", unreachable)
        o = oracle([[0, 1], [2, 3], [4], [5], [6], [7]])
        out = merge(np.array([4, 6, 0]), np.array([7, 2, 5]), o)
        assert out.merged.tolist() == [0, 2, 4, 5, 6, 7]
        assert_no_edges(out)
        assert o.ledger.rank_count == 1
        assert o.ledger.per_phase == {"com-discovery": 1}

    def test_design_rows_are_one_query_and_one_rank_call_each(self, monkeypatch):
        # 40 of I1's 64 elements share a part with one of I2's 70, so com
        # discovery asks a 64-column and then a 70-column design block
        blocks = []
        real = partition._recover_sparse

        def recording(n, sum_oracle, total):
            def block(cols, bounds):
                sums = sum_oracle(cols, bounds)
                assert len(sums) == bounds.size - 1
                blocks.append(bounds.size - 1)
                return sums

            return real(n, block, total)

        class Counting(RankOracle):
            calls = 0

            def rank(self, s):
                self.calls += 1
                return super().rank(s)

        monkeypatch.setattr(partition, "_recover_sparse", recording)
        parts = [[j, 64 + j] for j in range(40)] + [[j] for j in range(40, 64)]
        parts += [[64 + j] for j in range(40, 70)]
        o = Counting(HiddenPartition(parts))
        out = merge(np.arange(64), np.arange(64, 134), o)
        assert out.removed.tolist() == list(range(40))
        assert out.reps.tolist() == list(range(64, 104))
        designs = [build_detecting_matrix(64).n_rows, build_detecting_matrix(70).n_rows]
        assert [rows for rows in blocks if rows > 1] == designs
        assert o.ledger.per_phase["com-discovery"] == 1 + sum(blocks)
        assert o.calls == o.ledger.rank_count

    def test_second_recovery_asks_against_the_first_ones_answer(self, monkeypatch):
        # every friend in I1 of an I2 element lies in com12, so the second
        # recovery asks row ++ com12 where it asked row ++ I1
        blocks = []
        real = partition._recover_sparse

        def recording(n, sum_oracle, total):
            def block(cols, bounds):
                blocks.append((len(recoveries), cols.copy(), bounds.copy()))
                return sum_oracle(cols, bounds)

            recoveries.append(n)
            return real(n, block, total)

        class Recording(RankOracle):
            def rank(self, s):
                asked.append(np.asarray(s).copy())
                return super().rank(s)

        recoveries, asked = [], []
        monkeypatch.setattr(partition, "_recover_sparse", recording)
        parts = [[j, 64 + j] for j in range(40)] + [[j] for j in range(40, 64)]
        parts += [[64 + j] for j in range(40, 70)]
        rng = np.random.default_rng(3)
        i1, i2 = rng.permutation(64), 64 + rng.permutation(70)
        out = merge(i1, i2, Recording(HiddenPartition(parts)))
        com12 = i1[np.isin(i1, out.removed)]  # in I1's order, as the first recovery finds it
        want = [np.concatenate((i1, i2))]
        for which, cols, bounds in blocks:
            src, fixed = (i1, i2) if which == 1 else (i2, com12)
            want += [np.concatenate((src[r], fixed)) for r in np.split(cols, bounds[1:-1])]
        assert recoveries == [64, 70]
        assert [s.tolist() for s in asked[: len(want)]] == [s.tolist() for s in want]

    @pytest.mark.parametrize(
        "i1,i2,message",
        [
            ([0.7, 1.2], [2.9, 3.4], "I1 must be integers"),  # once answered for ids 0..3
            ([0, 1], np.array([2.0, 3.0]), "I2 must be integers"),
            (np.array([True, False]), [2, 3], "I1 must be integers"),  # once ids 1 and 0
            ([[0, 1]], [2, 3], "I1 must be one-dimensional"),  # once a bare ValueError
            ([0, 1], np.array([[2], [3]]), "I2 must be one-dimensional"),
        ],
        ids=["float-lists", "float-array", "bool-array", "2d-list", "2d-array"],
    )
    def test_sets_follow_the_integer_rule(self, i1, i2, message):
        o = oracle([[0, 2], [1, 3]])
        with pytest.raises(UsageError, match=message):
            merge(i1, i2, o)
        assert o.ledger.rank_count == 0

    def test_known_root_answer_asks_no_root(self):
        o = oracle([[0, 2], [1], [3]])
        out = merge(np.array([0, 1]), np.array([2, 3]), o, d=1)
        assert (out.removed.tolist(), out.reps.tolist()) == ([0], [2])
        assert o.ledger.rank_count == 2  # one sum query per direction, no root
        o = oracle([[0], [1], [2], [3]])
        assert merge(np.array([0, 1]), np.array([2, 3]), o, d=0).merged.tolist() == [0, 1, 2, 3]
        assert o.ledger.rank_count == 0

    @pytest.mark.parametrize("d", ["1", True, 1.0, 0.0, False], ids=["str", "true", "1.0", "0.0", "false"])
    def test_known_root_answer_follows_the_integer_rule(self, d):
        # "1" raised a bare TypeError, True and 1.0 a UsageError naming
        # known_total, and 0.0 and False ran as an independent union
        o = oracle([[0, 2], [1], [3]])
        with pytest.raises(UsageError, match="d must be an integer"):
            merge(np.array([0, 1]), np.array([2, 3]), o, d=d)
        assert o.ledger.rank_count == 0

    @pytest.mark.parametrize("d", [-1, 3])
    def test_known_root_answer_range_checked(self, d):
        o = oracle([[0], [1], [2], [3]])
        with pytest.raises(DecodeFailure):
            merge(np.array([0, 1]), np.array([2, 3]), o, d=d)
        assert o.ledger.rank_count == 0

    @pytest.mark.parametrize(
        "i1,i2,d",
        [
            ([0, 1, 2], [2, 3, 4], 2),  # returned merged = [2, 2, 3, 4]
            ([0, 1, 2], [2, 3, 4], None),  # the root query's own check
            ([0, 0], [1], 0),  # returned [0, 0, 1]
            ([0, 1], [4, 4], 0),  # returned [0, 1, 4, 4]
            ([0, 1, 2, 8], [3, 4, 5], 3),  # id n: returned a set holding 8
            ([0, 99], [1], 0),  # returned [0, 1, 99]
            ([-1, 1], [3], 0),
            ([], [5, 5, 99], None),  # I1 empty asks no root either
        ],
        ids=[
            "known-root",
            "asked-root",
            "repeat-in-i1",
            "repeat-in-i2",
            "id-n",
            "id-99",
            "id-minus-1",
            "i1-empty",
        ],
    )
    def test_shared_id_rejected_before_any_query(self, i1, i2, d):
        # without a root query merge checks I1 ++ I2 itself: distinct ids in [0, n)
        o = oracle([[0, 3], [1, 4], [2, 5], [6], [7]])
        with pytest.raises(UsageError):
            merge(np.array(i1, dtype=np.int64), np.array(i2, dtype=np.int64), o, d=d)
        assert o.ledger.snapshot() == QueryLedger().snapshot()

    @pytest.mark.parametrize("i1,i2,queries", [([], [1, 3], 0), ([1, 3], [], 1)])
    def test_empty_side(self, i1, i2, queries):
        o = oracle([[0, 1], [2, 3]])
        out = merge(np.array(i1, dtype=np.int64), np.array(i2, dtype=np.int64), o)
        assert out.merged.tolist() == [1, 3]
        assert_no_edges(out)
        assert o.ledger.rank_count == queries


class TestFindPartition:
    def test_n0(self):
        class EmptyUniverse:  # a simulated oracle over no elements, as the matroid learner builds
            n = 0
            ledger = QueryLedger()

        assert find_partition(0, EmptyUniverse()) == []

    @pytest.mark.parametrize("n", [0, 5, 11, 10.0, True])
    def test_n_must_be_the_oracles_universe(self, n):
        o = oracle([[0, 1], [2, 3, 4], [5, 6, 7, 8, 9]])
        for learner in (find_partition, find_partition_run):
            with pytest.raises(UsageError):
                learner(n, o)
        assert o.ledger.rank_count == 0

    def test_n1_zero_queries(self):
        o = oracle([[0]])
        parts = find_partition(1, o)
        assert canonical(parts) == ((0,),)
        assert o.ledger.rank_count == 0

    def test_small_example_query_bound(self):
        o = oracle([[0, 1], [2]])
        parts = find_partition(3, o)
        assert canonical(parts) == ((0, 1), (2,))
        assert o.ledger.rank_count <= 20

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_small(self, n):
        for parts in enumerate_set_partitions(n):
            target = canonical(parts)
            got = find_partition(n, oracle(parts))
            assert canonical(got) == target

    def test_medium_random(self):
        parts = random_partition(300, 60, seed=5)
        got = find_partition(300, oracle(parts))
        assert canonical(got) == canonical(parts)

    def test_dense_regime_within_frozen_bound(self):
        n = 2**14
        limit = load_regression_config().value("C_total")
        parts = random_partition(n, n // 4, seed=0)
        o = oracle(parts)
        got = find_partition(n, o)
        assert canonical(got) == canonical(parts)
        assert o.ledger.rank_count <= limit * n

    def test_phase_records(self):
        o = oracle(random_partition(128, 16, seed=2))
        run = find_partition_run(128, o)
        phases = [r.label for r in run.phases]
        assert phases == ["pairwise-merge", "final-fold"]
        assert sum(r.rank_queries for r in run.phases) == o.ledger.rank_count
        assert run.survivors_after_phase1 <= math.floor(math.log2(128)) + 1

    def test_determinism(self):
        def snapshot():
            o = oracle(random_partition(200, 40, seed=9))
            parts = find_partition(200, o)
            return canonical(parts), o.ledger.snapshot()

        assert snapshot() == snapshot()

    def test_audit_mode_isolated(self):
        # the audit is run_learner's certificate of the answer: k + 2 queries
        truth = HiddenPartition(random_partition(100, 25, seed=3))
        plain = run_learner(truth, "find_partition")
        audited = run_learner(truth, "find_partition", audit=True)
        assert plain.correct and audited.correct
        assert plain.learned_parts == audited.learned_parts
        assert plain.ledger["rank_count"] == audited.ledger["rank_count"]
        assert plain.ledger["audit_count"] == 0
        assert audited.ledger["audit_count"] == truth.k + 2

    def test_thick_thin_accounting(self):
        config = load_regression_config()
        c_thick = config.value("c_thick")
        c_thin = config.value("c_thin")
        for n, k, seed in ((512, 128, 0), (2048, 512, 1), (2048, 64, 2)):
            o = oracle(random_partition(n, k, seed=seed))
            run = find_partition_run(n, o)
            thin_by_class = {}
            for s in run.merge_stats:
                if s.phase != "pairwise-merge":
                    continue
                if s.thick and s.d:
                    assert s.rank_queries <= c_thick * s.d
                elif not s.thick:
                    thin_by_class[s.size_class] = (
                        thin_by_class.get(s.size_class, 0) + s.rank_queries
                    )
            for total in thin_by_class.values():
                assert total <= c_thin * n

    def test_all_one_part(self):
        n = 256
        parts = [list(range(n))]
        o = oracle(parts)
        assert canonical(find_partition(n, o)) == canonical(parts)

    def test_all_singletons(self):
        n = 256
        parts = [[e] for e in range(n)]
        o = oracle(parts)
        assert canonical(find_partition(n, o)) == canonical(parts)

    def test_two_even_parts(self):
        n = 1024
        parts = [list(range(0, n, 2)), list(range(1, n, 2))]
        o = oracle(parts)
        assert canonical(find_partition(n, o)) == canonical(parts)

    @settings(max_examples=25, derandomize=True)
    @given(st.integers(min_value=1, max_value=48), st.data())
    def test_random_partitions_exact(self, n, data):
        labels = data.draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
        grouped = {}
        for e, lab in enumerate(labels):
            grouped.setdefault(lab, []).append(e)
        parts = list(grouped.values())
        got = find_partition(n, oracle(parts))
        assert canonical(got) == canonical(parts)


class _LyingOracle(RankOracle):
    """Answers ``answer`` for the query set ``target`` and the truth elsewhere."""

    def __init__(self, structure, target, answer):
        super().__init__(structure)
        self.target, self.answer = list(target), answer

    def rank(self, s):
        value = super().rank(s)
        return self.answer if np.asarray(s).tolist() == self.target else value


class TestChunkPrePhase:
    """rank(V) sets the chunk width c (c² <= k); chunk ranks stand in for merge roots."""

    def test_every_chunk_dependent(self):
        # blocks of 64 consecutive ids, c = 8: every chunk and every half of
        # one is dependent.  Merging bottom up from singletons asked 4299.
        structure, _ = generate(InstanceSpec("equal-blocks", 4096, k=64))
        o = RankOracle(structure)
        run = find_partition_run(4096, o)
        assert canonical(run.parts) == structure.as_tuples()
        assert o.ledger.rank_count == 4300

    def test_every_chunk_independent(self):
        # n = k = 4096, c = 64: rank(V), 64 independent chunks, 63 merge roots
        structure, _ = generate(InstanceSpec("uniform-k", 4096, k=4096))
        o = RankOracle(structure)
        run = find_partition_run(4096, o)
        assert canonical(run.parts) == structure.as_tuples()
        assert o.ledger.rank_count == 1 + 64 + 63

    def test_one_part(self):
        # k = 1, c = 1: rank(V), then n - 1 merge roots
        n = 1000
        o = oracle([range(n)])
        assert canonical(find_partition(n, o)) == (tuple(range(n)),)
        assert o.ledger.rank_count == n

    @pytest.mark.parametrize(
        "parts,target,answer",
        [
            # 64 singletons, c = 8: chunk 0..7 claimed rank 0, so d = 8 > 4
            ([[e] for e in range(64)], range(8), 0),
            # 32 pairs, c = 4: chunk 0..3 claimed rank 5, so d = 2 - 5 < 0
            ([[e, e + 1] for e in range(0, 64, 2)], range(4), 5),
            # rank(V) outside [1, n]
            ([[e] for e in range(64)], range(64), 0),
            ([[e] for e in range(64)], range(64), 65),
        ],
        ids=["chunk-too-low", "chunk-too-high", "universe-zero", "universe-above-n"],
    )
    def test_lying_chunk_rank_detected(self, parts, target, answer):
        with pytest.raises(DecodeFailure):
            find_partition(64, _LyingOracle(HiddenPartition(parts), target, answer))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_survivors_bound(self, family):
        # n = 1003 leaves a short last chunk (3 ids at c = 8, 11 at c = 16);
        # all-ones capacities are a simple rank
        structure, _ = generate(InstanceSpec(family, 1003, seed=4, capacity_rule="ones"))
        run = find_partition_run(1003, RankOracle(structure))
        assert [p.tolist() for p in run.parts] == [p.tolist() for p in structure.parts]
        assert run.survivors_after_phase1 <= math.floor(math.log2(1003)) + 1


SMALL_PARTS_STREAM_SHA256 = "d7b0b8b5460e5620043e24482168628aa5b72958dee53d2336064d5c3d352930"
LARGE_PARTS_STREAM_SHA256 = "f8507b0af4d690d676b1de82213fc70726f28dc408b7eb44093df46365fcbd8b"


class TestPinnedLedgers:
    """Exact ledgers on fixed instances: a merged set built in another order moves queries."""

    @pytest.mark.parametrize(
        "spec,rank_count,per_phase",
        [
            (
                InstanceSpec("uniform-k", 2**13, seed=1),
                36850,
                {"com-discovery": 16530, "matching": 18267, "pairwise-merge": 36617, "final-fold": 233},
            ),
            (
                InstanceSpec("uniform-k", 2**12, k=2**10, seed=1),
                15354,
                {"com-discovery": 7276, "matching": 7753, "pairwise-merge": 13842, "final-fold": 1512},
            ),
        ],
        ids=["small-parts", "large-parts"],
    )
    def test_find_partition(self, spec, rank_count, per_phase):
        structure, _ = generate(spec)
        o = RankOracle(structure)
        parts = find_partition(structure.n, o)
        assert canonical(parts) == canonical(structure.parts)
        assert (o.ledger.rank_count, o.ledger.per_phase) == (rank_count, per_phase)
        assert o.ledger.independence_count == o.ledger.audit_count == 0

    def test_small_parts_query_stream(self):
        # equal counts can hide a changed query set, so hash every set and
        # answer in order; this instance's designs all have at most 64 columns
        structure, _ = generate(InstanceSpec("uniform-k", 2**13, seed=1))
        o = RecordingOracle(structure)
        find_partition(structure.n, o)
        assert o.digest.hexdigest() == SMALL_PARTS_STREAM_SHA256

    def test_large_parts_query_stream(self):
        # the dense regime: family-block designs and bit-plane matchings
        structure, _ = generate(InstanceSpec("uniform-k", 2**12, k=2**10, seed=1))
        o = RecordingOracle(structure)
        find_partition(structure.n, o)
        assert o.digest.hexdigest() == LARGE_PARTS_STREAM_SHA256


class TestComponents:
    def test_no_edges(self):
        assert canonical(components(np.array([-1, -1, -1]))) == ((0,), (1,), (2,))

    def test_star(self):
        assert canonical(components([2, 2, -1])) == ((0, 1, 2),)

    def test_chain(self):
        assert canonical(components(np.array([1, 2, -1]))) == ((0, 1, 2),)

    def test_empty(self):
        assert components(np.empty(0, dtype=np.int64)) == []
        assert components([]) == []

    @pytest.mark.parametrize("step", [1, -1])
    def test_deep_chain(self, step):
        n = 10_000
        parent = np.arange(n, dtype=np.int64) + step  # depth n - 1
        parent[n - 1 if step == 1 else 0] = -1
        parts = components(parent)
        assert len(parts) == 1
        assert parts[0].tolist() == list(range(n))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_forests_match_union_find(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        order = rng.permutation(n)
        parent = np.full(n, -1, dtype=np.int64)
        for j in range(1, n):
            if rng.random() < 0.8:  # attach below an element placed earlier
                parent[order[j]] = order[rng.integers(0, j)]
        parts = components(parent)
        assert [p.tolist() for p in parts] == brute_components(parent)

    @pytest.mark.parametrize(
        "parent", [[1, 0, -1], [1, 2, 0, -1]], ids=["2-cycle", "3-cycle"]
    )
    def test_parent_cycle_rejected(self, parent):
        # a 2-cycle settles to fixed points under pointer jumping, a 3-cycle never does
        with pytest.raises(InvariantViolation):
            components(np.array(parent))

    @pytest.mark.parametrize(
        "parent",
        [[5, -1, -1], np.array([-1, -2, 0])],
        ids=["edge-rep-out-of-range", "parent-below-minus-one"],
    )
    def test_malformed_forest_rejected(self, parent):
        with pytest.raises(UsageError):
            components(parent)

    @pytest.mark.parametrize(
        "parent",
        [np.array([-1.0, 0.0, 1.0]), [-1, 0.5, 0]],
        ids=["float-parent", "float-list"],
    )
    def test_non_integer_forest_rejected(self, parent):
        # a float array once raised a bare IndexError
        with pytest.raises(UsageError, match="integers"):
            components(parent)

    def test_forest_matches_hidden_parts(self):
        structure = HiddenPartition(random_partition(96, 12, seed=11))
        run = find_partition_run(96, RankOracle(structure))
        assert canonical(components(run.parent)) == structure.as_tuples()
        # the roots are the final basis: one element of each hidden part
        roots = np.flatnonzero(run.parent < 0)
        assert sorted(structure.part_of[roots].tolist()) == list(range(structure.k))
        # every other element points at a friend, in its own part
        others = np.flatnonzero(run.parent >= 0)
        assert np.array_equal(structure.part_of[run.parent[others]], structure.part_of[others])
