import math

import numpy as np
import pytest

from rankprobe import (
    CapacitatedPartition,
    HiddenPartition,
    InvariantViolation,
    RankOracle,
    UsageError,
    baseline_independence_learner_run,
    find_basis,
    find_partition,
    find_representatives,
    learn_matroid_with_reps,
    learn_partition_matroid,
    learn_partition_matroid_run,
)
from rankprobe.bench import InstanceSpec, generate, run_learner
from rankprobe.matroid import LearnedMatroid
from rankprobe.regression import load_regression_config

from _bruteforce import brute_rank, canonical, enumerate_capacitated
from _recording import RecordingOracle


def cap_oracle(parts, caps):
    return RankOracle(CapacitatedPartition(parts, caps))


class TestFindBasis:
    def test_two_element_single_part(self):
        o = cap_oracle([[0, 1]], [1])
        basis = find_basis(2, o)
        assert basis.tolist() == [0]
        assert o.ledger.rank_count == 2

    def test_five_element_example(self):
        o = cap_oracle([[0, 1, 2], [3, 4]], [2, 1])
        basis = find_basis(5, o)
        assert basis.tolist() == [0, 1, 3]
        assert o.ledger.rank_count == 5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exactly_n_queries_and_maximal(self, seed):
        st, _ = generate(InstanceSpec("capacitated-random", 160, seed=seed))
        o = RankOracle(st)
        basis = find_basis(160, o)
        assert o.ledger.rank_count == 160
        assert basis.dtype == np.int64 and (np.diff(basis) > 0).all()
        # ground truth: exactly r_i members per part, so |B| = rank(V)
        per_part = {i: 0 for i in range(st.k)}
        for e in basis.tolist():
            per_part[int(st.part_of[e])] += 1
        assert all(per_part[i] == int(st.capacities[i]) for i in range(st.k))


class TestFindRepresentatives:
    def test_minimal_instance(self):
        o = cap_oracle([[0, 1]], [1])
        basis = find_basis(2, o)
        reps = find_representatives(2, o, basis)
        assert reps.inside.tolist() == [0]
        assert reps.outside.tolist() == [1]
        assert reps.phi == {0: 1}

    def test_five_element_example(self):
        o = cap_oracle([[0, 1, 2], [3, 4]], [2, 1])
        basis = find_basis(5, o)
        reps = find_representatives(5, o, basis)
        inside = set(reps.inside.tolist())
        assert len(inside & {0, 1}) == 1 and 3 in inside
        assert reps.outside.tolist() == [2, 4]
        # phi maps each inside representative to a friend outside the basis
        assert reps.phi[3] == 4
        assert reps.phi[next(iter(inside & {0, 1}))] == 2

    @pytest.mark.parametrize("n,seed", [(96, 0), (256, 1), (512, 2)])
    def test_transversals_and_query_bound(self, n, seed):
        st, _ = generate(InstanceSpec("capacitated-random", n, seed=seed))
        o = RankOracle(st)
        basis = find_basis(n, o)
        before = o.ledger.rank_count
        reps = find_representatives(n, o, basis)
        spent = o.ledger.rank_count - before
        r = basis.size
        k = st.k
        assert spent <= (n - r) + k * math.ceil(math.log2(r))
        # T1 and T2 hit every part exactly once; phi is part-preserving
        for side, in_basis in ((reps.inside, True), (reps.outside, False)):
            seen = [int(st.part_of[e]) for e in side.tolist()]
            assert sorted(seen) == list(range(k))
            basis_set = set(basis.tolist())
            for e in side.tolist():
                assert (e in basis_set) == in_basis
        for t1, t2 in reps.phi.items():
            assert st.part_of[t1] == st.part_of[t2]


class TestLearnWithReps:
    def test_minimal(self):
        o = cap_oracle([[0, 1]], [1])
        basis = find_basis(2, o)
        reps = find_representatives(2, o, basis)
        matroid = learn_matroid_with_reps(2, o, basis, reps)
        assert matroid.as_tuples() == (((0, 1),), (1,))

    def test_simulated_simple_ranks_match_brute_force(self):
        # exhaustive over all subsets of both sides (sizes <= 10)
        from rankprobe.matroid import _inside_oracle, _outside_oracle, _side_complement

        cases = [
            ([[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]], [2, 1, 2]),
            ([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]], [2, 2, 2, 2]),
        ]
        for parts, caps in cases:
            n = sum(len(p) for p in parts)
            o = cap_oracle(parts, caps)
            b = find_basis(n, o)
            reps = find_representatives(n, o, b)
            outside = _side_complement(n, b)
            restricted_b = [[e for e in p if e in set(b.tolist())] for p in parts]
            restricted_out = [[e for e in p if e in set(outside.tolist())] for p in parts]
            sides = [
                (_inside_oracle(o, b, reps.outside), b, restricted_b),
                (_outside_oracle(o, b, outside, reps.inside), outside, restricted_out),
            ]
            for sim, side, restricted in sides:
                for code in range(2**side.size):
                    pos = [i for i in range(side.size) if (code >> i) & 1]
                    expected = brute_rank(restricted, None, side[pos].tolist())
                    assert sim.rank(pos) == expected

    @pytest.mark.parametrize(
        "basis",
        [np.array([0.0, 2.0]), np.array([[0, 2]])],
        ids=["float-array", "2-d-array"],
    )
    def test_basis_follows_the_integer_rule(self, basis):
        # a float basis was caught only by the oracle, as bad element ids; a 2-D
        # one raised a bare ValueError or IndexError after a query
        o = cap_oracle([[0, 1], [2, 3]], [1, 1])
        reps = find_representatives(4, cap_oracle([[0, 1], [2, 3]], [1, 1]), np.array([0, 2]))
        with pytest.raises(UsageError, match="basis"):
            find_representatives(4, o, basis)
        with pytest.raises(UsageError, match="basis"):
            learn_matroid_with_reps(4, o, basis, reps)
        assert (o.ledger.rank_count, o.ledger.independence_count) == (0, 0)

    @pytest.mark.parametrize(
        "basis,match",
        [
            ([5, 3, 1, 0], "strictly ascending"),
            ([0, 1, 3, 3, 5], "strictly ascending"),
            ([0, 3, 1, 5], "strictly ascending"),
            ([0, 1, 3, 8], "out of range"),
            ([-1, 0, 3, 5], "out of range"),
        ],
        ids=["descending", "repeated", "one-out-of-order", "id-n", "id-minus-1"],
    )
    def test_basis_must_be_strictly_ascending_in_range(self, basis, match):
        # [5, 3, 1, 0] spent 10 queries and returned T1 = [5, 3, 0]
        parts, caps = [[0, 1, 2], [3, 4], [5, 6, 7]], [2, 1, 1]
        o = cap_oracle(parts, caps)
        reps = find_representatives(8, cap_oracle(parts, caps), [0, 1, 3, 5])
        with pytest.raises(UsageError, match=match):
            find_representatives(8, o, basis)
        with pytest.raises(UsageError, match=match):
            learn_matroid_with_reps(8, o, basis, reps)
        assert (o.ledger.rank_count, o.ledger.independence_count) == (0, 0)

    def test_basis_as_a_list(self):
        # a list raised AttributeError ('list' object has no attribute 'size')
        truth = CapacitatedPartition([[0, 1], [2, 3]], [1, 1])
        reps = find_representatives(4, RankOracle(truth), [0, 2])
        assert reps.inside.tolist() == [0, 2] and reps.outside.tolist() == [1, 3]
        assert learn_matroid_with_reps(4, RankOracle(truth), [0, 2], reps).matches(truth)

    def test_random_instance(self):
        st, _ = generate(InstanceSpec("capacitated-random", 2048, seed=7))
        o = RankOracle(st)
        run = learn_partition_matroid_run(2048, o)
        assert run.matroid.matches(st)


class TestLearnPartitionMatroid:
    def test_all_ones_matches_find_partition(self):
        parts = [[0, 1], [2, 3], [4, 5, 6]]
        o = cap_oracle(parts, [1, 1, 1])
        matroid = learn_partition_matroid(7, o)
        simple = find_partition(7, RankOracle(HiddenPartition(parts)))
        assert canonical(matroid.parts) == canonical(simple)
        assert matroid.capacities.tolist() == [1, 1, 1]

    def test_five_element_example(self):
        o = cap_oracle([[0, 1, 2], [3, 4]], [2, 1])
        matroid = learn_partition_matroid(5, o)
        assert matroid.as_tuples() == (((0, 1, 2), (3, 4)), (2, 1))

    def test_exhaustive_n5(self):
        for parts, caps in enumerate_capacitated(5):
            o = cap_oracle(parts, caps)
            matroid = learn_partition_matroid(5, o)
            assert matroid.matches(CapacitatedPartition(parts, caps))

    def test_stage_records(self):
        st, _ = generate(InstanceSpec("capacitated-random", 256, seed=3))
        o = RankOracle(st)
        run = learn_partition_matroid_run(256, o)
        stages = [s.label for s in run.stages]
        assert stages == ["basis", "representatives", "inside-basis", "outside-basis", "stitch"]
        assert run.stages[0].rank_queries == 256
        assert sum(s.rank_queries for s in run.stages) == o.ledger.rank_count

    @pytest.mark.parametrize(
        "learner,labels",
        [
            (learn_partition_matroid_run, ["basis", "representatives", "inside-basis", "outside-basis", "stitch"]),
            (baseline_independence_learner_run, ["basis", "representatives", "outside-basis", "inside-basis", "stitch"]),
        ],
        ids=["rank-learner", "baseline"],
    )
    def test_nested_run_keeps_its_stages(self, learner, labels):
        # run inside a caller's phase, the stages were [] (the ledger listed
        # only outermost records)
        st, _ = generate(InstanceSpec("capacitated-random", 64, seed=1))
        o = RankOracle(st)
        with o.ledger.phase("outer") as outer:
            run = learner(64, o)
        assert [s.label for s in run.stages] == labels
        assert sum(s.rank_queries for s in run.stages) == outer.rank_queries == o.ledger.rank_count
        assert (
            sum(s.independence_queries for s in run.stages)
            == outer.independence_queries
            == o.ledger.independence_count
        )

    def test_query_bound(self):
        config = load_regression_config()
        c_mat = config.value("C_mat")
        for n, seed in ((256, 0), (1024, 1), (4096, 2)):
            st, _ = generate(InstanceSpec("capacitated-random", n, seed=seed))
            o = RankOracle(st)
            run = learn_partition_matroid_run(n, o)
            assert run.matroid.matches(st)
            r = st.rank_total
            assert o.ledger.rank_count <= c_mat * (n + st.k * math.log2(max(2, r)))

    def test_rank_learner_repeated_friend_is_an_invariant_violation(self):
        # this lie made the representative search find one friend twice;
        # the run then failed later with DecodeFailure
        st, _ = generate(InstanceSpec("capacitated-random", 128, seed=3))
        with pytest.raises(InvariantViolation, match="friend twice"):
            learn_partition_matroid_run(128, _ShiftedRank(st, 12))


class TestLearnedMatroid:
    def test_one_class_family_with_type_strict_equality(self):
        parts, caps = [[0, 1, 2], [3, 4]], [2, 1]
        learned = LearnedMatroid(parts, caps)
        assert isinstance(learned, CapacitatedPartition)
        assert learned == LearnedMatroid([[4, 3], [2, 0, 1]], [1, 2])
        assert learned != CapacitatedPartition(parts, caps)
        assert CapacitatedPartition(parts, caps) != learned
        assert HiddenPartition(parts) != CapacitatedPartition(parts, caps)
        assert learned.matches(CapacitatedPartition(parts, caps))
        assert learned.matches(HiddenPartition(parts))
        assert not learned.matches(CapacitatedPartition(parts, [1, 1]))

    @pytest.mark.parametrize(
        "parts,caps",
        [([[0, 1, 2], [2, 3, 4]], [1, 1]), ([[0, 1], [3, 4]], [1, 1]), ([[0, 1, 2], [3, 4]], [1, 2])],
        ids=["overlap", "missing", "capacity"],
    )
    def test_invalid_learner_output(self, parts, caps):
        with pytest.raises(InvariantViolation):
            LearnedMatroid(parts, caps, 5)


class _FlippedIndependence(RankOracle):
    """Answers the ``at``-th independence query (1-based) wrongly."""

    def __init__(self, structure, at):
        super().__init__(structure)
        self.at = at
        self.asked = 0

    def is_independent(self, s):
        value = super().is_independent(s)
        self.asked += 1
        return value != (self.asked == self.at)


class _ShiftedRank(RankOracle):
    """Answers the ``at``-th rank query (1-based) one too high."""

    def __init__(self, structure, at):
        super().__init__(structure)
        self.at = at
        self.asked = 0

    def rank(self, s):
        value = super().rank(s)
        self.asked += 1
        return value + (self.asked == self.at)


class TestBaseline:
    @pytest.mark.parametrize("at", [12, 133, 217])
    def test_one_flipped_answer_is_not_a_silent_non_partition(self, at):
        # flip 12 made the representative search find one friend twice (a
        # repeated id in a later probe, UsageError); flips 133 and 217 made
        # the baseline return "parts" holding 125 and 131 ids of 128
        st, _ = generate(InstanceSpec("capacitated-random", 128, seed=3))
        with pytest.raises(InvariantViolation):
            baseline_independence_learner_run(128, _FlippedIndependence(st, at))

    def test_single_part(self):
        o = cap_oracle([[0, 1, 2]], [2])
        run = baseline_independence_learner_run(3, o)
        assert run.matroid.as_tuples() == (((0, 1, 2),), (2,))
        assert o.ledger.rank_count == 0

    def test_two_pairs(self):
        o = cap_oracle([[0, 1], [2, 3]], [1, 1])
        run = baseline_independence_learner_run(4, o)
        assert run.matroid.as_tuples() == (((0, 1), (2, 3)), (1, 1))

    def test_only_independence_queries(self):
        st, _ = generate(InstanceSpec("capacitated-random", 256, seed=5))
        o = RankOracle(st)
        run = baseline_independence_learner_run(256, o)
        assert run.matroid.matches(st)
        assert o.ledger.rank_count == 0
        assert o.ledger.independence_count > 0

    def test_exhaustive_n5_agreement(self):
        for parts, caps in enumerate_capacitated(5):
            truth = CapacitatedPartition(parts, caps)
            rank_run = learn_partition_matroid(5, cap_oracle(parts, caps))
            base_run = baseline_independence_learner_run(5, cap_oracle(parts, caps))
            assert rank_run.matches(truth)
            assert base_run.matroid.matches(truth)
            assert rank_run == base_run.matroid

    def test_query_bound(self):
        config = load_regression_config()
        c_base = config.value("c_base")
        for n, seed in ((256, 0), (1024, 1)):
            st, _ = generate(InstanceSpec("capacitated-random", n, seed=seed))
            o = RankOracle(st)
            run = baseline_independence_learner_run(n, o)
            assert run.matroid.matches(st)
            bound = c_base * n * math.log2(st.k + 1) + n
            assert o.ledger.independence_count <= bound


class TestPinnedLedgers:
    """Exact ledgers on one fixed instance: a probe that changes a query set shows here."""

    @pytest.fixture(scope="class")
    def structure(self):
        st, _ = generate(InstanceSpec("capacitated-random", 2**11, k=256, seed=1))
        return st

    def stage_counts(self, run):
        return [(s.label, s.rank_queries + s.independence_queries) for s in run.stages]

    def test_rank_learner(self, structure):
        o = RankOracle(structure)
        run = learn_partition_matroid_run(2**11, o)
        assert run.matroid.matches(structure)
        assert (o.ledger.rank_count, o.ledger.independence_count) == (13729, 0)
        assert self.stage_counts(run) == [
            ("basis", 2048),
            ("representatives", 3579),
            ("inside-basis", 4100),
            ("outside-basis", 4002),
            ("stitch", 0),
        ]

    def test_baseline(self, structure):
        o = RankOracle(structure)
        run = baseline_independence_learner_run(2**11, o)
        assert run.matroid.matches(structure)
        assert (o.ledger.rank_count, o.ledger.independence_count) == (0, 23469)
        assert self.stage_counts(run) == [
            ("basis", 2048),
            ("representatives", 3579),
            ("outside-basis", 6064),
            ("inside-basis", 11778),
            ("stitch", 0),
        ]

    @pytest.mark.parametrize(
        "learner,digest",
        [
            (
                learn_partition_matroid_run,
                "a58070fe17f5b620618fc1e1dc978ffcffe3d9333e62dba577fad3cc40bf9235",
            ),
            (
                baseline_independence_learner_run,
                "ad96b66e874c201477be4d276c1da82d77138e983bcc084c054a22de782a58da",
            ),
        ],
        ids=["rank-learner", "baseline"],
    )
    def test_query_stream(self, structure, learner, digest):
        # equal counts can hide a changed query set; hash every query in order
        o = RecordingOracle(structure)
        learner(2**11, o)
        assert o.digest.hexdigest() == digest


def _small_oracle():
    return cap_oracle([[0, 1, 2], [3, 4], [5, 6, 7, 8, 9]], [2, 1, 3])


def _small_basis_and_reps():
    o = _small_oracle()
    basis = find_basis(10, o)
    return basis, find_representatives(10, o, basis)


class TestUniverseSize:
    @pytest.mark.parametrize(
        "learner",
        [
            find_basis,
            lambda n, o: find_representatives(n, o, find_basis(10, _small_oracle())),
            lambda n, o: learn_matroid_with_reps(n, o, *_small_basis_and_reps()),
            learn_partition_matroid_run,
            baseline_independence_learner_run,
        ],
        ids=[
            "find_basis",
            "find_representatives",
            "learn_matroid_with_reps",
            "learn_partition_matroid_run",
            "baseline",
        ],
    )
    @pytest.mark.parametrize("n", [0, 5, 11, 10.0])
    def test_n_must_be_the_oracles_universe(self, learner, n):
        o = _small_oracle()
        with pytest.raises(UsageError):
            learner(n, o)
        assert (o.ledger.rank_count, o.ledger.independence_count) == (0, 0)


class TestExtremeShapes:
    def test_single_part_matroid(self):
        parts = [list(range(512))]
        for caps in ([1], [256], [511]):
            truth = CapacitatedPartition(parts, caps)
            o = RankOracle(truth)
            run = learn_partition_matroid_run(512, o)
            assert run.matroid.matches(truth)
            assert baseline_independence_learner_run(
                512, RankOracle(CapacitatedPartition(parts, caps))
            ).matroid.matches(truth)

    def test_max_capacities_everywhere(self):
        st, _ = generate(InstanceSpec("capacitated-random", 256, seed=4, capacity_rule="max"))
        report = run_learner(st, "learn_partition_matroid", audit=True)
        assert report.correct
        big = sum(int(c) for c in st.capacities if c >= 2)
        assert report.ledger["audit_count"] == st.k + 2 + big

    def test_two_parts_even_split(self):
        n = 1024
        truth = CapacitatedPartition([range(0, n, 2), range(1, n, 2)], [3, 200])
        o = RankOracle(truth)
        run = learn_partition_matroid_run(n, o)
        assert run.matroid.matches(truth)

    def test_audit_counts_isolated(self):
        st, _ = generate(InstanceSpec("capacitated-random", 128, seed=9))
        plain = run_learner(st, "learn_partition_matroid")
        audited = run_learner(st, "learn_partition_matroid", audit=True)
        assert plain.correct and audited.correct
        assert plain.learned_parts == audited.learned_parts
        assert plain.learned_capacities == audited.learned_capacities
        assert plain.phases == audited.phases
        for key in ("rank_count", "independence_count", "per_phase"):
            assert plain.ledger[key] == audited.ledger[key]
        assert plain.ledger["audit_count"] == 0 < audited.ledger["audit_count"]


class _ConvertedRank(RankOracle):
    """Answers every rank query with ``convert`` applied to the true rank."""

    def __init__(self, structure, convert):
        super().__init__(structure)
        self.convert = convert

    def rank(self, s):
        return self.convert(super().rank(s))


class TestRankAnswerTypes:
    """Each learner checks a rank answer once, where it reads it."""

    # learner, its instance family, and whether its answer is the truth
    LEARNERS = {
        "find_partition": (
            find_partition,
            "uniform-k",
            lambda parts, st: canonical(parts) == st.as_tuples(),
        ),
        "learn_partition_matroid": (
            learn_partition_matroid,
            "capacitated-random",
            lambda matroid, st: matroid.matches(st),
        ),
    }

    # find_partition raised a bare TypeError on a float rank(V) (math.isqrt)
    # and took bools as ranks 0 and 1; learn_partition_matroid raised a bare
    # TypeError on floats and an IndexError on half-integers (an empty basis)
    @pytest.mark.parametrize("convert", [float, lambda r: r + 0.5, bool], ids=["float", "half", "bool"])
    @pytest.mark.parametrize("learner", LEARNERS)
    def test_non_integer_answers_are_usage_errors(self, learner, convert):
        learn, family, _ = self.LEARNERS[learner]
        st, _ = generate(InstanceSpec(family, 256, k=16, seed=1))
        with pytest.raises(UsageError, match="a rank answer must be an integer"):
            learn(256, _ConvertedRank(st, convert))

    @pytest.mark.parametrize("learner", LEARNERS)
    def test_numpy_integer_answers_are_accepted(self, learner):
        learn, family, is_truth = self.LEARNERS[learner]
        st, _ = generate(InstanceSpec(family, 256, k=16, seed=1))
        plain, converted = RankOracle(st), _ConvertedRank(st, np.int64)
        assert is_truth(learn(256, converted), st) and is_truth(learn(256, plain), st)
        assert converted.ledger.snapshot() == plain.ledger.snapshot()

    @pytest.mark.parametrize("convert", [float, bool], ids=["float", "bool"])
    def test_simulated_oracles_check_the_base_answer(self, convert):
        from rankprobe.matroid import _inside_oracle, _outside_oracle, _side_complement

        b, reps = _small_basis_and_reps()
        odd = _ConvertedRank(_small_oracle().structure, convert)
        outside = _side_complement(10, b)
        for sim in (_inside_oracle(odd, b, reps.outside), _outside_oracle(odd, b, outside, reps.inside)):
            with pytest.raises(UsageError, match="a rank answer must be an integer"):
                sim.rank(np.array([0, 1]))


class _PassThrough(RankOracle):
    """RankOracle's answers through overriding methods: every probe is built as a set."""

    def rank(self, s):
        return super().rank(s)

    def is_independent(self, s):
        return super().is_independent(s)


class TestBaseProbePaths:
    """The base probes answer from counts on a RankOracle, and as sets otherwise."""

    INSTANCES = [
        *(InstanceSpec("capacitated-random", n, seed=s) for n in (64, 256, 2**11) for s in (1, 2)),
        InstanceSpec("equal-blocks", 256, seed=1, capacitated=True, capacity_rule="ones"),
    ]

    @staticmethod
    def every_learner(n, make, structure):
        def record(oracle, run, *answer):
            stages = run and [(s.label, s.rank_queries, s.independence_queries) for s in run.stages]
            return oracle.ledger.snapshot(), stages, answer

        out = []
        for learner in (learn_partition_matroid_run, baseline_independence_learner_run):
            o = make(structure)
            run = learner(n, o)
            out.append(record(o, run, run.matroid.as_tuples()))
        o = make(structure)
        basis = find_basis(n, o)
        out.append(record(o, None, basis.tolist()))
        o = make(structure)
        reps = find_representatives(n, o, basis)
        out.append(record(o, None, reps.inside.tolist(), reps.outside.tolist(), reps.phi))
        o = make(structure)
        out.append(record(o, None, learn_matroid_with_reps(n, o, basis, reps).as_tuples()))
        return out

    @pytest.mark.parametrize("spec", INSTANCES, ids=lambda s: f"{s.family}-{s.n}-{s.seed}")
    def test_fast_path_equals_fallback(self, spec):
        from rankprobe import model

        st, _ = generate(spec)
        assert type(model._base_probe(RankOracle(st), [0])) is model._BaseProbe
        assert type(model._base_probe(_PassThrough(st), [0])) is model._BuiltProbe
        fast = self.every_learner(spec.n, RankOracle, st)
        assert fast == self.every_learner(spec.n, _PassThrough, st)
        assert fast[0][2][0] == LearnedMatroid(st.parts, st.capacities).as_tuples()

    def test_patched_methods_see_every_query(self, monkeypatch):
        # a check of the class attribute alone (type(o).rank is RankOracle.rank)
        # would still take the counted path behind such a patch, which saw
        # no query at all
        calls = {"rank": 0, "is_independent": 0}

        def counting(name):
            original = getattr(RankOracle, name)

            def wrapper(self, s):
                calls[name] += 1
                return original(self, s)

            return wrapper

        monkeypatch.setattr(RankOracle, "rank", counting("rank"))
        monkeypatch.setattr(RankOracle, "is_independent", counting("is_independent"))
        st, _ = generate(InstanceSpec("capacitated-random", 256, seed=1))
        for learner in (learn_partition_matroid_run, baseline_independence_learner_run):
            calls.update(rank=0, is_independent=0)
            o = RankOracle(st)
            assert learner(256, o).matroid.matches(st)
            ledger = o.ledger
            assert (calls["rank"], calls["is_independent"]) == (ledger.rank_count, ledger.independence_count)
            assert ledger.rank_count + ledger.independence_count > 0

    def test_patched_instance_method_sees_every_query(self):
        st, _ = generate(InstanceSpec("capacitated-random", 256, seed=2))
        o = RankOracle(st)
        calls = []
        rank = o.rank
        o.rank = lambda s: calls.append(len(s)) or rank(s)
        assert learn_partition_matroid_run(256, o).matroid.matches(st)
        assert len(calls) == o.ledger.rank_count > 0
