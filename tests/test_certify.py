"""model.certify: honest answers pass at the stated cost, wrong ones fail.

The fault test shifts single rank answers and checks that no learner run
ends in a silently wrong answer: each one raises a rankprobe error, or
returns an answer the certificate rejects, or returns the truth.
"""

import numpy as np
import pytest

from rankprobe import (
    CapacitatedPartition,
    DecodeFailure,
    HiddenPartition,
    InternalConsistencyError,
    InvariantViolation,
    ProtocolError,
    RankOracle,
    UsageError,
    find_partition_run,
    learn_partition_matroid_run,
)
from rankprobe.bench import FAMILIES, InstanceSpec, generate, run_learner
from rankprobe.model import certify

RANKPROBE_ERRORS = (UsageError, DecodeFailure, ProtocolError, InternalConsistencyError, InvariantViolation)


def cost(structure):
    caps = structure.effective_capacities()
    return structure.k + 2 + int(caps[caps >= 2].sum())


def audit_queries(truth, answer):
    o = RankOracle(truth)
    certify(o, answer)
    assert (o.ledger.rank_count, o.ledger.independence_count) == (0, 0)
    return o.ledger.audit_count


class TestHonestAnswers:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_learner_passes_at_the_stated_cost(self, family):
        st, _ = generate(InstanceSpec(family, 128, seed=3))
        learners = ["learn_partition_matroid", "baseline"]
        if st.capacities is None:
            learners.append("find_partition")
        for learner in learners:
            plain = run_learner(st, learner)
            report = run_learner(st, learner, audit=True)
            assert report.correct
            for key in ("rank_count", "independence_count", "per_phase"):
                assert report.ledger[key] == plain.ledger[key]
            caps = report.learned_capacities or [1] * len(report.learned_parts)
            want = len(caps) + 2 + sum(c for c in caps if c >= 2)
            assert report.ledger["audit_count"] == want

    def test_the_truth_passes(self):
        for truth in (
            HiddenPartition([[0], [1, 2], [3, 4, 5]]),
            CapacitatedPartition([[0, 1, 2], [3, 4, 5, 6], [7, 8]], [2, 3, 1]),
        ):
            assert audit_queries(truth, truth) == cost(truth)

    def test_universe_mismatch_rejected_before_any_query(self):
        o = RankOracle(HiddenPartition([[0, 1], [2]]))
        with pytest.raises(UsageError, match="universe"):
            certify(o, HiddenPartition([[0, 1]]))
        assert o.ledger.audit_count == 0

    @pytest.mark.parametrize(
        "structure", [[[0, 1], [2]], None, np.array([0, 0, 1])], ids=["list", "none", "array"]
    )
    def test_non_structure_rejected_before_any_query(self, structure):
        # a list of parts or None once raised a bare AttributeError
        o = RankOracle(HiddenPartition([[0, 1], [2]]))
        with pytest.raises(UsageError, match="HiddenPartition"):
            certify(o, structure)
        assert o.ledger.audit_count == 0


class TestWrongAnswers:
    @pytest.mark.parametrize(
        "truth,answer,check",
        [
            # two simple parts merged: B misses a part, so it cannot span V
            (
                HiddenPartition([[0, 1], [2, 3], [4, 5]]),
                HiddenPartition([[0, 1, 2, 3], [4, 5]]),
                "2",
            ),
            # a part split: two basis elements share a true part
            (
                HiddenPartition([[0, 1], [2, 3], [4, 5]]),
                HiddenPartition([[0], [1], [2, 3], [4, 5]]),
                "1",
            ),
            # a boundary moved: B is a basis, but a learned part spans two true parts
            (HiddenPartition([[0, 1], [2, 3]]), HiddenPartition([[0, 1, 2], [3]]), "3"),
            # two matroid parts merged, capacities summed: only the swaps tell
            (
                CapacitatedPartition([[0, 2, 4], [1, 3, 5]], [1, 1]),
                CapacitatedPartition([range(6)], [2]),
                "4",
            ),
            # a capacity too small: B cannot span V
            (
                CapacitatedPartition([[0, 1, 2], [3, 4, 5]], [2, 1]),
                CapacitatedPartition([[0, 1, 2], [3, 4, 5]], [1, 1]),
                "2",
            ),
            # a capacity too large: B is dependent
            (
                CapacitatedPartition([[0, 1, 2], [3, 4, 5]], [2, 1]),
                CapacitatedPartition([[0, 1, 2], [3, 4, 5]], [2, 2]),
                "1",
            ),
        ],
        ids=["merged", "split", "moved", "merged-matroid", "capacity-low", "capacity-high"],
    )
    def test_fails_the_expected_check(self, truth, answer, check):
        with pytest.raises(InvariantViolation, match=f"certificate check {check} "):
            certify(RankOracle(truth), answer)


class _ShiftedOracle(RankOracle):
    """Answers rank query number ``at`` (counting from 0) off by ``delta``."""

    def __init__(self, structure, at, delta):
        super().__init__(structure)
        self.at, self.delta, self.asked = at, delta, 0

    def rank(self, s):
        value = super().rank(s)
        self.asked += 1
        return value + self.delta if self.asked - 1 == self.at else value


class TestFaultyOracle:
    @pytest.mark.parametrize(
        "family,learn",
        [
            ("uniform-k", lambda n, o: HiddenPartition(find_partition_run(n, o).parts, n)),
            ("capacitated-random", lambda n, o: learn_partition_matroid_run(n, o).matroid),
        ],
        ids=["find_partition", "learn_partition_matroid"],
    )
    def test_no_silent_wrong_answer(self, family, learn):
        truth, _ = generate(InstanceSpec(family, 128, seed=3))
        honest = RankOracle(truth)
        learn(truth.n, honest)
        rng = np.random.default_rng(5)
        outcomes = {"error": 0, "rejected": 0, "right": 0}
        for at in rng.choice(honest.ledger.rank_count, size=60, replace=False).tolist():
            for delta in (1, -1):
                try:
                    answer = learn(truth.n, _ShiftedOracle(truth, at, delta))
                except RANKPROBE_ERRORS:
                    outcomes["error"] += 1
                    continue
                right = answer.as_tuples() == truth.as_tuples()
                try:
                    certify(RankOracle(truth), answer)
                except InvariantViolation:
                    assert not right, f"shift {delta:+d} at query {at}: the truth was rejected"
                    outcomes["rejected"] += 1
                    continue
                assert right, f"shift {delta:+d} at query {at}: a wrong answer passed"
                outcomes["right"] += 1
        # every outcome occurs, so the test exercises each branch
        assert min(outcomes.values()) > 0, outcomes
