import rankprobe

PUBLIC_NAMES = {
    "UsageError",
    "DecodeFailure",
    "ProtocolError",
    "InternalConsistencyError",
    "InvariantViolation",
    "HiddenPartition",
    "CapacitatedPartition",
    "QueryLedger",
    "RankOracle",
    "sum_query_sim",
    "add_query_sim",
    "instance_digest",
    "read_instance",
    "write_instance",
    "build_detecting_matrix",
    "recover_sparse",
    "recover_matching",
    "merge",
    "components",
    "find_partition",
    "find_partition_run",
    "find_basis",
    "find_representatives",
    "learn_matroid_with_reps",
    "learn_partition_matroid",
    "learn_partition_matroid_run",
    "baseline_independence_learner",
    "baseline_independence_learner_run",
    "InstanceSpec",
    "generate",
    "run_learner",
    "sweep",
}


def test_public_surface_is_pinned():
    assert len(rankprobe.__all__) == len(PUBLIC_NAMES) == 32
    assert set(rankprobe.__all__) == PUBLIC_NAMES
    for name in rankprobe.__all__:
        assert getattr(rankprobe, name) is not None
