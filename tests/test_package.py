import importlib

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


# each module's __all__, which holds more than the package re-exports
MODULE_NAMES = {
    "bench": {
        "FAMILIES",
        "LEARNERS",
        "RNG_ALGORITHM",
        "InstanceSpec",
        "generate",
        "RunReport",
        "run_learner",
        "sweep",
        "sweep_rows_to_csv",
    },
    "matroid": {
        "LearnedMatroid",
        "MatroidRun",
        "find_basis",
        "find_representatives",
        "learn_matroid_with_reps",
        "learn_partition_matroid",
        "learn_partition_matroid_run",
        "baseline_independence_learner",
        "baseline_independence_learner_run",
    },
    "model": {
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
    },
    "partition": {"PartitionRun", "merge", "find_partition", "find_partition_run", "components"},
    "regression": {"RegressionConfig", "load_regression_config", "ENV_VAR"},
    "weighing": {"DetectingMatrix", "build_detecting_matrix", "recover_sparse", "recover_matching"},
}


def test_module_surfaces_are_pinned():
    assert sum(map(len, MODULE_NAMES.values())) == 44
    for module, names in MODULE_NAMES.items():
        mod = importlib.import_module(f"rankprobe.{module}")
        assert sorted(mod.__all__) == sorted(names), module
        for name in mod.__all__:
            assert getattr(mod, name) is not None
