"""rankprobe: learning hidden partitions and partition matroids with rank queries.

The package provides ground-truth structures with exactly-accounted rank and
independence oracles, coin-weighing reconstruction primitives, a linear-query
partition learner, the general partition matroid pipeline with its
independence-only baseline, and a benchmark harness with frozen query-count
regressions.
"""

from .errors import (
    DecodeFailure,
    InternalConsistencyError,
    InvariantViolation,
    ProtocolError,
    UsageError,
)
from .model import (
    CapacitatedPartition,
    HiddenPartition,
    QueryLedger,
    RankOracle,
    add_query_sim,
    instance_digest,
    read_instance,
    sum_query_sim,
    write_instance,
)
from .weighing import (
    build_detecting_matrix,
    recover_matching,
    recover_sparse,
)
from .partition import (
    components,
    find_partition,
    find_partition_run,
    merge,
)
from .matroid import (
    baseline_independence_learner,
    baseline_independence_learner_run,
    find_basis,
    find_representatives,
    learn_matroid_with_reps,
    learn_partition_matroid,
    learn_partition_matroid_run,
)
from .bench import (
    InstanceSpec,
    generate,
    run_learner,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
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
]
