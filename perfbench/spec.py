"""What the benchmark measures: workload recipes, metric definitions, layer map.

This module imports only the standard library, so the set-up probe can load it
before the clock starts.  ``BENCHMARK.json`` at the repository root repeats the
workload names and metric definitions; ``test_harness.py`` checks that the two
agree.

Sizes are 2-8 times smaller than the paper-scale instances (n = 2^13 to 2^16):
one run of the benchmark must finish several operations inside ``run_seconds``
so that it can report a median, and a full comparison (22 runs per workload)
must fit in under an hour.  Each workload keeps the regime it stands for (part
size, query mix, code path).
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1
# Tuning happens on DEFAULT_SEED; a claim is confirmed on this one as well.
HELD_OUT_SEED = 2


@dataclass(frozen=True)
class Workload:
    """One fixed, seeded recipe.

    ``sweep_ns`` empty: generate one instance of ``family`` with ``n`` and
    ``k`` and run each learner in ``learners`` on it.  ``sweep_ns`` set: one
    ``bench.sweep(family, sweep_ns, reps, learners[0], base_seed=seed)`` call.
    ``k`` of None means the family default.
    """

    name: str
    family: str
    n: int
    k: int | None
    learners: tuple
    why: str
    sweep_ns: tuple = ()
    reps: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="partition-small-parts",
            family="uniform-k",
            n=2**13,
            k=None,  # family default: 64
            learners=("find_partition",),
            why="find_partition on uniform-k n=2^13 k=64: merges of sets <= 64 elements, "
            "so per-call overhead (validation, merge bookkeeping, halving) dominates",
        ),
        Workload(
            name="partition-large-parts",
            family="uniform-k",
            n=2**12,
            k=2**10,
            learners=("find_partition",),
            why="find_partition on uniform-k n=2^12 k=2^10, the dense k=n/4 regime: large "
            "independent sets, so oracle counting and Kronecker decoding show",
        ),
        Workload(
            name="matroid-capacitated",
            family="capacitated-random",
            n=2**11,
            k=256,
            learners=("learn_partition_matroid", "baseline"),
            why="learn_partition_matroid then baseline on capacitated-random n=2^11 k=256: "
            "the only matroid stages and independence queries; the paper's comparison",
        ),
        Workload(
            name="sweep-grid",
            family="uniform-k",
            n=2**11,
            k=None,
            learners=("find_partition",),
            sweep_ns=(2**9, 2**10, 2**11),
            reps=2,
            why="one bench.sweep of find_partition on uniform-k n=2^9..2^11 x 2 reps with "
            "library defaults: the only workload that runs the sweep's worker threads",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    """A reported metric.  ``moves``/``shows_on`` give a layer metric's target."""

    name: str
    unit: str
    better: str
    bound: float | None = None
    moves: tuple = ()
    shows_on: tuple = ()


SMALL, LARGE, MATROID, SWEEP = (
    "partition-small-parts",
    "partition-large-parts",
    "matroid-capacitated",
    "sweep-grid",
)
ALL = (SMALL, LARGE, MATROID, SWEEP)

# Reported with tracing off.  Times are medians over the run's operations (or
# set-up probes), in seconds corrected for the machine's speed (speed.py).
# A share of learner runs that failed and the independence-query rate alone
# would read 0 on (some) workloads, and a metric whose median is 0 has no
# relative bound: failures are carried by the result line's "attempted" and
# "failed" fields, and independence queries by queries_per_n (all charged
# oracle queries) next to rank_queries_per_n.
END_TO_END = (
    Metric("learn_s", "s", "lower", 0.25),
    Metric("elements_per_s", "elements/s", "higher", 0.25),
    Metric("rank_queries_per_n", "queries/element", "lower", 0.05),
    Metric("queries_per_n", "queries/element", "lower", 0.05),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)


def _layer(name, unit, better, moves, shows_on):
    return Metric(name, unit, better, None, tuple(moves), tuple(shows_on))


# Reported by the traced run, totalled over its traced set-up and one traced
# operation; span times are raw wall seconds.  Layers a workload never reaches
# read 0 there (the bypass case).  Under the sweep's worker threads a span's
# time includes waiting for the interpreter lock, so self times there add up
# to more than the operation's wall time.
PER_LAYER = (
    # model: the oracle, its input validation and the simulated sum/add queries
    _layer("model.as_element_array.calls", "count", "lower", ["learn_s"], [SMALL, MATROID]),
    _layer("model.as_element_array.self_s", "s", "lower", ["learn_s"], [SMALL, MATROID]),
    _layer("model.as_element_array.per_query", "calls/query", "lower", ["learn_s"], [SMALL, MATROID]),
    _layer("model.rank.calls", "count", "lower", ["rank_queries_per_n"], ALL),
    _layer("model.rank.self_s", "s", "lower", ["learn_s"], [LARGE]),
    _layer("model.rank.mean_elements", "elements", "lower", ["learn_s"], [LARGE]),
    _layer("model.is_independent.calls", "count", "lower", ["queries_per_n"], [MATROID]),
    _layer("model.is_independent.self_s", "s", "lower", ["learn_s"], [MATROID]),
    _layer("model.sum_query_sim.self_s", "s", "lower", ["learn_s"], [SMALL]),
    _layer("model.add_query_sim.self_s", "s", "lower", ["learn_s"], [SMALL]),
    # weighing: sparse recovery, detecting designs, matching recovery
    _layer("weighing.recover_sparse.self_s", "s", "lower", ["learn_s"], [SMALL]),
    _layer("weighing.recover_sparse.queries", "count", "lower", ["rank_queries_per_n"], ALL),
    _layer("weighing.recover_sparse.hybrid_frac", "ratio", "higher", ["rank_queries_per_n"], ALL),
    _layer("weighing.decode.calls", "count", "lower", ["learn_s"], [LARGE]),
    _layer("weighing.decode.self_s", "s", "lower", ["learn_s"], [LARGE]),
    _layer("weighing.decode.cols", "count", "higher", ["learn_s"], [LARGE]),
    _layer("weighing.build_detecting_matrix.self_s", "s", "lower", ["setup_s"], ALL),
    _layer("weighing.recover_matching.self_s", "s", "lower", ["learn_s"], [LARGE]),
    _layer("weighing.recover_matching.queries", "count", "lower", ["rank_queries_per_n"], [LARGE]),
    _layer("weighing.recover_matching.bitplane_frac", "ratio", "higher", ["rank_queries_per_n"], [LARGE]),
    # partition: the merge routine and the partition learner
    _layer("partition.merge.calls", "count", "lower", ["learn_s"], [SMALL]),
    _layer("partition.merge.self_s", "s", "lower", ["learn_s"], [SMALL]),
    _layer("partition.merge.thick_frac", "ratio", "lower", ["rank_queries_per_n"], ALL),
    _layer("partition.find_partition_run.self_s", "s", "lower", ["learn_s"], [SMALL]),
    _layer("partition.components.self_s", "s", "lower", ["learn_s"], [SMALL]),
    _layer("partition.com_discovery.queries", "count", "lower", ["rank_queries_per_n"], ALL),
    _layer("partition.matching.queries", "count", "lower", ["rank_queries_per_n"], ALL),
    # matroid: the reduction learner's stages and the independence baseline
    _layer("matroid.find_basis.self_s", "s", "lower", ["learn_s"], [MATROID]),
    _layer("matroid.find_representatives.self_s", "s", "lower", ["learn_s"], [MATROID]),
    _layer("matroid.learn_matroid_with_reps.self_s", "s", "lower", ["learn_s"], [MATROID]),
    _layer("matroid.baseline.self_s", "s", "lower", ["learn_s"], [MATROID]),
    *(
        _layer(f"matroid.{stage}.{kind}", "count", "lower", [moves], [MATROID])
        for stage in ("basis", "representatives", "inside_basis", "outside_basis")
        for kind, moves in (
            ("rank_queries", "rank_queries_per_n"),
            ("independence_queries", "queries_per_n"),
        )
    ),
    # bench: instance generation, the run wrapper and the sweep fan-out
    _layer("bench.generate.s", "s", "lower", ["setup_s"], ALL),
    _layer("bench.run_learner.self_s", "s", "lower", ["learn_s"], ALL),
    _layer("bench.sweep.self_s", "s", "lower", ["learn_s", "elements_per_s"], [SWEEP]),
    _layer("bench.sweep.concurrency", "ratio", "higher", ["learn_s", "elements_per_s"], [SWEEP]),
    # the tracer itself: traced learn_s over untraced learn_s, minus 1
    _layer("trace.overhead", "ratio", "lower", [], ALL),
)
