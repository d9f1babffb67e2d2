"""Set-up, the timed operation, output checks and metrics for one workload.

The learners receive only the generated instance.  Every operation's output is
checked outside the timed region: learned structure against the generated
truth, the report's query fields against its ledger snapshot, the ledger
against the frozen constants of ``regression.json``, and the ledger against
the first operation's (same inputs, same bill).
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import rankprobe
from rankprobe import bench, matroid, model, partition, weighing
from rankprobe.regression import load_regression_config

import speed
from tracer import Tracer


@dataclass
class Prepared:
    """What set-up leaves for the timed operations."""

    workload: object
    seed: int
    config: object  # the frozen constants of regression.json
    truths: dict  # instance digest -> generated structure
    sweep_digests: dict  # (n, seed) -> instance digest, for sweep workloads
    structure: object = None  # the instance, for single-instance workloads

    @property
    def runs_per_op(self):
        return len(self.truths) * len(self.workload.learners)


@dataclass
class OpResult:
    wall: float
    reports: list
    problems: list = field(default_factory=list)
    seconds: float = None  # wall corrected for the machine's speed (see speed.py)


def _warm_design_tables():
    # The largest tier (1440 columns) builds every lazy table the decoder uses.
    matrix = weighing.build_detecting_matrix(1440)
    matrix.decode(matrix.measure([0] * 1440))


def prepare(workload, seed):
    """Generate the instance(s) and warm the lazy design tables."""
    truths, sweep_digests = {}, {}
    structure = None
    if workload.sweep_ns:
        # The sweep generates its own instances inside the timed call; these
        # copies are only the ground truth the checks compare against.
        for n in workload.sweep_ns:
            for rep in range(workload.reps):
                spec = bench.InstanceSpec(workload.family, n, k=workload.k, seed=seed + rep)
                truth, _ = bench.generate(spec)
                digest = model.instance_digest(truth)
                truths[digest] = truth
                sweep_digests[(n, seed + rep)] = digest
    else:
        spec = bench.InstanceSpec(workload.family, workload.n, k=workload.k, seed=seed)
        structure, _ = bench.generate(spec)
        truths[model.instance_digest(structure)] = structure
    _warm_design_tables()
    return Prepared(workload, seed, load_regression_config(), truths, sweep_digests, structure)


@contextmanager
def _captured_reports():
    """Collect the RunReport of every run_learner call the sweep makes."""
    reports = []
    inner = bench.run_learner

    def run_learner(*args, **kwargs):
        report = inner(*args, **kwargs)
        reports.append(report)
        return report

    bench.run_learner = run_learner
    try:
        yield reports
    finally:
        bench.run_learner = inner


def run_op(prep):
    """One timed operation: the workload's learner runs, or its one sweep call."""
    w = prep.workload
    if not w.sweep_ns:
        t0 = time.perf_counter()
        reports = [bench.run_learner(prep.structure, learner) for learner in w.learners]
        return OpResult(time.perf_counter() - t0, reports)
    with _captured_reports() as reports:
        t0 = time.perf_counter()
        rows, summaries = bench.sweep(
            w.family, list(w.sweep_ns), w.reps, w.learners[0], base_seed=prep.seed, k=w.k
        )
        wall = time.perf_counter() - t0
    return OpResult(wall, reports, _sweep_problems(prep, rows, summaries, reports))


def _sweep_problems(prep, rows, summaries, reports):
    """Each sweep row must restate the ledger of the run on its instance."""
    by_digest = {r.instance_digest: r for r in reports}
    if len(rows) != len(reports) or len(by_digest) != len(reports):
        return [f"sweep returned {len(rows)} rows from {len(reports)} runs"]
    problems = []
    for row in rows:
        report = by_digest.get(prep.sweep_digests.get((row["n"], row["seed"])))
        where = f"sweep row n={row['n']} seed={row['seed']}"
        if report is None:
            problems.append(f"{where}: no run on its instance")
        elif (row["rank_queries"], row["independence_queries"], row["correct"]) != (
            report.ledger["rank_count"],
            report.ledger["independence_count"],
            report.correct,
        ):
            problems.append(f"{where}: disagrees with the run's ledger")
        elif row["queries_per_n"] != f"{row['rank_queries'] / row['n']:.6f}":
            problems.append(f"{where}: queries_per_n disagrees with its counts")
    if not all(s["all_correct"] for s in summaries):
        problems.append("sweep summary reports an incorrect row")
    return problems


def _frozen_limit(config, report, truth):
    """(measured, limit) for the frozen constant that bounds this learner."""
    n, k = truth.n, truth.k
    ledger = report.ledger
    if report.learner == "find_partition":
        return ledger["rank_count"], config.value("C_total") * n
    if report.learner == "learn_partition_matroid":
        r = int(truth.effective_capacities().sum())
        return ledger["rank_count"], config.value("C_mat") * (n + k * math.log2(max(2, r)))
    return ledger["independence_count"], config.value("c_base") * n * math.log2(k + 1) + n


def check_report(prep, report):
    """Problems with one learner run's output, as strings (empty when right)."""
    truth = prep.truths.get(report.instance_digest)
    if truth is None:
        return [f"{report.learner}: report names an instance that was never generated"]
    problems = []
    where = f"{report.learner} n={report.n}"
    want_parts = [[int(e) for e in p] for p in truth.parts]
    if report.learned_parts != want_parts:
        problems.append(f"{where}: learned parts differ from the truth")
    want_caps = None if truth.capacities is None else [int(c) for c in truth.capacities]
    if report.learned_capacities != want_caps:
        problems.append(f"{where}: learned capacities differ from the truth")
    if not report.correct:
        problems.append(f"{where}: run_learner marked the run incorrect")

    ledger = report.ledger
    if ledger["audit_count"] != 0:
        problems.append(f"{where}: audit queries charged with audit off")
    # phases of find_partition carry rank queries; stages of the matroid
    # learners carry both kinds, each charged under a ledger phase of its name
    ranks = sum(ph["rank_queries"] for ph in report.phases)
    indeps = sum(ph.get("independence_queries", 0) for ph in report.phases)
    for ph in report.phases:
        label = ph.get("stage", ph.get("phase"))
        charged = ph["rank_queries"] + ph.get("independence_queries", 0)
        if ledger["per_phase"].get(label, 0) != charged:
            problems.append(f"{where}: {label} disagrees with the ledger phase")
    if (ranks, indeps) != (ledger["rank_count"], ledger["independence_count"]):
        problems.append(f"{where}: phase totals {ranks}/{indeps} differ from the ledger")

    measured, limit = _frozen_limit(prep.config, report, truth)
    if measured > limit:
        problems.append(f"{where}: {measured} queries exceed the frozen limit {limit:.1f}")
    return problems


def query_rates(reports):
    """(rank queries, all charged queries) per element of the distinct instances."""
    n_total = sum({r.instance_digest: r.n for r in reports}.values())
    rank = sum(r.ledger["rank_count"] for r in reports)
    indep = sum(r.ledger["independence_count"] for r in reports)
    return rank / n_total, (rank + indep) / n_total


def _ledger_key(reports):
    return sorted((r.instance_digest, r.learner, str(r.ledger)) for r in reports)


class Measurement:
    """Operations run so far in one benchmark run, with their checks.

    A learner run fails when it raised, when its output or query fields fail
    ``check_report``, or when its operation as a whole is wrong (a sweep row
    that misstates its run, or a ledger that differs from the first
    operation's on the same inputs).
    """

    def __init__(self, prep):
        self.prep = prep
        self.ops = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.stopped = False
        self._first_ledgers = None
        speed.reference_s()  # the kernel's first call pays one-time NumPy costs
        self._reference = speed.reference_s()

    def op(self):
        """Run, time and check one operation; returns it, or None if it raised."""
        expected = self.prep.runs_per_op
        self.attempted += expected
        try:
            result = run_op(self.prep)
        except Exception:  # the boundary: a run that raises is reported as failed
            self.failed += expected
            self.problems.append(traceback.format_exc())
            self.stopped = True  # same inputs, same program: it would raise again
            return None
        before, self._reference = self._reference, speed.reference_s()
        result.seconds = speed.corrected(result.wall, (before + self._reference) / 2)
        run_problems = [check_report(self.prep, r) for r in result.reports]
        op_problems = list(result.problems)
        if len(result.reports) != expected:
            op_problems.append(f"{len(result.reports)} learner runs, expected {expected}")
        key = _ledger_key(result.reports)
        if self._first_ledgers is None:
            self._first_ledgers = key
        elif key != self._first_ledgers:
            op_problems.append("ledgers differ from the first operation's on the same inputs")
        self.failed += expected if op_problems else sum(1 for p in run_problems if p)
        self.problems += op_problems + [p for ps in run_problems for p in ps]
        self.ops.append(result)
        return result

    def run_for(self, seconds, min_ops):
        """Operations until ``seconds`` have passed and at least ``min_ops`` ran."""
        deadline = time.perf_counter() + seconds
        done = 0
        while not self.stopped and (done < min_ops or time.perf_counter() < deadline):
            self.op()
            done += 1

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def end_to_end(meas, setup_samples):
    """The end-to-end metrics of an untraced run; times are corrected seconds."""
    ops = meas.ops
    times = [op.seconds for op in ops]
    rates = [sum(r.n for r in op.reports) / op.seconds for op in ops]
    rank_rate, all_rate = query_rates(ops[0].reports)
    return {
        "learn_s": statistics.median(times),
        "elements_per_s": statistics.median(rates),
        "rank_queries_per_n": rank_rate,
        "queries_per_n": all_rate,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# ---------------------------------------------------------------- tracing


def _add(stats, key, value):
    stats[key] = stats.get(key, 0) + value


def _observe_rank(stats, args, _result):
    _add(stats, "rank_elements", len(args[1]))


def _observe_sparse(stats, _args, result):
    _add(stats, "sparse_queries", result.queries_used)
    _add(stats, "sparse_hybrid", result.strategy == "hybrid")


def _observe_decode(stats, args, _result):
    _add(stats, "decode_cols", args[0].n_cols)


def _observe_matching(stats, args, result):
    _add(stats, "matching_queries", result.queries_used)
    _add(stats, "matching_bitplane", len(args[0]) >= weighing.MATCHING_SEARCH_CUTOFF)


def _observe_partition_run(stats, _args, result):
    _add(stats, "merges", len(result.merge_stats))
    _add(stats, "thick_merges", sum(s.thick for s in result.merge_stats))


def _observe_run_learner(stats, _args, run_and_report):
    run, report = run_and_report
    ledger = report.ledger
    stats.setdefault("ledger_by_run", {})[run] = (
        ledger["rank_count"],
        ledger["independence_count"],
    )
    for label, count in ledger["per_phase"].items():
        _add(stats, "phase:" + label, count)
    for ph in report.phases:
        if "stage" in ph:
            stage = ph["stage"].replace("-", "_")
            _add(stats, f"stage:{stage}:rank_queries", ph["rank_queries"])
            _add(stats, f"stage:{stage}:independence_queries", ph["independence_queries"])


# (span name, owner, attribute, observer, kind) for Tracer.  Not every span
# becomes a metric: learn_partition_matroid_run is traced so that its time is
# not counted as run_learner's self time.
TRACE_TARGETS = (
    ("model.as_element_array", model, "as_element_array", None, "plain"),
    ("model.rank", model.RankOracle, "rank", _observe_rank, "plain"),
    ("model.is_independent", model.RankOracle, "is_independent", None, "plain"),
    ("model.sum_query_sim", model, "sum_query_sim", None, "plain"),
    ("model.add_query_sim", model, "add_query_sim", None, "plain"),
    ("weighing.recover_sparse", weighing, "recover_sparse", _observe_sparse, "plain"),
    ("weighing.decode", weighing.DetectingMatrix, "decode", _observe_decode, "plain"),
    ("weighing.build_detecting_matrix", weighing, "build_detecting_matrix", None, "plain"),
    ("weighing.recover_matching", weighing, "recover_matching", _observe_matching, "plain"),
    ("partition.merge", partition, "merge", None, "plain"),
    ("partition.find_partition_run", partition, "find_partition_run", _observe_partition_run, "plain"),
    ("partition.components", partition, "components", None, "plain"),
    ("matroid.find_basis", matroid, "find_basis", None, "plain"),
    ("matroid.find_representatives", matroid, "find_representatives", None, "plain"),
    ("matroid.learn_matroid_with_reps", matroid, "learn_matroid_with_reps", None, "plain"),
    ("matroid.learn_partition_matroid_run", matroid, "learn_partition_matroid_run", None, "plain"),
    ("matroid.baseline", matroid, "baseline_independence_learner_run", None, "plain"),
    ("bench.generate", bench, "generate", None, "plain"),
    ("bench.run_learner", bench, "run_learner", _observe_run_learner, "run"),
    ("bench.sweep", bench, "sweep", None, "fanout"),
)


def new_tracer():
    modules = [rankprobe, model, weighing, partition, matroid, bench]
    return Tracer(modules, TRACE_TARGETS)


def trace_problems(tracer):
    """Traced oracle calls per run that differ from that run's ledger."""
    ledgers = tracer.stats().get("ledger_by_run", {})
    ranks = tracer.calls_per_run("model.rank")
    indeps = tracer.calls_per_run("model.is_independent")
    problems = []
    for run, (rank_count, indep_count) in sorted(ledgers.items()):
        if ranks.get(run, 0) != rank_count or indeps.get(run, 0) != indep_count:
            problems.append(
                f"run {run}: traced {ranks.get(run, 0)} rank / {indeps.get(run, 0)} "
                f"independence calls, ledger {rank_count} / {indep_count}"
            )
    outside = ranks.get(0, 0) + indeps.get(0, 0)
    if outside:
        problems.append(f"{outside} oracle calls traced outside any run_learner call")
    if not ledgers:
        problems.append("no run_learner call was traced")
    return problems


def per_layer(tracer, overhead):
    """The per-layer metrics of a traced run."""
    t = tracer.totals()
    s = tracer.stats()

    def ratio(a, b):
        return a / b if b else 0.0

    queries = t["model.rank"]["calls"] + t["model.is_independent"]["calls"]
    out = {
        "model.as_element_array.calls": t["model.as_element_array"]["calls"],
        "model.as_element_array.self_s": t["model.as_element_array"]["self_s"],
        "model.as_element_array.per_query": ratio(t["model.as_element_array"]["calls"], queries),
        "model.rank.calls": t["model.rank"]["calls"],
        "model.rank.self_s": t["model.rank"]["self_s"],
        "model.rank.mean_elements": ratio(s.get("rank_elements", 0), t["model.rank"]["calls"]),
        "model.is_independent.calls": t["model.is_independent"]["calls"],
        "model.is_independent.self_s": t["model.is_independent"]["self_s"],
        "model.sum_query_sim.self_s": t["model.sum_query_sim"]["self_s"],
        "model.add_query_sim.self_s": t["model.add_query_sim"]["self_s"],
        "weighing.recover_sparse.self_s": t["weighing.recover_sparse"]["self_s"],
        "weighing.recover_sparse.queries": s.get("sparse_queries", 0),
        "weighing.recover_sparse.hybrid_frac": ratio(
            s.get("sparse_hybrid", 0), t["weighing.recover_sparse"]["calls"]
        ),
        "weighing.decode.calls": t["weighing.decode"]["calls"],
        "weighing.decode.self_s": t["weighing.decode"]["self_s"],
        "weighing.decode.cols": s.get("decode_cols", 0),
        "weighing.build_detecting_matrix.self_s": t["weighing.build_detecting_matrix"]["self_s"],
        "weighing.recover_matching.self_s": t["weighing.recover_matching"]["self_s"],
        "weighing.recover_matching.queries": s.get("matching_queries", 0),
        "weighing.recover_matching.bitplane_frac": ratio(
            s.get("matching_bitplane", 0), t["weighing.recover_matching"]["calls"]
        ),
        "partition.merge.calls": t["partition.merge"]["calls"],
        "partition.merge.self_s": t["partition.merge"]["self_s"],
        "partition.merge.thick_frac": ratio(s.get("thick_merges", 0), s.get("merges", 0)),
        "partition.find_partition_run.self_s": t["partition.find_partition_run"]["self_s"],
        "partition.components.self_s": t["partition.components"]["self_s"],
        "partition.com_discovery.queries": s.get("phase:com-discovery", 0),
        "partition.matching.queries": s.get("phase:matching", 0),
        "matroid.find_basis.self_s": t["matroid.find_basis"]["self_s"],
        "matroid.find_representatives.self_s": t["matroid.find_representatives"]["self_s"],
        "matroid.learn_matroid_with_reps.self_s": t["matroid.learn_matroid_with_reps"]["self_s"],
        "matroid.baseline.self_s": t["matroid.baseline"]["self_s"],
    }
    for stage in ("basis", "representatives", "inside_basis", "outside_basis"):
        for kind in ("rank_queries", "independence_queries"):
            out[f"matroid.{stage}.{kind}"] = s.get(f"stage:{stage}:{kind}", 0)
    out.update(
        {
            "bench.generate.s": t["bench.generate"]["total_s"],
            "bench.run_learner.self_s": t["bench.run_learner"]["self_s"],
            "bench.sweep.self_s": t["bench.sweep"]["self_s"],
            "bench.sweep.concurrency": ratio(
                t["bench.run_learner"]["total_s"], t["bench.sweep"]["total_s"]
            )
            if t["bench.sweep"]["calls"]
            else 0.0,
            "trace.overhead": overhead,
        }
    )
    return out
