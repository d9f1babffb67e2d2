"""Instance generation, experiment orchestration, verification, and reporting.

Instances are canonical JSON documents; generation is a pure function of an
InstanceSpec (family, size, parameters, seed) using a documented PRNG
(numpy PCG64).  Runs verify the learned structure against ground truth and
report exact ledger snapshots; sweeps run their instances one after another
in (n, seed) order.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .matroid import baseline_independence_learner_run, learn_partition_matroid_run
from .model import (
    CapacitatedPartition,
    HiddenPartition,
    RankOracle,
    _as_list,
    _check_int,
    certify,
    instance_digest,
)
from .partition import find_partition_run

__all__ = [
    "FAMILIES",
    "LEARNERS",
    "RNG_ALGORITHM",
    "InstanceSpec",
    "generate",
    "RunReport",
    "run_learner",
    "sweep",
    "sweep_rows_to_csv",
]

FAMILIES = (
    "uniform-k",
    "geometric-sizes",
    "equal-blocks",
    "singleton-heavy",
    "capacitated-random",
)

LEARNERS = ("find_partition", "learn_partition_matroid", "baseline")

RNG_ALGORITHM = "numpy-pcg64-v1"

CAPACITY_RULES = ("uniform-random", "ones", "max")


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe for one instance.

    ``k`` is the family parameter: part count for uniform-k and
    capacitated-random, heavy-part count for singleton-heavy, block size for
    equal-blocks (ignored by geometric-sizes).  Defaults chosen per family
    when omitted; for uniform-k the default holds k fixed across n so sweeps
    compare like against like.
    """

    family: str
    n: int
    k: int = None
    seed: int = 0
    capacitated: bool = False
    capacity_rule: str = "uniform-random"

    def resolved_k(self):
        if self.k is not None:
            return int(self.k)
        if self.family == "uniform-k":
            return max(1, min(64, self.n // 4))
        if self.family == "equal-blocks":
            return 4
        if self.family == "singleton-heavy":
            return max(1, self.n // 32)
        if self.family == "capacitated-random":
            return max(1, self.n // 8)
        return 0  # geometric-sizes derives its shape from n


def _rng(spec):
    return np.random.default_rng(np.random.PCG64(spec.seed))


def _cut(order, sizes):
    """Cut ``order`` into consecutive parts of the given sizes."""
    # plain slices: np.split pays a swapaxes per part, about 1 us each
    ends = np.cumsum(sizes).tolist()
    return [order[a:b] for a, b in zip([0, *ends[:-1]], ends)]


def generate(spec):
    """Build the ground-truth structure for a spec; returns (structure, meta).

    Raises UsageError for infeasible parameters (k > n, capacitated families
    without room for every part to have at least two elements, ...).
    """
    if spec.family not in FAMILIES:
        raise UsageError(f"unknown family {spec.family!r}")
    if spec.capacity_rule not in CAPACITY_RULES:
        raise UsageError(f"unknown capacity rule {spec.capacity_rule!r}")
    _check_int(spec.n, "n")
    _check_int(spec.seed, "seed")
    if spec.k is not None:
        _check_int(spec.k, "k")
    n = int(spec.n)
    if n < 1:
        raise UsageError("instances need n >= 1")
    if spec.seed < 0:
        raise UsageError(f"seed must be nonnegative, got {spec.seed}")
    k = spec.resolved_k()
    rng = _rng(spec)
    capacitated = spec.capacitated or spec.family == "capacitated-random"

    if spec.family == "uniform-k":
        if k > n or k < 1:
            raise UsageError(f"uniform-k needs 1 <= k <= n, got k={k}")
        assign = np.concatenate(
            (np.arange(k, dtype=np.int64), rng.integers(0, k, n - k, dtype=np.int64))
        )
        rng.shuffle(assign)
        # a stable sort keeps each part ascending
        parts = _cut(np.argsort(assign, kind="stable"), np.bincount(assign, minlength=k))
    elif spec.family == "geometric-sizes":
        sizes = []
        rem = n
        while rem:
            s = max(1, rem // 2)
            sizes.append(s)
            rem -= s
        parts = _cut(rng.permutation(n), sizes)
    elif spec.family == "equal-blocks":
        block = k
        if block < 1:
            raise UsageError("equal-blocks needs a positive block size")
        parts = [np.arange(i, min(i + block, n)) for i in range(0, n, block)]
    elif spec.family == "singleton-heavy":
        if k < 0:
            raise UsageError(f"singleton-heavy needs k >= 0, got k={k}")
        heavy = max(0, min(k, n // 4))  # k parts of 4, or as many as fit
        parts = _cut(rng.permutation(n), [4] * heavy + [1] * (n - 4 * heavy))
    else:  # capacitated-random
        if k < 1:
            raise UsageError(f"capacitated-random needs k >= 1, got k={k}")
        if 2 * k > n:
            raise UsageError(
                f"capacitated families need parts of size >= 2: 2k = {2*k} > n = {n}"
            )
        extra = rng.multinomial(n - 2 * k, np.full(k, 1.0 / k))
        parts = _cut(rng.permutation(n), 2 + extra)

    meta = {
        "family": spec.family,
        "k": k,
        "seed": int(spec.seed),
        "rng": RNG_ALGORITHM,
        "capacity_rule": spec.capacity_rule if capacitated else None,
    }

    if not capacitated:
        return HiddenPartition(parts), meta

    sizes = np.asarray([len(p) for p in parts])
    if np.any(sizes < 2):
        raise UsageError("capacitated instances require every part to have >= 2 elements")
    if spec.capacity_rule == "ones":
        caps = np.ones(len(parts), dtype=np.int64)
    elif spec.capacity_rule == "max":
        caps = sizes - 1
    else:
        caps = np.array([1 + int(rng.integers(0, s - 1)) for s in sizes], dtype=np.int64)
    return CapacitatedPartition(parts, caps), meta


@dataclass
class RunReport:
    """Outcome of one learner run on one instance."""

    instance_digest: str
    learner: str
    n: int
    k: int
    correct: bool
    wall_time: float
    ledger: dict
    phases: list
    learned_parts: list
    learned_capacities: list
    audit: bool = False
    routed_to: str = None

    def to_json(self, include_wall_time=True):
        doc = {
            "instance_digest": self.instance_digest,
            "learner": self.learner,
            "n": self.n,
            "k": self.k,
            "correct": self.correct,
            "ledger": self.ledger,
            "phases": self.phases,
            "learned_parts": self.learned_parts,
            "learned_capacities": self.learned_capacities,
            "audit": self.audit,
            "routed_to": self.routed_to,
        }
        if include_wall_time:
            doc["wall_time"] = self.wall_time
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def run_learner(structure, learner, audit=False):
    """Execute one learner against a fresh oracle; verify against ground truth.

    Compatibility: find_partition accepts simple instances and all-ones
    capacitated ones.  The matroid learners accept capacitated instances and
    simple instances whose parts all have >= 2 elements (treated as all-ones
    capacities); simple instances with singleton parts are routed to
    find_partition, since no valid capacitated structure can describe them.

    With ``audit`` the learned structure, whichever learner gave it, is
    certified once against the oracle (``model.certify``).  Its queries are
    charged to ``audit_count`` alone: k + 2 on a simple answer, k + 2 plus
    the capacities of at least 2 on a matroid answer.  A wrong answer raises
    InvariantViolation.
    """
    if learner not in LEARNERS:
        raise UsageError(f"unknown learner {learner!r}")
    simple = structure.capacities is None
    route, target = learner, structure
    if learner == "find_partition":
        if not simple and np.any(structure.capacities != 1):
            raise UsageError("find_partition requires a simple (or all-ones) instance")
    elif simple and min(p.size for p in structure.parts) < 2:
        # singleton parts admit no valid capacities; fall back per policy
        route = "find_partition"
    elif simple:
        target = CapacitatedPartition(structure.parts, [1] * structure.k)

    oracle = RankOracle(target)
    t0 = time.perf_counter()
    if route == "find_partition":
        run = find_partition_run(target.n, oracle)
    elif route == "learn_partition_matroid":
        run = learn_partition_matroid_run(target.n, oracle)
    else:
        run = baseline_independence_learner_run(target.n, oracle)
    wall = time.perf_counter() - t0
    if audit:
        learned = HiddenPartition(run.parts, target.n) if route == "find_partition" else run.matroid
        certify(oracle, learned)

    if route == "find_partition":
        learned_parts = [p.tolist() for p in run.parts]
        correct = learned_parts == [p.tolist() for p in structure.parts]
        learned_caps = None
        phases = [
            {
                "phase": p.label,
                "merges": sum(s.phase == p.label for s in run.merge_stats),
                "thick_merges": sum(s.thick for s in run.merge_stats if s.phase == p.label),
                "rank_queries": p.rank_queries,
            }
            for p in run.phases
        ]
    else:
        learned_parts = [p.tolist() for p in run.matroid.parts]
        correct = run.matroid.matches(target)
        learned_caps = [int(c) for c in run.matroid.capacities]
        phases = [
            {
                "stage": s.label,
                "rank_queries": s.rank_queries,
                "independence_queries": s.independence_queries,
            }
            for s in run.stages
        ]

    return RunReport(
        instance_digest=instance_digest(structure),
        learner=learner,
        n=structure.n,
        k=structure.k,
        correct=bool(correct),
        wall_time=wall,
        ledger=oracle.ledger.snapshot(),
        phases=phases,
        learned_parts=learned_parts,
        learned_capacities=learned_caps,
        audit=audit,
        routed_to=None if route == learner else route,
    )


SWEEP_COLUMNS = [
    "row_kind",
    "n",
    "k",
    "family",
    "seed",
    "learner",
    "rank_queries",
    "independence_queries",
    "correct",
    "queries_per_n",
    "phase_pairwise_merge",
    "phase_final_fold",
    "stage_basis",
    "stage_representatives",
    "stage_inside_basis",
    "stage_outside_basis",
    "stage_stitch",
]


def _sweep_row(spec, learner):
    structure, meta = generate(spec)
    report = run_learner(structure, learner)
    metric = (
        report.ledger["independence_count"]
        if learner == "baseline"
        else report.ledger["rank_count"]
    )
    row = {key: "" for key in SWEEP_COLUMNS}
    row.update(
        {
            "row_kind": "data",
            "n": spec.n,
            "k": meta["k"],
            "family": spec.family,
            "seed": spec.seed,
            "learner": learner,
            "rank_queries": report.ledger["rank_count"],
            "independence_queries": report.ledger["independence_count"],
            "correct": report.correct,
            "queries_per_n": f"{metric / spec.n:.6f}",
        }
    )
    for ph in report.phases:
        if "phase" in ph:
            key = "phase_" + ph["phase"].replace("-", "_")
            row[key] = ph["rank_queries"]
        else:
            key = "stage_" + ph["stage"].replace("-", "_")
            row[key] = ph["rank_queries"] + ph["independence_queries"]
    return row


def sweep(family, n_values, reps, learner, base_seed=0, k=None):
    """Run the sweep grid; returns (rows, summary_rows).

    Runs execute serially and rows come out in (n, seed) order.  The work is
    interpreter-bound, so worker threads would only contend for the
    interpreter lock.  The per-n summary statistic is the worst case: max
    queries/n over that n's rows (rank queries for rank learners,
    independence queries for the baseline).

    The grid is checked before any run: ``family`` and ``learner`` must be
    known, ``n_values`` an iterable of integers and ``reps`` an integer of at
    least 1, otherwise UsageError.  An empty ``n_values`` gives empty lists.
    """
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}")
    if learner not in LEARNERS:
        raise UsageError(f"unknown learner {learner!r}")
    _check_int(reps, "reps")
    if reps < 1:
        raise UsageError(f"reps must be at least 1, got {reps}")
    n_values = _as_list(n_values, "n_values")
    for n in n_values:
        _check_int(n, "n")
    specs = []
    for n in sorted(n_values):
        for rep in range(reps):
            specs.append(InstanceSpec(family=family, n=n, k=k, seed=base_seed + rep))
    rows = [_sweep_row(s, learner) for s in specs]
    summaries = []
    for n in sorted({r["n"] for r in rows}):
        group = [r for r in rows if r["n"] == n]
        metric = "independence_queries" if learner == "baseline" else "rank_queries"
        worst = max(r[metric] / r["n"] for r in group)
        summaries.append(
            {
                "n": n,
                "family": family,
                "learner": learner,
                "rows": len(group),
                "max_queries_per_n": worst,
                "all_correct": all(r["correct"] for r in group),
            }
        )
    return rows, summaries


def sweep_rows_to_csv(rows, summaries):
    """Stable CSV rendering: data rows, then per-n summary rows.

    Summary rows carry the worst-case queries/n for their n in the
    queries_per_n column (max over rows, not the mean).
    """
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    for s in summaries:
        out = {key: "" for key in SWEEP_COLUMNS}
        out.update(
            {
                "row_kind": "summary",
                "n": s["n"],
                "family": s["family"],
                "learner": s["learner"],
                "correct": s["all_correct"],
                "queries_per_n": f"{s['max_queries_per_n']:.6f}",
            }
        )
        writer.writerow(out)
    return buf.getvalue()
