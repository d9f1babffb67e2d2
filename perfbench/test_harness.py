"""Self-test of the benchmark harness on tiny instances (n <= 256).

    PYTHONPATH=src python3 -m pytest -q perfbench

Each workload shape runs at a tiny size on the default and the held-out seed.
The query metrics must equal ledgers of independent learner runs, traced
oracle calls must equal the ledger, and a wrong learner output must land in
the failed count and the exit status.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._use_checkout_program()  # rankprobe from this checkout's src/

import harness  # noqa: E402
import spec  # noqa: E402
from rankprobe import RankOracle, bench  # noqa: E402
from rankprobe.matroid import baseline_independence_learner, learn_partition_matroid  # noqa: E402
from rankprobe.partition import find_partition  # noqa: E402

TINY = {
    "partition-small-parts": dict(n=256, k=8),
    "partition-large-parts": dict(n=256, k=64),
    "matroid-capacitated": dict(n=256, k=32),
    "sweep-grid": dict(n=256, sweep_ns=(64, 128, 256)),
}
SEEDS = (spec.DEFAULT_SEED, spec.HELD_OUT_SEED)


def tiny(name):
    return dataclasses.replace(spec.WORKLOADS[name], **TINY[name])


def independent_ledgers(workload, seed):
    """Ledgers of each learner run on fresh oracles, outside the harness."""
    if workload.sweep_ns:
        specs = [
            bench.InstanceSpec(workload.family, n, k=workload.k, seed=seed + rep)
            for n in workload.sweep_ns
            for rep in range(workload.reps)
        ]
    else:
        specs = [bench.InstanceSpec(workload.family, workload.n, k=workload.k, seed=seed)]
    learn = {
        "find_partition": find_partition,
        "learn_partition_matroid": learn_partition_matroid,
        "baseline": baseline_independence_learner,
    }
    ledgers, n_total = [], 0
    for s in specs:
        structure, _ = bench.generate(s)
        n_total += structure.n
        for learner in workload.learners:
            oracle = RankOracle(structure)
            learn[learner](structure.n, oracle)
            ledgers.append(oracle.ledger)
    return ledgers, n_total


def test_benchmark_json_matches_spec():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()
    ]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in spec.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    # the layer map names real end-to-end metrics and workloads
    for m in spec.PER_LAYER:
        assert set(m.moves) <= {e.name for e in spec.END_TO_END}, m.name
        assert m.shows_on and set(m.shows_on) <= set(spec.WORKLOADS), m.name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(TINY))
def test_query_metrics_equal_independent_ledgers(name, seed):
    w = tiny(name)
    meas = harness.Measurement(harness.prepare(w, seed))
    meas.run_for(0.0, 2)
    assert meas.correct, meas.problems
    assert (meas.attempted, meas.failed) == (2 * meas.prep.runs_per_op, 0)

    metrics = harness.end_to_end(meas, [0.5])
    ledgers, n_total = independent_ledgers(w, seed)
    rank = sum(lg.rank_count for lg in ledgers)
    indep = sum(lg.independence_count for lg in ledgers)
    assert metrics["rank_queries_per_n"] == rank / n_total
    assert metrics["queries_per_n"] == (rank + indep) / n_total
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_equal_ledger(name):
    w = tiny(name)
    tracer = harness.new_tracer()
    with tracer.installed():
        prep = harness.prepare(w, spec.DEFAULT_SEED)
        meas = harness.Measurement(prep)
        op = meas.op()
    assert meas.correct, meas.problems
    assert harness.trace_problems(tracer) == []

    layers = harness.per_layer(tracer, 0.0)
    ledgers = [r.ledger for r in op.reports]
    assert layers["model.rank.calls"] == sum(lg["rank_count"] for lg in ledgers)
    assert layers["model.is_independent.calls"] == sum(lg["independence_count"] for lg in ledgers)
    assert layers["partition.com_discovery.queries"] == sum(
        lg["per_phase"].get("com-discovery", 0) for lg in ledgers
    )
    assert set(layers) == {m.name for m in spec.PER_LAYER}
    if w.sweep_ns:
        assert layers["bench.sweep.concurrency"] > 0
    # the wrappers are gone again: untraced calls leave no spans
    before = tracer.totals()["model.rank"]["calls"]
    harness.run_op(prep)
    assert tracer.totals()["model.rank"]["calls"] == before


def test_trace_counts_catch_a_miscounted_run():
    tracer = harness.new_tracer()
    with tracer.installed():
        harness.Measurement(harness.prepare(tiny("partition-small-parts"), 1)).op()
    tracer.threads[0].stats["ledger_by_run"][1] = (0, 0)
    assert harness.trace_problems(tracer)


def _wrong_parts(monkeypatch):
    """Make run_learner return a merged pair of parts while claiming success."""
    inner = bench.run_learner

    def run_learner(*args, **kwargs):
        report = inner(*args, **kwargs)
        parts = report.learned_parts
        report.learned_parts = [sorted(parts[0] + parts[1])] + parts[2:]
        return report

    monkeypatch.setattr(bench, "run_learner", run_learner)


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrong_output_lands_in_failed(name, monkeypatch):
    _wrong_parts(monkeypatch)
    meas = harness.Measurement(harness.prepare(tiny(name), spec.DEFAULT_SEED))
    meas.run_for(0.0, 2)
    assert meas.failed == meas.attempted == 2 * meas.prep.runs_per_op
    assert not meas.correct


def test_command_exits_nonzero_on_wrong_output(monkeypatch, capsys):
    monkeypatch.setitem(spec.WORKLOADS, "sweep-grid", tiny("sweep-grid"))
    assert run.main(["--workload", "sweep-grid", "--seconds", "0.01", "--trace", "1"]) == 0
    ok = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert ok["correct"] and ok["failed"] == 0

    _wrong_parts(monkeypatch)
    assert run.main(["--workload", "sweep-grid", "--seconds", "0.01", "--trace", "1"]) == 1
    bad = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not bad["correct"] and bad["failed"] == bad["attempted"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "sweep-grid"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
