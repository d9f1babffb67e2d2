"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload partition-small-parts --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports rankprobe from the
checkout's ``src/``.  The workloads, metrics and the layer map are defined in
``spec.py``.

``--trace 0`` measures with tracing off and prints the end-to-end metrics:
set-up runs in fresh interpreters ``SETUP_PROBES`` times (``setup_s`` is
their median), then the workload's operation repeats for ``--seconds``
(at least ``MIN_OPS`` times) and timings are medians over those operations.
Every time is corrected for the machine's speed at the moment (``speed.py``).

``--trace 1`` prints the per-layer metrics: set-up runs traced, untraced
operations fill half of ``--seconds``, then one operation runs traced.  The
spans go to ``.perfbench/spans-<workload>.npz``, replacing the last run's.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and failed
count learner runs.  Exit status 0 means every check passed, 1 that a check
failed (the result line still prints, and the problems go to standard
error), 2 that the arguments are wrong or the program is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 5
MIN_OPS = 3
PROBE_TIMEOUT_S = 120


def _use_checkout_program():
    """Import rankprobe from this checkout's src/, never from elsewhere."""
    if not (SRC / "rankprobe" / "__init__.py").is_file():
        print(f"rankprobe sources not found under {SRC}; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _setup_probe(workload, seed):
    """Set up in this (fresh) interpreter and print the corrected seconds it took."""
    t0 = time.perf_counter()
    import harness

    harness.prepare(workload, seed)
    wall = time.perf_counter() - t0
    harness.speed.reference_s()  # the kernel's first call pays one-time NumPy costs
    print(harness.speed.corrected(wall, harness.speed.reference_s()))


def _setup_samples(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _untraced(args, workload):
    samples = _setup_samples(args)
    import harness

    prep = harness.prepare(workload, args.seed)
    meas = harness.Measurement(prep)
    meas.run_for(args.seconds, MIN_OPS)
    metrics = harness.end_to_end(meas, samples) if meas.ops else {}
    return meas, metrics, []


def _traced(args, workload):
    import harness

    tracer = harness.new_tracer()
    with tracer.installed():
        prep = harness.prepare(workload, args.seed)
    meas = harness.Measurement(prep)
    meas.run_for(args.seconds / 2, MIN_OPS)
    untraced = statistics.median(op.seconds for op in meas.ops) if meas.ops else None
    with tracer.installed():
        traced = None if meas.stopped else meas.op()
    if traced is None or untraced is None:
        return meas, {}, []
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}.npz")
    metrics = harness.per_layer(tracer, traced.seconds / untraced - 1)
    return meas, metrics, harness.trace_problems(tracer)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _use_checkout_program()
    workload = spec.WORKLOADS[args.workload]
    if args.setup_probe:
        _setup_probe(workload, args.seed)
        return 0

    meas, metrics, trace_problems = (_traced if args.trace else _untraced)(args, workload)
    problems = meas.problems + trace_problems
    correct = meas.correct and not trace_problems and bool(metrics)
    units = {m.name: m.unit for m in (spec.PER_LAYER if args.trace else spec.END_TO_END)}
    result = {
        "correct": correct,
        "attempted": meas.attempted,
        "failed": meas.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    for problem in problems[:20]:
        print(problem, file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
