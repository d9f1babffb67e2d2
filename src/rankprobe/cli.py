"""Benchmark command line: gen / run / sweep.

Exit codes: 0 on success, 1 on a correctness or regression failure, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bench import (
    CAPACITY_RULES,
    FAMILIES,
    LEARNERS,
    InstanceSpec,
    generate,
    run_learner,
    sweep,
    sweep_rows_to_csv,
)
from .errors import UsageError
from .model import read_instance, write_instance
from .regression import load_regression_config


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rankprobe",
        description="Learn hidden partitions and partition matroids through rank queries, "
        "with exact query accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a canonical instance file")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", required=True, type=int)
    gen.add_argument("--k", type=int, default=None, help="family parameter (part count or block size)")
    gen.add_argument("--capacitated", action="store_true", help="attach capacities (parts must have >= 2 elements)")
    gen.add_argument("--capacity-rule", default="uniform-random", choices=CAPACITY_RULES)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("-o", "--output", required=True)

    run = sub.add_parser("run", help="run one learner against an instance file")
    run.add_argument("--instance", required=True)
    run.add_argument("--learner", required=True, choices=LEARNERS)
    run.add_argument("--audit", action="store_true", help="certify the learned structure; its queries count in audit_count only")
    run.add_argument("--json", action="store_true", help="emit the full report as JSON")

    sw = sub.add_parser("sweep", help="run a scaling sweep and write CSV")
    sw.add_argument("--family", required=True, choices=FAMILIES)
    sw.add_argument("--n-min", required=True, type=int)
    sw.add_argument("--n-max", required=True, type=int)
    sw.add_argument("--reps", required=True, type=int)
    sw.add_argument("--learner", required=True, choices=LEARNERS)
    sw.add_argument("--k", type=int, default=None)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("-o", "--output", required=True)
    return parser


def _cmd_gen(args):
    spec = InstanceSpec(
        family=args.family,
        n=args.n,
        k=args.k,
        seed=args.seed,
        capacitated=args.capacitated,
        capacity_rule=args.capacity_rule,
    )
    structure, meta = generate(spec)
    write_instance(args.output, structure, meta)
    print(f"wrote {args.output} (n={structure.n}, k={structure.k})")
    return 0


def _cmd_run(args):
    structure, _meta = read_instance(args.instance)
    report = run_learner(structure, args.learner, audit=args.audit)
    if args.json:
        print(report.to_json())
    else:
        print(
            f"learner={report.learner} n={report.n} k={report.k} "
            f"correct={report.correct} rank_queries={report.ledger['rank_count']} "
            f"independence_queries={report.ledger['independence_count']}"
        )
    return 0 if report.correct else 1


def _cmd_sweep(args):
    # n doubles from --n-min, so it must start at 1 or more to reach --n-max
    if args.n_min < 1:
        raise UsageError(f"--n-min must be at least 1, got {args.n_min}")
    if args.n_max < args.n_min:
        raise UsageError(f"--n-max ({args.n_max}) must be at least --n-min ({args.n_min})")
    if args.reps < 1:
        raise UsageError(f"--reps must be at least 1, got {args.reps}")
    # the frozen C_total gates find_partition sweeps; load it before any run
    limit = math.inf
    if args.learner == "find_partition":
        limit = load_regression_config().value("C_total")
    n_values = []
    n = args.n_min
    while n <= args.n_max:
        n_values.append(n)
        n *= 2
    # open the output before the sweep runs, so an unwritable path costs no run
    try:
        fh = open(args.output, "w")
    except OSError as exc:
        raise UsageError(f"cannot write sweep file {args.output}: {exc.strerror or exc}") from exc
    with fh:
        try:
            rows, summaries = sweep(
                args.family,
                n_values,
                args.reps,
                args.learner,
                base_seed=args.seed,
                k=args.k,
            )
        except BaseException:
            # a sweep that stops (a bad --k, an interrupt) leaves no empty file
            fh.close()
            os.remove(args.output)
            raise
        fh.write(sweep_rows_to_csv(rows, summaries))
    failed = [s for s in summaries if not s["all_correct"]]
    regression_failed = [s for s in summaries if s["max_queries_per_n"] > limit]
    for s in summaries:
        print(
            f"n={s['n']}: rows={s['rows']} max_queries/n={s['max_queries_per_n']:.3f} "
            f"all_correct={s['all_correct']}"
        )
    if failed:
        print("FAIL: incorrect reconstruction in sweep", file=sys.stderr)
        return 1
    if regression_failed:
        print("FAIL: queries/n exceeded frozen C_total", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
