"""Acceptance suite: one test per shipped criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import math
from itertools import permutations

import numpy as np
import pytest

from rankprobe import (
    CapacitatedPartition,
    HiddenPartition,
    RankOracle,
    baseline_independence_learner_run,
    build_detecting_matrix,
    find_basis,
    find_partition,
    find_representatives,
    learn_partition_matroid_run,
    recover_matching,
)
from rankprobe.bench import InstanceSpec, generate, run_learner, sweep, sweep_rows_to_csv
from rankprobe.matroid import _inside_oracle, _outside_oracle, _side_complement
from rankprobe.regression import load_regression_config

from _bruteforce import (
    as_dense,
    brute_rank,
    canonical,
    enumerate_capacitated,
    enumerate_set_partitions,
)

SIMPLE_FAMILIES = ("uniform-k", "geometric-sizes", "equal-blocks", "singleton-heavy")

CONFIG = load_regression_config()


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} ({name}): {verdict}" + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _uniform_k_choice(n, idx):
    options = [2, 3, max(2, n // 64), max(2, int(math.isqrt(n))), max(2, n // 8), max(2, n // 4), max(2, n // 2)]
    return options[idx % len(options)]


def test_criterion_01_exactness_simple_partitions():
    checked = 0
    for n in range(1, 8):
        for parts in enumerate_set_partitions(n):
            got = find_partition(n, RankOracle(HiddenPartition(parts)))
            assert canonical(got) == canonical(parts), f"exhaustive n={n} mismatch"
            checked += 1
    assert checked == 1155  # sum of Bell numbers 1..7

    allocation = {2**8: 430, 2**10: 50, 2**12: 14, 2**14: 6}  # 500 per family
    random_runs = 0
    for family in SIMPLE_FAMILIES:
        for n, count in allocation.items():
            for idx in range(count):
                k = _uniform_k_choice(n, idx) if family == "uniform-k" else None
                st, _ = generate(InstanceSpec(family, n, k=k, seed=idx))
                report = run_learner(st, "find_partition")
                assert report.correct, f"{family} n={n} seed={idx} incorrect"
                random_runs += 1
    _report(1, "exactness, simple partitions", True, f"1155 exhaustive + {random_runs} random runs exact")


def test_criterion_02_exactness_general_matroids():
    exhaustive = 0
    for n in range(2, 7):
        for parts, caps in enumerate_capacitated(n):
            truth = CapacitatedPartition(parts, caps)
            a = learn_partition_matroid_run(n, RankOracle(truth)).matroid
            b = baseline_independence_learner_run(n, RankOracle(truth)).matroid
            assert a.matches(truth) and b.matches(truth) and a == b, f"n={n} {parts} {caps}"
            exhaustive += 1

    allocation = {2**8: 90, 2**9: 45, 2**10: 35, 2**11: 16, 2**12: 9, 2**13: 5}  # 200 total
    random_runs = 0
    for n, count in allocation.items():
        for idx in range(count):
            st, _ = generate(InstanceSpec("capacitated-random", n, seed=idx))
            a = run_learner(st, "learn_partition_matroid")
            b = run_learner(st, "baseline")
            assert a.correct and b.correct, f"n={n} seed={idx}"
            assert a.learned_parts == b.learned_parts
            assert a.learned_capacities == b.learned_capacities
            random_runs += 1
    _report(2, "exactness, general matroids", True, f"{exhaustive} exhaustive + {random_runs} random, both learners agree")


def test_criterion_03_linear_scaling():
    limit = CONFIG.value("C_total")
    n_values = [2**p for p in range(10, 17)]
    per_n = {}
    for family in SIMPLE_FAMILIES:
        _rows, summaries = sweep(family, n_values, reps=1, learner="find_partition", base_seed=1)
        for s in summaries:
            assert s["all_correct"]
            per_n.setdefault(s["n"], 0.0)
            per_n[s["n"]] = max(per_n[s["n"]], s["max_queries_per_n"])
    worst = max(per_n.values())
    drift = per_n[2**16] - per_n[2**10]
    ok = worst <= limit and drift <= 0.5
    detail = (
        f"max queries/n = {worst:.3f} (limit {limit}), "
        f"ratio(2^16) - ratio(2^10) = {drift:+.3f} (limit +0.5); floor is 1.0"
    )
    _report(3, "linear scaling", ok, detail)


def test_criterion_04_find_basis_exact_query_count():
    checked = 0
    for n, seed in ((2**8, 0), (2**9, 1), (2**10, 2), (777, 3), (2**12, 4)):
        st, _ = generate(InstanceSpec("capacitated-random", n, seed=seed))
        o = RankOracle(st)
        find_basis(n, o)
        assert o.ledger.rank_count == n, f"n={n}: {o.ledger.rank_count} != {n}"
        checked += 1
    for parts, caps in ((( [0, 1], ), (1,)), (([0, 1, 2], [3, 4]), (2, 1))):
        n = sum(len(p) for p in parts)
        o = RankOracle(CapacitatedPartition(parts, caps))
        find_basis(n, o)
        assert o.ledger.rank_count == n
        checked += 1
    _report(4, "basis query count exactly n", True, f"{checked} instances, zero tolerance")


def test_criterion_05_find_representatives_query_bound():
    checked = 0
    for n, seed in ((2**8, 0), (2**9, 1), (2**10, 2), (2**11, 3), (2**12, 4), (2**13, 5)):
        st, _ = generate(InstanceSpec("capacitated-random", n, seed=seed))
        o = RankOracle(st)
        basis = find_basis(n, o)
        before = o.ledger.rank_count
        reps = find_representatives(n, o, basis)
        spent = o.ledger.rank_count - before
        r = basis.size
        bound = (n - r) + st.k * math.ceil(math.log2(r))
        assert spent <= bound, f"n={n}: {spent} > {bound}"
        assert reps.k == st.k
        checked += 1
    _report(5, "representatives query bound", True, f"{checked} instances within (n-r) + k*ceil(log2 r)")


def test_criterion_06_matroid_scaling():
    c_mat = CONFIG.value("C_mat")
    c_lin = CONFIG.value("C_mat_linear")
    worst_general, worst_linear = 0.0, 0.0
    for n in (2**8, 2**9, 2**10, 2**11, 2**12, 2**13):
        for seed in (0, 1):
            st, _ = generate(InstanceSpec("capacitated-random", n, seed=seed))
            o = RankOracle(st)
            run = learn_partition_matroid_run(n, o)
            assert run.matroid.matches(st)
            r = st.rank_total
            worst_general = max(
                worst_general, o.ledger.rank_count / (n + st.k * math.log2(max(2, r)))
            )
            k_small = max(2, n // 16)
            if k_small <= n / math.log2(n):
                st2, _ = generate(InstanceSpec("capacitated-random", n, k=k_small, seed=seed))
                o2 = RankOracle(st2)
                run2 = learn_partition_matroid_run(n, o2)
                assert run2.matroid.matches(st2)
                worst_linear = max(worst_linear, o2.ledger.rank_count / n)
    ok = worst_general <= c_mat and worst_linear <= c_lin
    _report(
        6,
        "matroid query scaling",
        ok,
        f"max total/(n+k log2 r) = {worst_general:.3f} (limit {c_mat}); "
        f"max total/n at small k = {worst_linear:.3f} (limit {c_lin})",
    )


def test_criterion_07_baseline_separation():
    n = 2**13
    st, _ = generate(InstanceSpec("equal-blocks", n, k=4, seed=0))  # k = n/4 parts
    assert st.k == n // 4
    rank_report = run_learner(st, "find_partition")
    baseline_report = run_learner(st, "baseline")
    assert rank_report.correct and baseline_report.correct
    rank_total = rank_report.ledger["rank_count"]
    base_total = baseline_report.ledger["independence_count"]
    ok = 2 * rank_total <= base_total
    _report(
        7,
        "rank queries beat the independence baseline",
        ok,
        f"n={n}, k={st.k}: rank learner {rank_total} vs baseline {base_total} "
        f"(factor {base_total / max(1, rank_total):.2f}x)",
    )


def test_criterion_08_weighing_correctness():
    # exhaustive injectivity for every N <= 12
    for n in range(1, 13):
        dense = as_dense(build_detecting_matrix(n))
        x = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int64)
        assert len(np.unique(x @ dense.T, axis=0)) == 1 << n

    # 1000 decode round trips at each larger size, and the row budget
    rng = np.random.default_rng(2026)
    for n in (64, 512, 4096):
        m = build_detecting_matrix(n)
        assert m.n_rows <= max(n, math.ceil(4 * n / math.log2(n)))
        dense = as_dense(m).astype(np.float64)
        xs = (rng.random((1000, n)) < rng.random((1000, 1))).astype(np.int64)
        meas = np.rint(xs.astype(np.float64) @ dense.T).astype(np.int64)
        for i in range(1000):
            assert np.array_equal(m.decode(meas[i]), xs[i]), f"round trip failed at N={n}"

    # matching: exhaustive d <= 4, then 100 random cases per larger d
    for d in range(1, 5):
        xs, ys = list(range(d)), list(range(d, 2 * d))
        for perm in permutations(range(d)):
            partner = {xs[perm[j]]: ys[j] for j in range(d)}

            def add(subset, partner=partner):
                ss = set(int(v) for v in np.asarray(subset).tolist())
                return sum(1 for a, b in partner.items() if a in ss and b in ss)

            assert recover_matching(xs, ys, add) == partner

    c_match = CONFIG.value("c_match")
    worst_ratio = 0.0
    for d in (32, 256, 1024):
        xs = np.arange(d)
        ys = np.arange(d, 2 * d)
        for seed in range(100):
            r2 = np.random.default_rng(seed)
            perm = r2.permutation(d)
            partner = {int(xs[perm[j]]): int(ys[j]) for j in range(d)}
            pair_arr = np.full(2 * d, -1, dtype=np.int64)
            for a, b in partner.items():
                pair_arr[a] = b
                pair_arr[b] = a

            asked = [0]

            def add(subset):
                asked[0] += 1
                arr = np.asarray(subset, dtype=np.int64)
                mask = np.zeros(2 * d, dtype=bool)
                mask[arr] = True
                return int(np.count_nonzero(mask[arr] & mask[pair_arr[arr]])) // 2

            assert recover_matching(xs, ys, add) == partner
            assert asked[0] <= c_match * d
            worst_ratio = max(worst_ratio, asked[0] / d)
    _report(8, "weighing correctness", True, f"matching worst queries/d = {worst_ratio:.2f} (limit {c_match})")


def test_criterion_09_simulated_rank_property():
    cases = [
        ([[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]], [2, 1, 2]),
        ([[0, 1, 2, 3, 4], [5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15], [16, 17]], [3, 2, 2, 2, 1]),
    ]
    subsets_checked = 0
    for parts, caps in cases:
        n = sum(len(p) for p in parts)
        truth = CapacitatedPartition(parts, caps)
        o = RankOracle(truth)
        b = find_basis(n, o)
        reps = find_representatives(n, o, b)
        outside = _side_complement(n, b)
        assert b.size <= 10 and outside.size <= 10
        b_set = set(b.tolist())
        restricted_b = [[e for e in p if e in b_set] for p in parts]
        out_set = set(outside.tolist())
        restricted_out = [[e for e in p if e in out_set] for p in parts]
        inside_oracle = _inside_oracle(o, b, reps.outside)
        for code in range(2 ** b.size):
            pos = [i for i in range(b.size) if (code >> i) & 1]
            assert inside_oracle.rank(pos) == brute_rank(restricted_b, None, b[pos].tolist())
            subsets_checked += 1
        outside_oracle = _outside_oracle(o, b, outside, reps.inside)
        for code in range(2 ** outside.size):
            pos = [i for i in range(outside.size) if (code >> i) & 1]
            assert outside_oracle.rank(pos) == brute_rank(restricted_out, None, outside[pos].tolist())
            subsets_checked += 1
    _report(9, "simulated simple ranks equal brute force", True, f"{subsets_checked} subsets exhaustively")


def test_criterion_10_determinism():
    def partition_trace():
        st, meta = generate(InstanceSpec("uniform-k", 2**10, seed=99))
        report = run_learner(st, "find_partition")
        return report.to_json(include_wall_time=False)

    def matroid_trace():
        st, meta = generate(InstanceSpec("capacitated-random", 2**9, seed=77))
        a = run_learner(st, "learn_partition_matroid")
        b = run_learner(st, "baseline")
        return a.to_json(include_wall_time=False) + b.to_json(include_wall_time=False)

    def sweep_trace():
        rows, summaries = sweep("uniform-k", [64, 128], 2, "find_partition")
        return sweep_rows_to_csv(rows, summaries)

    ok = (
        partition_trace() == partition_trace()
        and matroid_trace() == matroid_trace()
        and sweep_trace() == sweep_trace()
    )
    _report(10, "byte-for-byte determinism", ok)
