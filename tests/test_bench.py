import json

import numpy as np
import pytest

from rankprobe import UsageError, read_instance, write_instance
from rankprobe.bench import (
    FAMILIES,
    InstanceSpec,
    generate,
    run_learner,
    sweep,
    sweep_rows_to_csv,
)
from rankprobe.cli import main
from rankprobe.model import instance_to_bytes
from rankprobe.regression import ENV_VAR, load_regression_config

from _bruteforce import canonical


class TestGenerate:
    def test_uniform_k_valid(self):
        st, meta = generate(InstanceSpec("uniform-k", 6, k=3, seed=1))
        assert st.n == 6 and st.k == 3
        assert meta["rng"] == "numpy-pcg64-v1"

    def test_equal_blocks_deterministic_family(self):
        st, _ = generate(InstanceSpec("equal-blocks", 8, k=2, seed=123))
        assert canonical(st.parts) == ((0, 1), (2, 3), (4, 5), (6, 7))

    def test_capacitated_feasibility(self):
        st, _ = generate(InstanceSpec("capacitated-random", 6, k=3, seed=1))
        assert st.k == 3 and all(p.size >= 2 for p in st.parts)
        with pytest.raises(UsageError):
            generate(InstanceSpec("capacitated-random", 6, k=4, seed=1))

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(UsageError):
            generate(InstanceSpec("uniform-k", 4, k=9, seed=0))

    def test_unknown_family_rejected(self):
        with pytest.raises(UsageError):
            generate(InstanceSpec("mystery", 4, seed=0))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_valid_and_deterministic(self, family):
        for n in (16, 64, 257):
            a, meta_a = generate(InstanceSpec(family, n, seed=42))
            b, _ = generate(InstanceSpec(family, n, seed=42))
            c, _ = generate(InstanceSpec(family, n, seed=43))
            assert instance_to_bytes(a, meta_a) == instance_to_bytes(b, meta_a)
            assert a.n == n
            if family != "equal-blocks":  # the one fully deterministic family
                assert instance_to_bytes(a) != instance_to_bytes(c) or n <= 16

    def test_capacity_rules(self):
        ones, _ = generate(InstanceSpec("capacitated-random", 24, seed=0, capacity_rule="ones"))
        assert all(int(c) == 1 for c in ones.capacities)
        mx, _ = generate(InstanceSpec("capacitated-random", 24, seed=0, capacity_rule="max"))
        assert all(int(c) == p.size - 1 for c, p in zip(mx.capacities, mx.parts))

    def test_capacitated_flag_on_simple_family(self):
        st, _ = generate(
            InstanceSpec("equal-blocks", 12, k=3, seed=0, capacitated=True, capacity_rule="ones")
        )
        assert st.capacities is not None

    def test_capacitated_flag_rejects_singleton_parts(self):
        with pytest.raises(UsageError):
            generate(InstanceSpec("singleton-heavy", 64, seed=0, capacitated=True))

    @pytest.mark.parametrize("family", ["uniform-k", "geometric-sizes", "equal-blocks", "singleton-heavy"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_tiny_universes(self, family, n):
        st, _ = generate(InstanceSpec(family, n, seed=0))
        report = run_learner(st, "find_partition")
        assert report.correct


class TestInstanceFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        st, meta = generate(InstanceSpec("capacitated-random", 20, seed=9))
        path = tmp_path / "inst.json"
        write_instance(path, st, meta)
        first = path.read_bytes()
        loaded, loaded_meta = read_instance(path)
        write_instance(path, loaded, loaded_meta)
        assert path.read_bytes() == first


class TestRunLearner:
    @pytest.mark.parametrize("family", ["uniform-k", "geometric-sizes", "equal-blocks", "singleton-heavy"])
    def test_find_partition_correct(self, family):
        st, _ = generate(InstanceSpec(family, 96, seed=4))
        report = run_learner(st, "find_partition")
        assert report.correct
        assert report.ledger["independence_count"] == 0

    def test_matroid_learners_correct_and_agree(self):
        st, _ = generate(InstanceSpec("capacitated-random", 128, seed=6))
        a = run_learner(st, "learn_partition_matroid")
        b = run_learner(st, "baseline")
        assert a.correct and b.correct
        assert a.learned_parts == b.learned_parts
        assert a.learned_capacities == b.learned_capacities
        assert b.ledger["rank_count"] == 0

    @pytest.mark.parametrize("rule", ["ones", "max", "uniform-random"])
    def test_learners_across_capacity_rules(self, rule):
        st, _ = generate(InstanceSpec("capacitated-random", 96, seed=2, capacity_rule=rule))
        for learner in ("learn_partition_matroid", "baseline"):
            assert run_learner(st, learner).correct

    def test_repeat_identical_minus_wall_time(self):
        st, _ = generate(InstanceSpec("uniform-k", 64, seed=8))
        a = run_learner(st, "find_partition")
        b = run_learner(st, "find_partition")
        assert a.to_json(include_wall_time=False) == b.to_json(include_wall_time=False)

    def test_audit_isolation(self):
        st, _ = generate(InstanceSpec("uniform-k", 64, seed=8))
        plain = run_learner(st, "find_partition")
        audited = run_learner(st, "find_partition", audit=True)
        for key in ("rank_count", "independence_count", "per_phase"):
            assert plain.ledger[key] == audited.ledger[key]
        assert audited.ledger["audit_count"] > 0

    def test_learner_instance_mismatch(self):
        st, _ = generate(InstanceSpec("capacitated-random", 32, seed=1))
        if all(int(c) == 1 for c in st.capacities):
            pytest.skip("random draw produced all-ones capacities")
        with pytest.raises(UsageError):
            run_learner(st, "find_partition")

    def test_singleton_instance_routed(self):
        st, _ = generate(InstanceSpec("singleton-heavy", 64, seed=2))
        assert min(p.size for p in st.parts) == 1
        report = run_learner(st, "learn_partition_matroid")
        assert report.routed_to == "find_partition"
        assert report.correct
        assert report.learned_capacities is None

    def test_all_ones_capacities_accepted_by_find_partition(self):
        st, _ = generate(
            InstanceSpec("equal-blocks", 16, k=4, seed=0, capacitated=True, capacity_rule="ones")
        )
        report = run_learner(st, "find_partition")
        assert report.correct


class TestSweep:
    def test_empty_range_header_only(self):
        rows, summaries = sweep("uniform-k", [], 3, "find_partition")
        csv_text = sweep_rows_to_csv(rows, summaries)
        assert csv_text.count("\n") == 1  # header only

    def test_rows_and_summary(self):
        rows, summaries = sweep("equal-blocks", [32, 64], 2, "find_partition", base_seed=5)
        assert [(r["n"], r["seed"]) for r in rows] == [(32, 5), (32, 6), (64, 5), (64, 6)]
        assert all(r["correct"] for r in rows)
        assert len(summaries) == 2
        for s in summaries:
            group_max = max(
                r["rank_queries"] / r["n"] for r in rows if r["n"] == s["n"]
            )
            assert abs(s["max_queries_per_n"] - group_max) < 1e-12

    def test_deterministic_csv(self):
        def once():
            rows, summaries = sweep("uniform-k", [32, 64], 2, "find_partition")
            return sweep_rows_to_csv(rows, summaries)

        assert once() == once()

    def test_baseline_sweep_uses_independence_metric(self):
        rows, summaries = sweep("capacitated-random", [64], 1, "baseline")
        assert rows[0]["independence_queries"] > 0
        expected = rows[0]["independence_queries"] / 64
        assert abs(summaries[0]["max_queries_per_n"] - expected) < 1e-12

    def test_baseline_growth_logarithmic_in_k(self):
        import math

        n = 2048
        xs, ys = [], []
        for k in (8, 16, 32, 64, 128, 256):
            counts = []
            for seed in (0, 1):
                st, _ = generate(InstanceSpec("capacitated-random", n, k=k, seed=seed))
                rep = run_learner(st, "baseline")
                assert rep.correct
                counts.append(rep.ledger["independence_count"])
            xs.append(math.log2(k))
            ys.append(np.mean(counts))
        design = np.vstack([xs, np.ones(len(xs))]).T
        coef = np.linalg.lstsq(design, np.asarray(ys), rcond=None)[0]
        fit = design @ coef
        deviation = np.abs(fit - ys) / np.asarray(ys)
        assert coef[0] > 0
        assert deviation.max() <= 0.20


class TestRegressionConfig:
    def test_packaged_defaults_load(self):
        config = load_regression_config()
        for name in ("C_total", "C_mat", "C_mat_linear", "c_match", "c_thick", "c_thin", "c_base"):
            assert config.value(name) > 0
            assert config.note(name)

    def test_env_override(self, tmp_path, monkeypatch):
        alt = tmp_path / "alt.json"
        alt.write_text(json.dumps({"constants": {"C_total": {"value": 99.0}}}))
        monkeypatch.setenv(ENV_VAR, str(alt))
        assert load_regression_config().value("C_total") == 99.0

    def test_missing_budget_rejected(self):
        config = load_regression_config()
        with pytest.raises(UsageError):
            config.sparse_budget(12345, 67)


class TestCli:
    def test_gen_run_cycle(self, tmp_path):
        inst = tmp_path / "i.json"
        assert main(["gen", "--family", "uniform-k", "--n", "48", "--k", "6", "--seed", "3", "-o", str(inst)]) == 0
        assert main(["run", "--instance", str(inst), "--learner", "find_partition"]) == 0
        assert main(["run", "--instance", str(inst), "--learner", "find_partition", "--json", "--audit"]) == 0

    def test_gen_usage_error_exit_2(self, tmp_path):
        rc = main(
            ["gen", "--family", "capacitated-random", "--n", "6", "--k", "4", "--seed", "1", "-o", str(tmp_path / "x.json")]
        )
        assert rc == 2

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep", "--family", "equal-blocks", "--n-min", "32", "--n-max", "64",
                "--reps", "2", "--learner", "find_partition", "-o", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("row_kind,n,k,family,seed,learner")
        assert sum(1 for l in lines if l.startswith("data,")) == 4
        assert sum(1 for l in lines if l.startswith("summary,")) == 2

    def test_matroid_cycle(self, tmp_path):
        inst = tmp_path / "c.json"
        assert main(["gen", "--family", "capacitated-random", "--n", "64", "--k", "8", "--seed", "2", "-o", str(inst)]) == 0
        assert main(["run", "--instance", str(inst), "--learner", "learn_partition_matroid"]) == 0
        assert main(["run", "--instance", str(inst), "--learner", "baseline"]) == 0

    def test_sweep_regression_failure_exit(self, tmp_path, monkeypatch):
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps({"constants": {"C_total": {"value": 0.1}}}))
        monkeypatch.setenv(ENV_VAR, str(strict))
        rc = main(
            [
                "sweep", "--family", "equal-blocks", "--n-min", "32", "--n-max", "32",
                "--reps", "1", "--learner", "find_partition", "-o", str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 1
