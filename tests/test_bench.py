import hashlib
import json

import numpy as np
import pytest

from rankprobe import UsageError, bench, read_instance, write_instance
from rankprobe.bench import (
    FAMILIES,
    InstanceSpec,
    generate,
    run_learner,
    sweep,
    sweep_rows_to_csv,
)
from rankprobe import cli
from rankprobe.cli import main
from rankprobe.model import instance_to_bytes
from rankprobe.regression import ENV_VAR, RegressionConfig, load_regression_config

from _bruteforce import canonical
from _recording import RecordingOracle


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 64, "k": 3.9},
            {"n": True},
            {"n": 100.7},
            {"n": 64, "seed": 1.5},
            {"n": "64"},
            {"n": 64, "seed": True},
        ],
        ids=["float-k", "bool-n", "float-n", "float-seed", "str-n", "bool-seed"],
    )
    def test_integer_rule(self, kwargs):
        with pytest.raises(UsageError, match="must be an integer"):
            generate(InstanceSpec("uniform-k", **kwargs))

    @pytest.mark.parametrize(
        "family, kwargs",
        [
            ("capacitated-random", {"k": 0}),
            ("capacitated-random", {"k": -2}),
            ("singleton-heavy", {"k": -3}),
            ("uniform-k", {"seed": -1}),
            ("geometric-sizes", {"seed": -1}),
        ],
        ids=["capacitated-k0", "capacitated-k-2", "singleton-heavy-k-3", "uniform-seed-1", "geometric-seed-1"],
    )
    def test_out_of_range_k_and_seed_rejected(self, family, kwargs):
        with pytest.raises(UsageError, match="k >=|nonnegative"):
            generate(InstanceSpec(family, 64, **kwargs))

    def test_numpy_integers_accepted(self):
        a, meta_a = generate(InstanceSpec("uniform-k", np.int64(64), k=np.int64(3), seed=np.int64(1)))
        b, meta_b = generate(InstanceSpec("uniform-k", 64, k=3, seed=1))
        assert instance_to_bytes(a, meta_a) == instance_to_bytes(b, meta_b)

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

    def test_baseline_audit_certifies(self):
        # audit=True on the baseline was a UsageError: it had no checks
        for family in ("capacitated-random", "equal-blocks"):
            st, _ = generate(InstanceSpec(family, 64, k=4, seed=1))
            plain = run_learner(st, "baseline")
            audited = run_learner(st, "baseline", audit=True)
            assert audited.correct and audited.audit and audited.routed_to is None
            for key in ("rank_count", "independence_count", "per_phase"):
                assert plain.ledger[key] == audited.ledger[key]
            caps = audited.learned_capacities
            assert audited.ledger["audit_count"] == len(caps) + 2 + sum(c for c in caps if c >= 2)

    def test_baseline_routed_to_find_partition_keeps_its_audit(self):
        st, _ = generate(InstanceSpec("singleton-heavy", 64, seed=2))
        report = run_learner(st, "baseline", audit=True)
        assert report.routed_to == "find_partition"
        assert report.correct and report.audit
        assert report.ledger["audit_count"] > 0

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

    def test_non_integer_n_rejected(self):
        with pytest.raises(UsageError, match="must be an integer"):
            sweep("uniform-k", [64.9], 1, "find_partition")

    @pytest.mark.parametrize(
        "args,message",
        [
            (("uniform-k", [64], 2.5, "find_partition"), "reps must be an integer"),
            (("uniform-k", [64], True, "find_partition"), "reps must be an integer"),
            (("uniform-k", [64], -3, "find_partition"), "reps must be at least 1"),
            (("uniform-k", [], 0, "find_partition"), "reps must be at least 1"),
            (("uniform-k", 8, 1, "find_partition"), "n_values must be an array or an iterable"),
            (("no-such-family", [], 1, "find_partition"), "unknown family"),
            (("uniform-k", [], 1, "no-such-learner"), "unknown learner"),
        ],
        ids=["reps-float", "reps-bool", "reps-negative", "reps-0-empty-grid", "n-values-int",
             "family-empty-grid", "learner-empty-grid"],
    )
    def test_grid_checked_before_any_run(self, args, message):
        # 2.5 and 8 once raised a bare TypeError; -3 and an unknown family or
        # learner over an empty grid once returned ([], [])
        with pytest.raises(UsageError, match=message):
            sweep(*args)

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


class TestPinnedReports:
    """sha256 of whole reports and sweep CSVs: any change to their bytes shows here.

    Criterion 10 compares two runs of the same code; these digests compare
    against fixed bytes.  Re-derive one only for an intended output change.
    """

    @staticmethod
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.fixture(scope="class")
    def uniform(self):
        st, _ = generate(InstanceSpec("uniform-k", 2**10, seed=99))
        return st

    @pytest.fixture(scope="class")
    def capacitated(self):
        st, _ = generate(InstanceSpec("capacitated-random", 2**9, seed=77))
        return st

    @pytest.mark.parametrize(
        "audit,want",
        [
            (False, "8ccaf936e6a4aebdb87697424620e7d0c7227802703b71d5f034799aa422e837"),
            (True, "c6938490536311930fc387c83142b706b138a45e1d90eb1fe56334b501ec2cf1"),
        ],
        ids=["plain", "audited"],
    )
    def test_find_partition(self, uniform, audit, want):
        report = run_learner(uniform, "find_partition", audit=audit)
        assert self.digest(report.to_json(include_wall_time=False)) == want

    @pytest.mark.parametrize(
        "learner,audit,want",
        [
            (
                "learn_partition_matroid",
                False,
                "d4ea23504fcfefd6cef3e320d11c2881434c6036d077a9a3711efa1cdf6bd2ef",
            ),
            (
                "learn_partition_matroid",
                True,
                "0c8f620de159746112d3d7300469e45be427ba62080452ecbe1dea736bf0fbc0",
            ),
            ("baseline", False, "8754a837d609f220ea381ae7dc140a87d5d393898722395344370ad3341e3e14"),
        ],
        ids=["learn_partition_matroid", "learn_partition_matroid-audited", "baseline"],
    )
    def test_matroid_learners(self, capacitated, learner, audit, want):
        report = run_learner(capacitated, learner, audit=audit)
        assert self.digest(report.to_json(include_wall_time=False)) == want

    @pytest.mark.parametrize(
        "family,learner,want",
        [
            (
                "uniform-k",
                "find_partition",
                "32eaf6cc9fab2fba87a89ba1756f447daf00f8ae94cd76de98e57ed709e5669d",
            ),
            (
                "capacitated-random",
                "baseline",
                "9707a1b15274e6669bb21ff28085785229ae50a30f9dd5a61411754bbb19287a",
            ),
        ],
        ids=["uniform-k-find_partition", "capacitated-random-baseline"],
    )
    def test_sweep_csv(self, family, learner, want):
        rows, summaries = sweep(family, [64, 128], 2, learner)
        assert self.digest(sweep_rows_to_csv(rows, summaries)) == want

    @pytest.mark.parametrize(
        "spec,learner,want",
        [
            (
                InstanceSpec("singleton-heavy", 256, seed=5),
                "learn_partition_matroid",
                "d307ab5e2dde8a7a161df1b9baeadb449c2cf7a4c580cc78711b73d6a72672c4",
            ),
            (
                InstanceSpec("equal-blocks", 256, k=4),
                "baseline",
                "a818eac4d3d5c0dffe23217ebdc8040ff46c34f8db942c5cf96d4827931abe52",
            ),
            (
                InstanceSpec("equal-blocks", 256, k=4, capacitated=True, capacity_rule="ones"),
                "find_partition",
                "a8ce0d7b36c209959e3268990bcfc3fc1954cdce246f7ca6354327274c00643c",
            ),
        ],
        ids=["routed-to-find-partition", "simple-as-all-ones", "all-ones-capacitated"],
    )
    def test_report_routes(self, spec, learner, want):
        structure, _ = generate(spec)
        report = run_learner(structure, learner)
        assert self.digest(report.to_json(include_wall_time=False)) == want

    @pytest.mark.parametrize(
        "spec,want",
        [
            (
                InstanceSpec("uniform-k", 300, seed=11),
                "8b0dc286a3aec597f1d5adb0eac8d63dd14ede6028c6a58c6a9eb86a084b5b2a",
            ),
            (
                InstanceSpec("geometric-sizes", 300, seed=11),
                "806e775058587b452a49a8c839481be80ff75df8f095dc36443e9b0abba9f8ed",
            ),
            (
                InstanceSpec("equal-blocks", 300, seed=11),
                "bdd5be913d7cc0e815971e127c5c290bb3eaa123e94278593eff8b6dd8e9234c",
            ),
            (
                InstanceSpec("singleton-heavy", 300, seed=11),
                "8d81de51c35b99c5dbc675903424dff2b5879e4af8f7c746786cb7c0152dcb6b",
            ),
            (
                InstanceSpec("capacitated-random", 300, seed=11),
                "8f1702662102cb259d292c8c71bd9268b208939e1f81179b5ce1983d004078e2",
            ),
            (
                InstanceSpec("equal-blocks", 300, k=5, seed=11, capacitated=True),
                "385e8857333f4e15196ed1041f4cf672466ddbcdfe445889a2bb0ec3ef8fd3ac",
            ),
            (
                InstanceSpec("equal-blocks", 300, k=5, seed=11, capacitated=True, capacity_rule="ones"),
                "0dcf0cd244b7c0217a5062cc901bf0e697a02543fbb8366441c5514d6a62e3fe",
            ),
            (
                InstanceSpec("equal-blocks", 300, k=5, seed=11, capacitated=True, capacity_rule="max"),
                "f356f1996f85614ed0ddac8ba4aaa5d4c562d4eeff99f222066ca358aa285bf5",
            ),
        ],
        ids=[*FAMILIES, "rule-uniform-random", "rule-ones", "rule-max"],
    )
    def test_instance_bytes(self, spec, want):
        structure, meta = generate(spec)
        assert hashlib.sha256(instance_to_bytes(structure, meta)).hexdigest() == want


    def test_sweep_grid_query_stream(self, monkeypatch):
        # perfbench's sweep-grid operation: each run's query stream digest
        # (see _recording.py), hashed in run order
        oracles = []

        class Recording(RecordingOracle):
            def __init__(self, structure):
                super().__init__(structure)
                oracles.append(self)

        monkeypatch.setattr(bench, "RankOracle", Recording)
        rows, _ = bench.sweep("uniform-k", [512, 1024, 2048], 2, "find_partition", base_seed=1)
        assert len(oracles) == 6 and all(r["correct"] for r in rows)
        digest = hashlib.sha256(b"".join(o.digest.digest() for o in oracles)).hexdigest()
        assert digest == "664e9e6b7c8cb9f8917151e92e693acb2d2dd3d5be0a825928fffb0a0c98fd09"


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

    @pytest.mark.parametrize(
        "text", ["NaN", "Infinity", "-Infinity", "true", '"7.5"', "0", "-1.5", "null", "[7.5]"]
    )
    def test_constant_must_be_a_finite_positive_number(self, tmp_path, text):
        # float() of NaN, Infinity, true and "7.5" each passed; under NaN every
        # "> C_total" test is false, so a sweep passed whatever its counts
        path = tmp_path / "bad.json"
        path.write_text('{"constants": {"C_total": {"value": %s}}}' % text)
        with pytest.raises(UsageError, match="'C_total'"):
            load_regression_config(path).value("C_total")

    def test_integer_constant_accepted(self):
        assert RegressionConfig({"constants": {"c_match": {"value": 6}}}).value("c_match") == 6.0

    def test_missing_budget_rejected(self):
        config = load_regression_config()
        with pytest.raises(UsageError):
            config.sparse_budget(12345, 67)

    @pytest.mark.parametrize(
        "table, match",
        [
            ({"64:8": 2.7}, "integer"),
            ({"64:8": True}, "integer"),
            ({"64:8": "x"}, "integer"),
            ([1, 2], "no frozen"),
            ({"64:8": -3}, "positive"),
            ({"64:8": 0}, "positive"),
        ],
        ids=["float", "bool", "str", "list-table", "negative", "zero"],
    )
    def test_budget_follows_the_integer_rule(self, table, match):
        # a budget of -3 was returned as it stood
        with pytest.raises(UsageError, match=match):
            RegressionConfig({"sparse_budget_table": table}).sparse_budget(64, 8)

    @pytest.mark.parametrize("entry", [7.5, "x", [1], None])
    def test_note_of_a_constant_that_is_not_an_object(self, entry):
        # note() raised AttributeError where value() names the constant
        config = RegressionConfig({"constants": {"C_total": entry}})
        with pytest.raises(UsageError, match="'C_total'"):
            config.note("C_total")

    def test_note_of_a_missing_constant_is_empty(self):
        assert RegressionConfig({"constants": {}}).note("C_total") == ""


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

    @pytest.mark.parametrize("content", [b"{not json", b'{"n": 3, "parts": [[0, 1, 2]]\xff}'])
    def test_corrupt_instance_exit_2(self, tmp_path, capsys, content):
        inst = tmp_path / "corrupt.json"
        inst.write_bytes(content)
        assert main(["run", "--instance", str(inst), "--learner", "find_partition"]) == 2
        assert "usage error: instance document is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            '{"n": 3, "parts": 5}',
            '{"n": 3, "parts": null}',
            '{"n": 3, "parts": [5]}',
            '{"n": 3, "parts": [null]}',
            '{"n": 3, "parts": [[0, 1, 2]], "capacities": 2}',
        ],
        ids=["parts-int", "parts-null", "part-int", "part-null", "capacities-int"],
    )
    def test_malformed_instance_exit_2(self, tmp_path, capsys, doc):
        # each printed a TypeError traceback and exited 1
        inst = tmp_path / "malformed.json"
        inst.write_text(doc)
        assert main(["run", "--instance", str(inst), "--learner", "find_partition"]) == 2
        assert "usage error:" in capsys.readouterr().err

    def test_baseline_audit_exit_0(self, tmp_path, capsys):
        # was exit 2: the baseline had no audit checks
        inst = tmp_path / "i.json"
        assert main(["gen", "--family", "capacitated-random", "--n", "64", "--seed", "1", "-o", str(inst)]) == 0
        capsys.readouterr()
        assert main(["run", "--instance", str(inst), "--learner", "baseline", "--audit", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["audit"] and report["ledger"]["audit_count"] > 0

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_instance_exit_2(self, tmp_path, capsys, kind):
        # a missing file printed a FileNotFoundError traceback and exited 1
        inst = tmp_path / "missing.json"
        if kind == "directory":
            inst.mkdir()
        assert main(["run", "--instance", str(inst), "--learner", "find_partition"]) == 2
        assert f"usage error: cannot read instance file {inst}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen", "sweep"])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # each printed a FileNotFoundError traceback and exited 1, the sweep
        # only after running in full
        ran = []
        monkeypatch.setattr(cli, "sweep", lambda *a, **kw: ran.append(a))
        out = tmp_path / "missing" / "out"
        argv = {
            "gen": ["gen", "--family", "uniform-k", "--n", "64", "--seed", "1", "-o", str(out)],
            "sweep": [
                "sweep", "--family", "uniform-k", "--n-min", "64", "--n-max", "64",
                "--reps", "1", "--learner", "find_partition", "-o", str(out),
            ],
        }[command]
        assert main(argv) == 2
        assert f"usage error: cannot write {'instance' if command == 'gen' else 'sweep'} file {out}" in (
            capsys.readouterr().err
        )
        assert ran == [] and not out.parent.exists()

    def test_sweep_stopped_by_a_usage_error_leaves_no_file(self, tmp_path, capsys):
        # the output is opened before the sweep runs, and removed when the
        # sweep stops: here its first instance rejects k = 0
        out = tmp_path / "s.csv"
        argv = [
            "sweep", "--family", "capacitated-random", "--n-min", "64", "--n-max", "64",
            "--reps", "1", "--learner", "baseline", "--k", "0", "-o", str(out),
        ]
        assert main(argv) == 2
        assert "usage error: capacitated-random needs k >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_write_instance_to_a_directory_is_a_usage_error(self, tmp_path):
        structure, meta = generate(InstanceSpec("uniform-k", 16, seed=1))
        with pytest.raises(UsageError, match="cannot write instance file"):
            write_instance(tmp_path, structure, meta)

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

    @pytest.mark.parametrize(
        "n_min,n_max,reps,message",
        [(0, 64, 1, "--n-min"), (-4, 64, 1, "--n-min"), (64, 32, 1, "--n-max"), (32, 64, 0, "--reps")],
        ids=["n-min-0", "n-min-negative", "n-max-below-n-min", "reps-0"],
    )
    def test_sweep_rejects_bad_range(self, tmp_path, capsys, n_min, n_max, reps, message):
        # --n-min 0 kept doubling 0 and grew the n list without bound
        out = tmp_path / "s.csv"
        argv = [
            "sweep", "--family", "equal-blocks", "--n-min", str(n_min), "--n-max", str(n_max),
            "--reps", str(reps), "--learner", "find_partition", "-o", str(out),
        ]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_matroid_cycle(self, tmp_path):
        inst = tmp_path / "c.json"
        assert main(["gen", "--family", "capacitated-random", "--n", "64", "--k", "8", "--seed", "2", "-o", str(inst)]) == 0
        assert main(["run", "--instance", str(inst), "--learner", "learn_partition_matroid"]) == 0
        assert main(["run", "--instance", str(inst), "--learner", "baseline"]) == 0

    @pytest.mark.parametrize(
        "content",
        [
            None,
            b'{"constants": {}}',
            b'{"constants": {"C_total": 3}}',
            b"{not json",
            b"[1]",
            b'{"constants": {"C_total": {"value": NaN}}}',
        ],
        ids=["missing", "no-C_total", "C_total-not-an-object", "not-json", "not-an-object", "C_total-NaN"],
    )
    def test_sweep_without_its_gate_exit_2(self, tmp_path, capsys, monkeypatch, content):
        # a missing file or one without C_total ran the sweep ungated (exit
        # 0); a file or a C_total that is not a JSON object gave a traceback
        # (exit 1); a NaN C_total passed every sweep (exit 0)
        config = tmp_path / "regression.json"
        if content is not None:
            config.write_bytes(content)
        monkeypatch.setenv(ENV_VAR, str(config))
        out = tmp_path / "s.csv"
        argv = [
            "sweep", "--family", "equal-blocks", "--n-min", "32", "--n-max", "32",
            "--reps", "1", "--learner", "find_partition", "-o", str(out),
        ]
        assert main(argv) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

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
