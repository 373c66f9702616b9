"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro import observability
from repro.__main__ import (
    EXPERIMENTS,
    PAPER_EXPERIMENTS,
    SERVING_BENCHES,
    build_parser,
    main,
)
from repro.observability import MetricsSnapshot


class TestParser:
    def test_all_experiments_have_subcommands(self):
        parser = build_parser()
        assert {*PAPER_EXPERIMENTS, *SERVING_BENCHES} == set(EXPERIMENTS)
        assert not set(PAPER_EXPERIMENTS) & set(SERVING_BENCHES)
        for name in [*EXPERIMENTS, "all"]:
            args = parser.parse_args([name])
            assert args.experiment == name
            assert (args.size, args.queries) == (8000, 100)
            assert not args.quick and not args.metrics

    @pytest.mark.parametrize("name", sorted(SERVING_BENCHES))
    def test_serving_benches_take_only_the_experiment_flags(self, name):
        parser = build_parser()
        args = parser.parse_args(
            [name, "--size", "900", "--queries", "12", "--metrics-out", "m"]
        )
        assert (args.size, args.queries, args.metrics_out) == (900, 12, "m")
        for flag in ("--text-scale", "--workers", "--deadline-ms"):
            with pytest.raises(SystemExit):
                parser.parse_args([name, flag, "1"])

    def test_defaults(self):
        args = build_parser().parse_args(["figure1"])
        assert args.size == 8000
        assert args.queries == 100
        assert not args.quick

    def test_overrides(self):
        args = build_parser().parse_args(
            ["figure4", "--size", "1234", "--queries", "7"]
        )
        assert args.size == 1234
        assert args.queries == 7

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure9"])

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_metrics_subcommand(self):
        args = build_parser().parse_args(["metrics"])
        assert args.experiment == "metrics"
        assert not args.json
        assert args.input is None
        assert not args.reset

    def test_metrics_flags(self):
        args = build_parser().parse_args(
            ["metrics", "--json", "--input", "snap.json", "--reset"]
        )
        assert args.json and args.reset
        assert args.input == "snap.json"

    def test_experiments_accept_metrics_flags(self):
        args = build_parser().parse_args(
            ["figure4", "--metrics", "--metrics-out", "out.json"]
        )
        assert args.metrics
        assert args.metrics_out == "out.json"


class TestMain:
    def test_quick_figure4(self, capsys):
        code = main(["figure4", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4(a)" in out
        assert "done in" in out

    def test_quick_table1(self, capsys):
        code = main(["table1", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "homogeneity" in out

    def test_quick_vptree(self, capsys):
        code = main(["vptree", "--quick"])
        assert code == 0
        assert "vp-tree" in capsys.readouterr().out


class TestMetricsCli:
    @pytest.fixture(autouse=True)
    def clean_observability(self):
        observability.uninstall()
        yield
        observability.uninstall()

    def test_metrics_on_empty_registry(self, capsys):
        assert main(["metrics"]) == 0
        assert "no metrics recorded" in capsys.readouterr().out

    def test_experiment_with_metrics_prints_counters(self, capsys):
        code = main(["figure4", "--quick", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== metrics" in out
        assert "mtree.nodes_accessed" in out
        assert "mtree.dists_computed" in out

    def test_metrics_out_round_trips_through_json(self, capsys, tmp_path):
        out_file = tmp_path / "snap.json"
        assert main(
            ["figure4", "--quick", "--metrics-out", str(out_file)]
        ) == 0
        capsys.readouterr()

        snap = MetricsSnapshot.from_json(out_file.read_text())
        assert snap.total("mtree.nodes_accessed") > 0

        # `metrics --input` renders the persisted snapshot...
        assert main(["metrics", "--input", str(out_file)]) == 0
        table = capsys.readouterr().out
        assert "mtree.nodes_accessed" in table

        # ...and `--json` re-emits parseable JSON with the format tag.
        assert main(["metrics", "--input", str(out_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "metricost-metrics-v1"
        clone = MetricsSnapshot.from_dict(payload)
        assert clone.total("mtree.nodes_accessed") == snap.total(
            "mtree.nodes_accessed"
        )

    def test_metrics_reset_clears_live_registry(self, capsys):
        registry = observability.install()
        registry.inc("stale.counter", 5)
        assert main(["metrics", "--reset"]) == 0
        assert "stale.counter" in capsys.readouterr().out
        assert registry.counter_value("stale.counter") == 0

    def test_metrics_run_leaves_observability_installed(self, capsys):
        """--metrics installs the layer; the live registry stays queryable
        afterwards via `metrics` in the same process."""
        assert main(["figure4", "--quick", "--metrics"]) == 0
        capsys.readouterr()
        assert observability.installed()
        assert main(["metrics"]) == 0
        assert "mtree.nodes_accessed" in capsys.readouterr().out


class TestServingBenchCli:
    """serve-bench, shard-bench and ingest-bench print their drivers'
    tables through the experiment path."""

    @pytest.fixture(autouse=True)
    def clean_observability(self):
        observability.uninstall()
        yield
        observability.uninstall()

    @pytest.mark.parametrize(
        "name, titles",
        [
            (
                "serve-bench",
                [
                    "Throughput vs worker threads (30 range queries",
                    "2x overload, accepted/rejected tails",
                ],
            ),
            ("shard-bench", ["Sharded scatter-gather scaling (30 mixed"]),
            ("ingest-bench", ["Ingest rate vs fsync policy (1500 objects"]),
        ],
    )
    def test_quick_run_prints_its_tables(self, capsys, name, titles):
        assert main([name, "--quick"]) == 0
        out = capsys.readouterr().out
        for title in titles:
            assert title in out
        assert f"-- {name} done in" in out
        assert "== metrics" not in out

    def test_serve_bench_with_metrics_prints_counters(self, capsys):
        assert main(["serve-bench", "--quick", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "2x overload" in out
        assert "== metrics" in out
        assert "service.requests" in out
        assert "service.admitted" in out
        # The overload driver records into the CLI's registry and leaves
        # it installed.
        assert observability.installed()


class TestSelfHealingCli:
    """The doctor / fsck / scrub subcommands and their --json contracts."""

    def test_doctor_json_healthy(self, capsys):
        assert main(["doctor", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["healthy"] is True
        assert payload["checks"]

    def test_doctor_json_flags_damaged_artifacts(self, capsys, tmp_path):
        (tmp_path / "legacy.json").write_text('{"kind": "x", "version": 1}')
        assert (
            main(
                [
                    "doctor",
                    "--json",
                    "--strict",
                    "--artifacts",
                    str(tmp_path),
                ]
            )
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["healthy"] is False

    def test_fsck_selftest_detects_and_repairs(self, capsys):
        assert main(["fsck", "--json", "--size", "220"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["healthy"] is True
        assert len(payload["cases"]) == 7
        for case in payload["cases"]:
            assert case["ok"], case
            assert case["detected"]
            assert case["expected"] in case["detected_kinds"]

    def test_fsck_selftest_table(self, capsys):
        assert main(["fsck", "--size", "220"]) == 0
        out = capsys.readouterr().out
        assert "structural self-test" in out
        assert "radius_violation" in out

    def test_fsck_checks_persisted_tree(self, capsys, tmp_path):
        import numpy as np

        from repro.datasets import clustered_dataset
        from repro.mtree import bulk_load, vector_layout
        from repro.persistence import save_mtree

        data = clustered_dataset(size=120, dim=3, seed=9)
        tree = bulk_load(
            data.points, data.metric, vector_layout(3), seed=9
        )
        path = tmp_path / "tree.json"
        save_mtree(tree, path)
        assert main(["fsck", "--json", "--mtree", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["tree_kind"] == "mtree"

    def test_fsck_rejects_both_tree_kinds(self, capsys):
        assert main(["fsck", "--mtree", "a.json", "--vptree", "b.json"]) == 2

    def test_scrub_clean_tree_exits_zero(self, capsys):
        assert main(["scrub", "--json", "--size", "300"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["fault_kinds"] == []
        assert payload["progress"]["complete"] is True

    def test_scrub_injected_fault_exits_nonzero(self, capsys):
        assert (
            main(
                [
                    "scrub",
                    "--json",
                    "--size",
                    "600",
                    "--inject",
                    "shrink_radius",
                ]
            )
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert "radius_violation" in payload["fault_kinds"]
        assert payload["quarantined_nodes"] >= 1
        assert payload["probe_query"]["completeness"] <= 1.0

    def test_scrub_unknown_fault_kind_rejected(self, capsys):
        assert main(["scrub", "--inject", "set_on_fire"]) == 2

    def test_fsck_corrupt_artifact_fails_cleanly(self, capsys, tmp_path):
        from repro.reliability import dumps_artifact

        path = tmp_path / "tree.json"
        text = dumps_artifact({"kind": "mtree", "version": 1})
        path.write_text(text.replace("1", "2", 1))
        assert main(["fsck", "--json", "--mtree", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert "error" in payload


class TestGcCli:
    BUNDLE = {"tree": "tree-v", "checkpoint": "checkpoint-v"}

    def crashed_store(self, directory):
        from repro.service import GenerationStore, SimulatedCrashError

        store = GenerationStore(directory)
        store.save(self.BUNDLE)
        last = store.total_save_steps(len(self.BUNDLE)) - 1
        with pytest.raises(SimulatedCrashError):
            store.save(self.BUNDLE, crash_after_step=last)
        return store

    def test_clean_store_exits_zero(self, capsys, tmp_path):
        from repro.service import GenerationStore

        GenerationStore(tmp_path).save(self.BUNDLE)
        assert main(["gc", str(tmp_path)]) == 0
        assert "verdict: clean" in capsys.readouterr().out

    def test_crashed_store_reports_stale_files(self, capsys, tmp_path):
        self.crashed_store(tmp_path)
        assert main(["gc", "--json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["stale_files"] == [
            "checkpoint.g1.json", "tree.g1.json"
        ]
        assert payload["clean"] is False

    def test_reclaim_leaves_store_clean(self, capsys, tmp_path):
        store = self.crashed_store(tmp_path)
        assert main(["gc", "--reclaim", str(tmp_path)]) == 0
        assert "verdict: clean" in capsys.readouterr().out
        assert store.stale_files() == []
        assert store.load() == self.BUNDLE
