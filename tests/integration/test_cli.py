"""Integration tests for the ``snaple`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_choices_include_all_tables_and_figures(self):
        parser = build_parser()
        args = parser.parse_args(["table5"])
        assert args.experiment == "table5"
        assert args.scale == 1.0
        assert args.seed == 42

    def test_scale_and_seed_flags(self):
        args = build_parser().parse_args(["figure9", "--scale", "0.5", "--seed", "7"])
        assert args.scale == 0.5
        assert args.seed == 7

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])


class TestMain:
    def test_list_prints_experiments_and_datasets(self, capsys):
        exit_code = main(["list"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "table5" in captured.out
        assert "figure11" in captured.out
        assert "twitter-rv" in captured.out

    def test_running_a_small_figure_prints_one_line_per_point(self, capsys):
        exit_code = main(["figure9", "--scale", "0.2", "--seed", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Suite 'figure9' — 40 experiment(s)" in captured.out
        assert "livejournal/linearSum-k20" in captured.out
        assert captured.out.count("recall=") == 40

    def test_list_mentions_execution_backends(self, capsys):
        main(["list"])
        captured = capsys.readouterr()
        for backend in ("local", "gas", "cassovary",
                        "random_walk_ppr", "topological"):
            assert backend in captured.out


class TestEngineAndJsonFlags:
    def test_underscore_experiment_names_are_normalized(self):
        args = build_parser().parse_args(["ablation_engines"])
        assert args.experiment == "ablation-engines"

    def test_engine_flag_restricts_the_ablation(self, capsys):
        exit_code = main(["ablation_engines", "--engine", "gas",
                          "--scale", "0.2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "GAS (random cut)" in captured.out
        assert "GAS (greedy cut)" not in captured.out

    def test_retired_bsp_engine_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["ablation_engines", "--engine", "bsp", "--scale", "0.1"])
        assert raised.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_engine_flag_rejected_for_other_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure9", "--engine", "gas", "--scale", "0.2"])

    def test_json_output_is_machine_readable(self, capsys):
        exit_code = main(["ablation_engines", "--engine", "gas",
                          "--json", "--scale", "0.2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["experiment"] == "ablation-engines"
        rows = payload["result"]["rows"]
        assert rows and all(row["engine"] == "GAS (random cut)" for row in rows)

    def test_json_listing(self, capsys):
        exit_code = main(["list", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert "ablation-engines" in payload["experiments"]
        assert "gas" in payload["backends"]
        assert payload["backends"]["gas"]["simulated"] is True

    def test_json_output_for_dataclass_results(self, capsys):
        exit_code = main(["figure9", "--json", "--scale", "0.2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["experiment"] == "figure9"
        assert "result" in payload


class TestPaperSuiteCommands:
    SUITES = ("figure7", "figure8", "figure9", "figure10", "ablation-alpha",
              "ablation-khop")

    def test_listing_shows_each_suite_description(self, capsys):
        from repro.eval.paper import PAPER_SUITES

        assert main(["list", "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)["experiments"]
        for name in self.SUITES:
            assert listed[name] == PAPER_SUITES[name]["suite"]["description"]
            assert "partial" not in listed[name]

    def test_figure9_json_has_one_result_per_grid_point(self, capsys):
        assert main(["figure9", "--json", "--scale", "0.05"]) == 0
        results = json.loads(capsys.readouterr().out)["result"]["results"]
        # 2 datasets x 5 Sum-family scores x 4 values of k.
        assert len(results) == 40
        assert {r["pack"] for r in results} == {"livejournal", "pokec"}
        assert len({r["experiment"] for r in results}) == 20
        assert all(0.0 <= r["quality"]["recall"] <= 1.0 for r in results)

    def test_mode_is_a_usage_error_for_the_khop_suite(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["ablation-khop", "--mode", "reference", "--scale", "0.05"])
        assert raised.value.code == 2
        assert "no execution mode" in capsys.readouterr().err


class TestServeParser:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "--queue-bound", "8", "--compact-every", "16",
            "--workers", "3", "--vertex", "5", "--ingest", "1:2",
            "--ingest", "3:4", "--demo",
        ])
        assert args.experiment == "serve"
        assert args.queue_bound == 8
        assert args.compact_every == 16
        assert args.workers == 3
        assert args.vertex == 5
        assert args.ingest == [(1, 2), (3, 4)]
        assert args.demo

    @pytest.mark.parametrize("edge", ["bad", "1:", ":2", "1:2:3", "a:b"])
    def test_malformed_ingest_edge_rejected(self, edge):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--ingest", edge])

    def test_list_mentions_serve(self, capsys):
        main(["list"])
        assert "serve" in capsys.readouterr().out


class TestServeMain:
    def test_serve_only_flags_rejected_elsewhere(self):
        for argv in (["figure9", "--queue-bound", "4"],
                     ["figure9", "--compact-every", "4"],
                     ["figure9", "--vertex", "1"],
                     ["figure9", "--ingest", "1:2"],
                     ["ablation-engines", "--workers", "2"],
                     ["figure9", "--demo"]):
            with pytest.raises(SystemExit):
                main(argv + ["--scale", "0.2"])

    def test_batch_flags_rejected_for_serve(self):
        for argv in (["serve", "--engine", "gas"],
                     ["serve", "--mode", "reference"],
                     ["serve", "--graph-format", "memmap"]):
            with pytest.raises(SystemExit):
                main(argv)

    @pytest.mark.parametrize("argv", [
        ["serve", "--checkpoint-dir", "snapshots"],
        ["serve", "--checkpoint-every", "1"],
        ["serve", "--resume"],
        ["ablation-engines", "--workers", "2", "--checkpoint-dir",
         "snapshots"],
        ["ablation-engines", "--workers", "2", "--checkpoint-every", "1"],
        ["ablation-engines", "--workers", "2", "--resume"],
    ])
    def test_removed_snapshot_flags_are_unknown(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["serve", "--queue-bound", "0"],
        ["serve", "--workers", "0"],
        ["serve", "--compact-every", "0"],
    ])
    def test_invalid_serving_config_surfaces(self, argv):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(argv)

    def test_query_and_ingest_session(self, capsys):
        exit_code = main(["serve", "--scale", "0.08", "--vertex", "3",
                          "--ingest", "3:7", "--workers", "1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Online serving" in captured.out
        assert "top-k(3)" in captured.out
        assert "ingest 3->7" in captured.out
        assert "stats:" in captured.out

    def test_demo_json_shows_changed_answer(self, capsys):
        exit_code = main(["serve", "--demo", "--json", "--scale", "0.08"])
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["experiment"] == "serve"
        demo = next(event for event in payload["events"]
                    if event["op"] == "demo")
        assert demo["answer_changed"] is True
        assert demo["before"] != demo["after"]
        assert demo["ingested_edge"][1] == demo["before"][0]
        assert payload["stats"]["edges_ingested"] == 1
        assert payload["extra"]["requests_served"] >= 2.0
        assert "load" not in payload

    @pytest.mark.parametrize("flag", [
        ["--load-clients", "2"],
        ["--load-windows", "2"],
        ["--load-window-seconds", "0.5"],
    ], ids=["load-clients", "load-windows", "load-window-seconds"])
    def test_load_generator_flag_is_unknown(self, capsys, flag):
        """The service drives no load of its own; the benchmark's
        ``serve_mixed`` closed loop is the one load generator."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSuiteCommand:
    def _write_suite(self, tmp_path):
        path = tmp_path / "mini.toml"
        path.write_text(
            "[suite]\n"
            'name = "mini"\n'
            "\n"
            "[defaults]\n"
            "scale = 0.05\n"
            "\n"
            "[[packs]]\n"
            'name = "pack"\n'
            "\n"
            "[[packs.experiments]]\n"
            'name = "exp"\n'
            'dataset = "gowalla"\n',
            encoding="utf-8",
        )
        return path

    def test_suite_list(self, tmp_path, capsys):
        path = self._write_suite(tmp_path)
        assert main(["suite", "list", str(path)]) == 0
        captured = capsys.readouterr()
        assert "mini" in captured.out
        assert "exp" in captured.out

    def test_suite_describe_json(self, tmp_path, capsys):
        path = self._write_suite(tmp_path)
        assert main(["suite", "describe", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "mini"
        (experiment,) = payload["experiments"]
        assert experiment["qualified_name"] == "pack/exp"
        assert experiment["workload"] == "batch"

    def test_suite_run_json_and_out_dir(self, tmp_path, capsys):
        path = self._write_suite(tmp_path)
        out_dir = tmp_path / "reports"
        assert main(["suite", "run", str(path), "--json",
                     "--out", str(out_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        (result,) = payload["results"]
        assert result["report"]["backend"] == "local"
        assert (out_dir / "pack__exp.json").is_file()

    def test_suite_run_rejects_bad_file(self, tmp_path, capsys):
        path = tmp_path / "broken.toml"
        path.write_text("[packs\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["suite", "run", str(path)])
        assert "invalid TOML" in capsys.readouterr().err

    def test_suite_run_rejects_unknown_pack(self, tmp_path, capsys):
        path = self._write_suite(tmp_path)
        with pytest.raises(SystemExit):
            main(["suite", "run", str(path), "--pack", "nope"])
        assert "no pack" in capsys.readouterr().err

    def test_list_mentions_suite(self, capsys):
        main(["list"])
        assert "suite" in capsys.readouterr().out
