"""The python -m repro command-line interface."""

import json

import pytest

from repro.__main__ import EXPERIMENTS, build_parser, main


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_descriptions_shown(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "Figure 5(a)" in out


class TestRun:
    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Simulation parameters" in out

    def test_run_fig5a_with_one_seed(self, capsys):
        assert main(["run", "fig5a", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fig 5(a)" in out
        assert "PCC0" in out

    def test_out_directory_written(self, tmp_path, capsys):
        main(["run", "table1", "--out", str(tmp_path)])
        capsys.readouterr()
        written = list(tmp_path.glob("*.txt"))
        assert len(written) == 1
        assert "Simulation parameters" in written[0].read_text()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunJson:
    def test_json_output_parses_and_mirrors_table(self, capsys):
        assert main(["run", "table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["figure_id"] == "Table 1"
        assert payload["headers"] == ["Parameter", "Range", "Description"]
        assert any(row[0] == "nb_rows" for row in payload["rows"])
        assert payload["records"][0]["Parameter"] == payload["rows"][0][0]
        assert payload["notes"]

    def test_json_out_directory_written(self, tmp_path, capsys):
        main(["run", "table1", "--out", str(tmp_path), "--json"])
        capsys.readouterr()
        written = list(tmp_path.glob("*.json"))
        assert len(written) == 1
        assert json.loads(written[0].read_text())["figure_id"] == "Table 1"

    def test_json_experiment_rows_numeric(self, capsys):
        assert main(["run", "fig5a", "--seeds", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "PCC0" in payload["headers"]
        assert all(isinstance(row[0], int) for row in payload["rows"])


class TestSimulate:
    def test_closed_loop_text_output(self, capsys):
        assert main(
            ["simulate", "--code", "PSE80", "--nb-nodes", "16", "--instances", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "PSE80" in out and "ideal" in out
        assert "mean Work" in out

    def test_open_stream_json_output(self, capsys):
        assert main(
            [
                "simulate",
                "--code", "PCE100",
                "--backend", "bounded",
                "--nb-nodes", "16",
                "--instances", "10",
                "--rate", "20",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "bounded"
        assert payload["time_unit"] == "ms"
        assert payload["instances"] == 10
        assert payload["mean_work"] > 0
        assert payload["mode"].startswith("open")

    def test_query_cache_and_drain_flags_accepted(self, capsys):
        assert main(
            [
                "simulate",
                "--nb-nodes", "12",
                "--instances", "3",
                "--concurrency", "2",
                "--query-cache",
                "--halt", "drain",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["instances"] == 3
        assert payload["mode"] == "closed x2"

    def test_bad_backend_reported(self):
        with pytest.raises(ValueError, match="unknown backend"):
            main(["simulate", "--backend", "quantum", "--instances", "1"])

    def test_seed_changes_bounded_results(self, capsys):
        def run_with_seed(seed):
            main(
                [
                    "simulate",
                    "--backend", "bounded",
                    "--nb-nodes", "12",
                    "--instances", "5",
                    "--seed", str(seed),
                    "--json",
                ]
            )
            return json.loads(capsys.readouterr().out)

        assert run_with_seed(0) == run_with_seed(0)  # deterministic
        assert run_with_seed(0)["mean_elapsed"] != run_with_seed(9)["mean_elapsed"]

    def test_sharded_simulate_matches_plain(self, capsys):
        def run(extra):
            assert main(
                [
                    "simulate",
                    "--code", "PSE80",
                    "--nb-nodes", "16",
                    "--instances", "8",
                    "--json",
                    *extra,
                ]
            ) == 0
            return json.loads(capsys.readouterr().out)

        plain = run([])
        sharded = run(["--shards", "2"])
        assert sharded["shards"] == 2 and sharded["executor"] == "serial"
        assert "2 shards" in sharded["mode"]
        # On the ideal backend partitioning never changes results.
        for key in ("instances", "mean_work", "mean_elapsed", "total_work"):
            assert sharded[key] == plain[key], key

    def test_process_executor_flag_accepted(self, capsys):
        assert main(
            [
                "simulate",
                "--code", "PCE0",
                "--nb-nodes", "12",
                "--instances", "4",
                "--shards", "2",
                "--executor", "process",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executor"] == "process"
        assert payload["instances"] == 4
        assert payload["total_work"] > 0


class TestSimulateDispatchAndCache:
    def _run(self, capsys, extra):
        assert main(
            [
                "simulate",
                "--nb-nodes", "12",
                "--instances", "6",
                "--concurrency", "3",
                "--json",
                *extra,
            ]
        ) == 0
        return json.loads(capsys.readouterr().out)

    def test_engine_is_invisible_in_results(self, capsys):
        batched = self._run(capsys, [])
        reference = self._run(capsys, ["--engine", "reference"])
        assert (batched["engine"], reference["engine"]) == ("batched", "reference")
        # Identical workload, identical outcome numbers.
        for key in ("instances", "mean_work", "mean_elapsed", "total_work", "sim_time"):
            assert batched[key] == reference[key], key

    @pytest.mark.parametrize("flag", [["--dispatch", "pooled"], ["--cohorts"]])
    def test_dispatch_and_cohorts_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", *flag])
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_query_cache_counters_in_json(self, capsys):
        payload = self._run(capsys, ["--query-cache"])
        assert payload["query_cache"] is True
        assert payload["query_cache_misses"] > 0
        # A closed loop over one source valuation shares aggressively.
        assert payload["query_cache_hits"] + payload["query_cache_coalesced"] > 0

    def test_sharded_query_cache_json(self, capsys):
        payload = self._run(capsys, ["--query-cache", "--shards", "2"])
        assert payload["shards"] == 2
        assert payload["query_cache_misses"] > 0
        # Each shard's cache is its own: no cross-shard tier, one routing.
        assert not any(key.startswith("query_cache_l2") for key in payload)
        assert "placement" not in payload

    def test_placement_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--shards", "2", "--placement", "hash"])
        assert exit_info.value.code == 2
        assert "--placement" in capsys.readouterr().err

    def test_sharded_text_report_has_one_cache_line(self, capsys):
        assert main(
            [
                "simulate",
                "--nb-nodes", "12",
                "--instances", "4",
                "--shards", "2",
                "--query-cache",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("query cache:") == 1
        assert "L2" not in out

    def test_query_cache_text_summary_line(self, capsys):
        assert main(
            [
                "simulate",
                "--nb-nodes", "12",
                "--instances", "4",
                "--query-cache",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "query cache:" in out


class TestServeParser:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--code", "PSE80",
                "--db", "runs.sqlite",
                "--high-water", "32",
                "--ticks-per-second", "500",
                "--query-cache",
            ]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert str(args.db) == "runs.sqlite"
        assert args.high_water == 32
        assert args.ticks_per_second == 500.0
        assert args.query_cache is True

    def test_serve_rejects_unknown_executor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--executor", "quantum"])


class TestServe:
    @staticmethod
    def _interrupt_serve_forever(monkeypatch):
        """Make serve_forever raise SIGINT's KeyboardInterrupt immediately.

        The real serve_forever's finally-block marks the server as shut
        down (that is what makes the later server.shutdown() in
        run_serve's cleanup safe); the fake must do the same or the
        cleanup would block forever.
        """
        from repro.server.http import DecisionServer

        def fake_serve_forever(self, poll_interval=0.5):
            self._BaseServer__is_shut_down.set()
            raise KeyboardInterrupt

        monkeypatch.setattr(DecisionServer, "serve_forever", fake_serve_forever)

    def test_sigint_exits_130_after_graceful_shutdown(
        self, monkeypatch, capsys
    ):
        self._interrupt_serve_forever(monkeypatch)
        code = main(["serve", "--port", "0", "--nb-nodes", "12"])
        captured = capsys.readouterr()
        assert code == 130
        assert "interrupted" in captured.err
        assert "serving" in captured.out  # banner printed before the loop
        assert "shut down cleanly" in captured.out  # cleanup still ran

    def test_json_banner_and_shutdown_report(self, monkeypatch, capsys, tmp_path):
        self._interrupt_serve_forever(monkeypatch)
        db = tmp_path / "runs.sqlite"
        code = main(
            ["serve", "--port", "0", "--nb-nodes", "12", "--db", str(db), "--json"]
        )
        assert code == 130
        lines = capsys.readouterr().out.strip().splitlines()
        banner = json.loads(lines[0])
        closing = json.loads(lines[1])
        assert banner["db"] == str(db)
        assert banner["url"].startswith("http://127.0.0.1:")
        assert len(banner["config_hash"]) == 16
        assert closing["shutdown"]["accepted"] == 0

    def test_serve_runs_on_the_process_executor(self, monkeypatch, capsys):
        # The one-shot process executor used to be refused here; the
        # persistent-worker fleet serves an open system directly.
        self._interrupt_serve_forever(monkeypatch)
        code = main(
            [
                "serve",
                "--port", "0",
                "--nb-nodes", "12",
                "--shards", "2",
                "--executor", "process",
                "--json",
            ]
        )
        assert code == 130
        banner = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert banner["shards"] == 2
        assert banner["executor"] == "process"


class TestJsonErrorPaths:
    def test_json_mode_wraps_errors_as_json_and_exits_1(self, capsys):
        code = main(
            ["simulate", "--backend", "quantum", "--instances", "1", "--json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "ValueError"
        assert "unknown backend" in payload["error"]["message"]

    def test_serve_json_mode_wraps_errors_too(self, capsys):
        code = main(
            ["serve", "--port", "0", "--backend", "quantum", "--json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "ValueError"

    def test_without_json_errors_still_raise(self):
        # The legacy contract: plain CLI failures surface the traceback.
        with pytest.raises(ValueError, match="unknown backend"):
            main(["simulate", "--backend", "quantum", "--instances", "1"])


class TestSimulateObservability:
    BASE = ["simulate", "--code", "PSE80", "--nb-nodes", "16", "--instances", "4"]

    def test_json_reports_pooled_dispatch_counters(self, capsys):
        assert main([*self.BASE, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pooled_batches"] > 0
        assert payload["pooled_events"] >= payload["pooled_batches"]

    def test_default_run_reports_the_batched_engine_unobserved(self, capsys):
        assert main([*self.BASE, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "batched"
        assert "dispatch" not in payload and "cohorts" not in payload
        assert payload["observe"] is False
        assert "observability" not in payload

    def test_observe_adds_registry_snapshot(self, capsys):
        assert main([*self.BASE, "--observe", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["observe"] is True
        snapshot = payload["observability"]
        assert snapshot["enabled"] is True
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in snapshot["counters"]
        }
        launched = sum(
            value for (name, _), value in counters.items()
            if name == "engine_queries_launched"
        )
        assert launched > 0

    def test_observe_does_not_change_results(self, capsys):
        def run(extra):
            assert main([*self.BASE, "--seed", "3", "--json", *extra]) == 0
            return json.loads(capsys.readouterr().out)

        plain = run([])
        observed = run(["--observe"])
        for key in ("instances", "mean_work", "mean_elapsed", "total_work"):
            assert observed[key] == plain[key], key

    def test_trace_writes_loadable_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "flight.json"
        assert main([*self.BASE, "--trace", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # --trace implies --observe.
        assert payload["observe"] is True
        assert payload["trace"]["path"] == str(out)
        assert payload["trace"]["events"] > 0
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) == payload["trace"]["events"]
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "engine.round" in names
        assert "query" in names
        assert doc["metadata"]["armed"] is True

    def test_trace_text_mode_mentions_the_path(self, tmp_path, capsys):
        out = tmp_path / "flight.json"
        assert main([*self.BASE, "--trace", str(out)]) == 0
        text = capsys.readouterr().out
        assert str(out) in text
        assert out.exists()
