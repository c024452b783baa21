"""Smoke test of the benchmark harness: every workload at toy scale,
including the subprocess server and the 2-worker fleet.  Checks the
plumbing and the declared names, never a timing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*arguments: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--smoke", *arguments],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _declared(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in DECLARATION[section]}


def test_smoke_run_carries_exactly_the_declared_names(tmp_path):
    out = tmp_path / "smoke.json"
    line = _run("--out", str(out))
    records = json.loads(out.read_text())["records"]

    assert [r["workload"] for r in records] == [w["name"] for w in DECLARATION["workloads"]]
    for record in records:
        assert record["ok"] and record["failed"] == 0, record["workload"]
        assert set(record["e2e"]) == set(_declared("end_to_end")), record["workload"]
        assert all(value for value in record["e2e"].values()), record["workload"]
    # Every declared layer metric has a workload that produces it, and
    # no workload produces an undeclared one.
    produced = {
        name for record in records
        for name, value in record["layer"].items() if value is not None
    }
    assert produced == set(_declared("per_layer"))
    assert {name: m["unit"] for name, m in line["metrics"].items()} == _declared("end_to_end")
    for name in list(_declared("end_to_end")) + list(_declared("per_layer")):
        assert NAME.fullmatch(name), name
    for workload in DECLARATION["workloads"]:
        assert NAME.fullmatch(workload["name"]), workload


def test_traced_result_line_carries_every_layer_metric_with_its_unit():
    line = _run("--workload", "sweep_identical", "--trace", "1")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == _declared("per_layer")
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def _compare(tmp_path, base: dict, change: dict) -> int:
    paths = []
    for name, document in (("base", base), ("change", change)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(document))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "compare.py"), *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )
    return done.returncode


def test_compare_fails_on_a_latency_regression_and_refuses_another_run_length(tmp_path):
    def document(seconds: float, p50_ms: float) -> dict:
        records = [
            {"workload": "serve_http", "mode": "untraced", "e2e": {}, "raw": {},
             "extra": {"decision_p50_ms": p50_ms * (1 + run / 100), "failed_share": 0.0}}
            for run in range(4)
        ]
        host = {"git_commit": "unknown", "nproc": 2, "platform": "test"}
        return {"host": host, "seed": 11, "runs": 4, "seconds": seconds,
                "mode": "untraced", "records": records}

    assert _compare(tmp_path, document(12, 2.0), document(12, 2.0)) == 0
    assert _compare(tmp_path, document(12, 2.0), document(12, 3.0)) == 1
    assert _compare(tmp_path, document(12, 2.0), document(6, 2.0)) == 2
