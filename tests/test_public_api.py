"""The package's public surface: exports, version, run_once helper, and
the oracle package kept off the product path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import PatternParams, Strategy, generate_pattern, run_once


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ exports missing name {name!r}"

    def test_version(self):
        major, _minor, _patch = repro.__version__.split(".")
        assert int(major) >= 1

    def test_core_reexports(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name)

    def test_simdb_reexports(self):
        import repro.simdb as simdb

        for name in simdb.__all__:
            assert hasattr(simdb, name)

    def test_api_reexports(self):
        import repro.api as api

        for name in api.__all__:
            assert hasattr(api, name)

    def test_api_facade_importable_from_top_level(self):
        from repro.api import DecisionService, ExecutionConfig

        assert repro.DecisionService is DecisionService
        assert repro.ExecutionConfig is ExecutionConfig

    def test_analysis_reexports(self):
        import repro.analysis as analysis

        for name in analysis.__all__:
            assert hasattr(analysis, name)

    def test_bench_reexports(self):
        import repro.bench as bench

        for name in bench.__all__:
            assert hasattr(bench, name)


class TestRunOnce:
    def test_run_once_round_trip(self):
        pattern = generate_pattern(PatternParams(nb_nodes=12, nb_rows=2, seed=0))
        metrics = run_once(pattern, Strategy.parse("PCE0"))
        assert metrics.done
        assert metrics.work_units >= pattern.schema["tgt"].cost

    def test_run_once_isolated_between_calls(self):
        pattern = generate_pattern(PatternParams(nb_nodes=12, nb_rows=2, seed=0))
        first = run_once(pattern, Strategy.parse("PSE100"))
        second = run_once(pattern, Strategy.parse("PSE100"))
        assert first.work_units == second.work_units
        assert first.elapsed == second.elapsed


#: Run in a fresh interpreter: a bare import and a default service, then
#: the lazy names, then a reference service beside a batched one.
ORACLE_PROBE = """
import json, sys
from dataclasses import asdict


def oracle_holders():
    return sorted(
        name for name, module in list(sys.modules.items())
        if name.startswith("repro")
        and (name.startswith("repro.oracle") or "InstanceRuntime" in vars(module))
    )


import repro
from repro import DecisionService, ExecutionConfig, PatternParams, generate_pattern

pattern = generate_pattern(PatternParams(nb_rows=4, pct_enabled=50, seed=7))
batched = DecisionService(pattern.schema, ExecutionConfig.from_code("PSE100"))
handle = batched.submit(pattern.source_values)
handle.wait()
report = {"after_default": oracle_holders()}

from repro import Engine
import repro.core
import repro.oracle

report["engine_module"] = Engine.__module__
report["same_engine"] = repro.core.Engine is Engine is repro.oracle.Engine
report["same_runtime"] = repro.core.InstanceRuntime is repro.oracle.InstanceRuntime

config = ExecutionConfig.from_code("PSE100", engine="reference")
reference = DecisionService(pattern.schema, config)
oracle = reference.submit(pattern.source_values)
oracle.wait()
report["reference_engine_module"] = type(reference.engine).__module__
report["same_values"] = oracle.value_map() == handle.value_map()
report["same_metrics"] = asdict(oracle.metrics) == asdict(handle.metrics)
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def oracle_probe() -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", ORACLE_PROBE],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestLazyOracle:
    """``repro.oracle`` holds the reference engine and the per-unit
    kernels; nothing on the product path loads it."""

    def test_import_and_a_default_service_load_no_oracle(self, oracle_probe):
        assert oracle_probe["after_default"] == []

    def test_the_reference_names_resolve_to_the_oracle(self, oracle_probe):
        assert oracle_probe["engine_module"] == "repro.oracle.engine"
        assert oracle_probe["same_engine"] and oracle_probe["same_runtime"]

    def test_a_reference_service_decides_as_the_batched_one(self, oracle_probe):
        assert oracle_probe["reference_engine_module"] == "repro.oracle.engine"
        assert oracle_probe["same_values"] and oracle_probe["same_metrics"]
