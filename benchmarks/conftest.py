"""Shared fixtures for the paper-reproduction suite.

Every module here regenerates one table, figure or ablation of the paper
(Table 1, Figs 5-9, Ablations A1-A4), prints it, and asserts its shape:
who wins, by roughly how much, and where the curves cross.  The figures
run on the default execution stack (reference engine, per-event
dispatch, no cache, cohorts or shards); throughput is measured by
``perf/``, never here.

Scale knobs default to values that keep the full suite at laptop scale;
set ``REPRO_BENCH_SEEDS`` to trade time for tighter averages, or pass
``--quick`` for the reduced-size configuration CI runs on every push
(two seeds, printed only).  Full-size runs also write each rendered
table to ``results/<figure_id>.txt``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="reduced-size figure smoke: fewer seeds, nothing written",
    )


@pytest.fixture(scope="session")
def quick(request) -> bool:
    """True when the suite runs in the reduced-size smoke configuration."""
    return bool(request.config.getoption("--quick"))


@pytest.fixture(scope="session")
def bench_seeds(quick) -> tuple[int, ...]:
    """Pattern seeds each figure averages over."""
    count = int(os.environ.get("REPRO_BENCH_SEEDS", "2" if quick else "6"))
    return tuple(range(count))


@pytest.fixture
def report_figure(capsys, quick):
    """Print a FigureResult and persist it to results/<figure_id>.txt.

    ``--quick`` runs print only: their reduced sweeps must not clobber
    the recorded full-size baselines under ``results/``.
    """

    def _report(result):
        text = result.render()
        if not quick:
            RESULTS_DIR.mkdir(exist_ok=True)
            slug = (
                result.figure_id.lower()
                .replace(" ", "_")
                .replace("(", "")
                .replace(")", "")
            )
            (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")
        with capsys.disabled():
            print()
            print(text)
        return result

    return _report
