"""Smoke tests for every figure definition (tiny sizes; shapes checked by
the benchmark suite itself at full scale)."""

import pytest

from repro.bench import figures

TINY = (0,)  # single seed keeps these fast


class TestTable1:
    def test_rows(self):
        result = figures.table1()
        assert len(result.rows) == 16
        assert "Parameter" in result.headers
        assert "cpu_ms" in result.notes[0]


class TestFig5:
    def test_fig5a(self):
        result = figures.fig5a(seeds=TINY)
        assert result.headers == ["%enabled", "PCC0", "PCE0", "NCC0", "NCE0"]
        assert [row[0] for row in result.rows] == list(range(10, 101, 10))
        assert result.chart

    def test_fig5b(self):
        result = figures.fig5b(seeds=TINY)
        assert [row[0] for row in result.rows] == list(range(2, 9))


class TestFig6:
    def test_fig6a_and_b_share_x(self):
        a = figures.fig6a(seeds=TINY)
        b = figures.fig6b(seeds=TINY)
        assert [r[0] for r in a.rows] == [r[0] for r in b.rows]
        assert a.headers[1:] == ["PC*100", "PS*100", "PCE0"]


class TestFig7:
    def test_fig7a(self):
        result = figures.fig7a(seeds=TINY)
        assert [row[0] for row in result.rows] == [0, 20, 40, 60, 80, 100]

    def test_fig7b_work_monotone_families(self):
        result = figures.fig7b(seeds=TINY)
        for row in result.rows:
            values = dict(zip(result.headers[1:], row[1:]))
            assert values["PSE*"] >= values["PCE*"] - 1e-9


class TestFig8:
    def test_fig8a_structure(self):
        result = figures.fig8a(seeds=TINY)
        enabled_values = {row[0] for row in result.rows}
        assert enabled_values == {10, 25, 50, 75, 100}
        assert result.headers == ["%enabled", "Work", "minT", "strategy"]

    def test_fig8b_structure(self):
        result = figures.fig8b(seeds=TINY)
        assert {row[0] for row in result.rows} == {1, 2, 4, 8, 16}


class TestFig9:
    def test_fig9a_small(self):
        result = figures.fig9a(gmpl_levels=(1, 4, 8), completions_per_level=300)
        assert [row[0] for row in result.rows] == [1, 4, 8]
        assert all(row[1] > 5.0 for row in result.rows)

    def test_fig9b_small(self):
        result = figures.fig9b(
            seeds=TINY,
            n_instances=60,
            warmup_instances=15,
            profile_completions=300,
            measurement_seeds=(0,),
        )
        assert result.headers[0] == "strategy"
        codes = [row[0] for row in result.rows]
        assert "PC*100" in codes and "PCE0" in codes
        # Feasible rows carry both predictions and measurements.
        feasible = [row for row in result.rows if row[4] is not None]
        assert feasible
        for row in feasible:
            assert row[5] is not None and row[6] is not None


class TestAblations:
    def test_halt_policy(self):
        result = figures.ablation_halt_policy(seeds=TINY)
        assert len(result.rows) == 3

    def test_cancel_unneeded(self):
        result = figures.ablation_cancel_unneeded(seeds=TINY)
        assert len(result.rows) == 3

    def test_render_includes_notes_and_chart(self):
        result = figures.fig5a(seeds=TINY)
        text = result.render()
        assert "Fig 5(a)" in text
        assert "note:" in text

    def test_sharing_rows_are_pinned(self):
        """Ablation A4 at full size, to the last digit: the figure first drawn
        on an engine-level share table reads the same on the query cache."""
        assert figures.ablation_sharing().rows == [
            [1, 12.0, 0.06, 107.00084835118496, 0.475],
            [4, 12.0, 0.21, 110.82048787357678, 2.2],
            [16, 12.0, 0.535, 108.38292265805656, 6.125532645556832],
            [64, 12.0, 1.66, 107.30269176283953, 17.593309798361286],
        ]
