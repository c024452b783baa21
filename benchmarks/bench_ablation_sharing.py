"""Ablation A4 (extension): cross-instance result sharing.

The paper's conclusions pose "how to optimize when several decision flows
will be executed based on overlapping data".  The query cache (the one
cross-instance sharing layer) answers repeated queries once; this
benchmark quantifies the database-load and response-time effect as the
population of distinct customer profiles grows.
"""

from repro.bench import ablation_sharing


def test_ablation_sharing(benchmark, report_figure):
    result = benchmark.pedantic(ablation_sharing, rounds=1, iterations=1)
    report_figure(result)

    for _profiles, units, units_shared, ms, ms_shared in result.rows:
        # Sharing must never increase database work, and with overlapping
        # data it must strictly reduce it.
        assert units_shared < units
        # Lower database load cannot make mean response worse.
        assert ms_shared <= ms + 1.0
    # Gains shrink as profiles diversify (less overlap to exploit).
    shared_units = [row[2] for row in result.rows]
    assert shared_units == sorted(shared_units)
