"""The profiled kernel's boundary index, against the per-unit oracle.

:class:`ProfiledDatabase` re-prices a Gmpl change by touching only the
queries whose unit boundary the change passed (they are filed by remaining
whole units; everything else is one server-wide rate).  These tests drive
the database directly — no engine — far past the populations the engine
suites reach: hundreds in flight, same-instant submission bursts, cancels
landing exactly on unit boundaries (before and after the boundary's own
event) and after the last unit started, and failure draws.  The per-unit
kernel walks every unit as a real event and is the oracle.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import Simulation
from repro.simdb.database import ProfiledDatabase
from repro.oracle.per_unit import PerUnitProfiledDatabase
from repro.simdb.profiler import DbFunction

#: Unit times on this curve are arbitrary floats (about 40 ms at Gmpl 600),
#: so the two kernels' finish instants agree to rounding only.
SMOOTH = DbFunction(((1.0, 10.3), (16.0, 14.1), (256.0, 21.7), (1024.0, 61.3)))

#: Every instant of a run on this curve is a small multiple of 4 ms, hence
#: exact in floating point: boundaries, completions, Gmpl changes and the
#: scripted cancels pile onto the same instants, and the kernels must then
#: agree bit for bit, tie-breaks included.
STEP_MS = 4.0


def stepped(gmpl: float) -> float:
    return 8.0 + STEP_MS * (gmpl // 128)


def saturating_script(seed: int):
    """Submission bursts and cancel requests, fixed before either kernel runs.

    600 queries at t=0, then a burst every 4 ms that keeps the server
    around 500-700 in flight.  Each cancel names a query by submission
    index, an instant on the 4 ms lattice, and the band it runs in: band 0
    fires before the database events of that instant, band 2 after them.
    """
    rng = random.Random(f"profiled-index:{seed}")
    bursts = [(0.0, [rng.randint(1, 8) for _ in range(600)])]
    for step in range(1, 70):
        bursts.append((step * STEP_MS, [rng.randint(1, 8) for _ in range(rng.randint(0, 40))]))
    submitted_at = [when for when, costs in bursts for _ in costs]
    cancels = []
    for index, when in enumerate(submitted_at):
        if rng.random() < 0.35:
            after = when + STEP_MS * rng.randint(1, 60)
            cancels.append((after, rng.choice((0, 2)), index))
    return bursts, cancels


def drive(kernel: str, db_function, seed: int):
    bursts, cancels = saturating_script(seed)
    sim = Simulation()
    server = ProfiledDatabase if kernel == "coalesced" else PerUnitProfiledDatabase
    database = server(sim, db_function, failure_prob=0.2, seed=seed)
    handles = []
    outcomes = {}
    order = []
    peak = 0
    boundary_cancels = too_late = 0
    # Every "a boundary falls exactly now: has its event fired yet?" the
    # coalesced kernel decides, by answer.
    ties = {True: 0, False: 0}
    decide = getattr(database, "_tie_boundary_fired", None)  # (the oracle walks them)

    def counting_decide(handle):
        fired = decide(handle)
        ties[fired] += 1
        return fired

    if decide is not None:
        database._tie_boundary_fired = counting_decide

    def submit_burst(costs):
        nonlocal peak
        for cost in costs:
            index = len(handles)

            def done(processed, completed, index=index):
                outcomes[index] = (processed, completed, handles[index].failed, sim.now)
                order.append(index)

            handles.append(database.submit(cost, done))
        peak = max(peak, database.gmpl)

    def cancel(index):
        nonlocal boundary_cancels, too_late
        handle = handles[index]
        live = not handle.finished
        handle.cancel()
        if live and kernel == "coalesced":
            boundary_cancels += handle.unit_end == sim.now
            too_late += handle.cancel_units is None

    for when, costs in bursts:
        sim.schedule_at(when, lambda costs=costs: submit_burst(costs))
    for when, band, index in cancels:
        sim.schedule_at(when, lambda index=index: cancel(index), (band, 0))
    sim.run()
    return {
        "outcomes": [outcomes[index] for index in range(len(handles))],
        "order": order,
        "peak": peak,
        "script_events": len(bursts) + len(cancels),
        "events": sim.events_executed,
        "total_units": database.total_units,
        "counts": (
            database.queries_completed,
            database.queries_cancelled,
            database.queries_failed,
        ),
        "mean_gmpl": database.mean_gmpl(),
        "end": sim.now,
        "boundary_cancels": boundary_cancels,
        "too_late": too_late,
        "ties": ties,
    }


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("curve", ["stepped", "smooth"])
def test_saturated_direct_drive_matches_per_unit(curve, seed):
    db_function = stepped if curve == "stepped" else SMOOTH
    coalesced = drive("coalesced", db_function, seed)
    per_unit = drive("per-unit", db_function, seed)

    assert coalesced["peak"] == per_unit["peak"] >= 500
    queries = len(coalesced["outcomes"])
    for index, (got, want) in enumerate(zip(coalesced["outcomes"], per_unit["outcomes"])):
        assert got[:3] == want[:3], f"query {index}: {got} != {want}"
        if curve == "stepped":
            assert got[3] == want[3], f"query {index} finish {got[3]} != {want[3]}"
        else:
            assert got[3] == pytest.approx(want[3], rel=1e-9), index
    assert coalesced["order"] == per_unit["order"]
    assert coalesced["total_units"] == per_unit["total_units"]
    assert coalesced["counts"] == per_unit["counts"]
    assert coalesced["mean_gmpl"] == pytest.approx(per_unit["mean_gmpl"], rel=1e-9)
    assert coalesced["end"] == pytest.approx(per_unit["end"], rel=1e-9)

    # The scenario reaches what it claims to: saturation, cancels, cancels
    # after the last unit started, failure draws — and on the lattice,
    # cancels exactly on a unit boundary and Gmpl changes exactly on
    # boundaries that had and had not fired yet.
    assert coalesced["mean_gmpl"] > 300
    _completed, cancelled, failed = coalesced["counts"]
    assert cancelled > 100 and failed > 50 and coalesced["too_late"] > 20
    if curve == "stepped":
        assert coalesced["boundary_cancels"] > 10
        assert coalesced["ties"][True] > 1000 and coalesced["ties"][False] > 1000

    # One armed event executes per query, the one that finishes it — so
    # never more than one per Gmpl change — while the oracle pays per unit.
    gmpl_changes = 2 * queries
    assert coalesced["events"] - coalesced["script_events"] == queries <= gmpl_changes
    assert per_unit["events"] - per_unit["script_events"] == per_unit["total_units"]


def per_query_host_seconds(in_flight: int, queries: int = 2500) -> float:
    """Closed loop holding *in_flight* queries in the server: host time per query."""
    rng = random.Random(f"profiled-scaling:{in_flight}")
    sim = Simulation()
    database = ProfiledDatabase(sim, SMOOTH)
    remaining = queries

    def submit_one():
        nonlocal remaining
        remaining -= 1
        database.submit(rng.randint(1, 6), on_complete)

    def on_complete(processed, completed):
        if remaining > 0:
            submit_one()

    def burst():
        for _ in range(in_flight):
            submit_one()

    sim.schedule_at(0.0, burst)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    assert database.queries_completed == queries
    return elapsed / queries


@pytest.mark.slow
def test_host_time_per_query_does_not_scale_with_in_flight_population():
    # A walk over every in-flight handle per Gmpl change grows with the
    # population (4.6x here for 8x in flight, before the index); the index
    # pays for boundaries passed, not for bystanders, and reads ~1.0x.
    small = min(per_query_host_seconds(64) for _ in range(3))
    large = min(per_query_host_seconds(512) for _ in range(3))
    assert large < 3.0 * small, f"{large / small:.1f}x per query at 8x in flight"
