"""Wave steps: a run of query-memo deliveries moves an instance by one
transition-memo lookup (``BatchedEngine._compose``, ``CompiledPlan.compose``).

A hit wave's run of deliveries whose steps before the last launch, finish
and cancel nothing is one composite step, filed in the state it leaves
once every step of it is on file.  Nothing of it may be observable: the
rings here hold the product stack to the reference engine where no
listener is attached (the path the composite takes without emitting
anything), pin the walk's two traps on hand-built states, cut a run at a
wait cancelled mid-wave, run the unneeded-cancel scan of an unlistened
composite, and keep a ledger of what the walk did.
"""

from __future__ import annotations

import random
import sys

import pytest

import repro.core.plan as plan_module
from repro import BatchedEngine, Engine, Strategy
from repro.api import DecisionService, ExecutionConfig
from repro.core.plan import E_DISABLED, E_ENABLED, CompiledPlan, ControlState
from tests._support import (
    PERF,
    RecordingObserver,
    assert_matches_reference,
    assert_same,
    run,
    trace_of,
)

SOURCE = PERF.schema.source_names[0]


def population(kind: str, n: int, seed: int) -> list[tuple[float, dict]]:
    """``(at, sources)`` arrivals: *distinct* — one unique valuation per
    instant; *overlap* — same-instant bursts, 90 % from eight hot
    valuations; *burst* — same-instant groups of unique valuations."""
    rng = random.Random(seed)
    fresh = iter(round(89.0 + 11.0 * k / n + rng.uniform(0, 1e-3), 6) for k in range(10 * n))
    hot = [next(fresh) for _ in range(8)]
    at, arrivals = 0.0, []
    while len(arrivals) < n:
        at += rng.expovariate(1 / 5.0)
        if kind == "distinct":
            arrivals.append((at, {SOURCE: next(fresh)}))
        elif kind == "overlap":
            for _ in range(rng.randint(3, 9)):
                value = rng.choice(hot) if rng.random() < 0.9 else next(fresh)
                arrivals.append((at, {SOURCE: value}))
        else:
            arrivals += [(at, {SOURCE: next(fresh)}) for _ in range(rng.randint(4, 12))]
    return arrivals[:n]


def unlistened(engine: str, code: str, backend: str, arrivals) -> tuple[dict, DecisionService]:
    """Run *arrivals* through a service nobody listens to; its trace."""
    config = ExecutionConfig.from_code(code, engine=engine, backend=backend, query_cache=True)
    service = DecisionService(PERF.schema, config)
    for at, values in arrivals:
        service.submit(values, at=at)
    service.run()
    # (no events: a listener would take the path under test away)
    return trace_of(service.engine, ()), service


# -- ring: the unlistened product stack against the reference ------------------------


@pytest.mark.parametrize("backend", ["ideal", "profiled"])
@pytest.mark.parametrize("code", ["PSE100", "PCE0", "NCC100", "PSE80"])
@pytest.mark.parametrize("kind", ["distinct", "overlap", "burst"])
def test_unlistened_runs_match_the_reference(kind, code, backend):
    arrivals = population(kind, 150, seed=len(kind) + len(code))
    reference, _ = unlistened("reference", code, backend, arrivals)
    batched, service = unlistened("batched", code, backend, arrivals)
    assert_same(reference, batched)
    engine = service.engine
    assert engine._listening() is None and engine.hit_waves > 0
    steps = sum(engine.wave_steps.values())
    if Strategy.parse(code).permitted < 100:  # throttled: the in-flight count keys each step
        assert steps == 0 and engine.plan.memo_waves == 0
    else:
        assert engine.wave_steps["taken"] > 0 and engine.plan.memo_waves > 0


def test_the_ledger_sees_every_outcome(monkeypatch):
    """One seeded distinct population at a table bound that fills mid-run:
    composites are taken, filed, and refused for both reasons, and the
    run is still the reference engine's."""
    monkeypatch.setattr(plan_module, "MEMO_LIMIT", 32)
    rng = random.Random(3)
    at, arrivals = 0.0, []
    for _ in range(150):
        at += rng.expovariate(1 / 5.0)
        arrivals.append((at, {SOURCE: round(rng.uniform(89, 100), 3)}))
    reference, _ = unlistened("reference", "PSE100", "ideal", arrivals)
    batched, service = unlistened("batched", "PSE100", "ideal", arrivals)
    assert_same(reference, batched)
    ledger, plan = service.engine.wave_steps, service.engine.plan
    assert all(ledger[outcome] > 0 for outcome in ("taken", "filed", "unfiled", "full")), ledger
    assert plan.memo_steps + plan.memo_waves == 32


# -- the walk's traps, on hand-built states -------------------------------------------


def state(*enablement: int) -> ControlState:
    """A state whose only meaningful parts are what the walk reads."""
    key = (b"", bytes(enablement), (), b"", frozenset(), frozenset(), None, None, None, None, ())
    return ControlState(key)


def step(target: ControlState, wasted: int = 0, launches: tuple = ()) -> tuple:
    return (target, (), (), wasted, wasted, launches)


@pytest.fixture
def plan() -> CompiledPlan:
    return CompiledPlan(PERF.schema, Strategy.parse("PSE100"))


def test_a_disabled_slot_past_the_walk_is_not_counted(plan):
    """Slot 1 is ⊥ and its step is not on file: the walk stops before it,
    so its wasted query is the per-delivery path's to count, once."""
    s0, s1 = state(E_ENABLED, E_DISABLED), state(E_ENABLED, E_DISABLED)
    s0.steps[(0, 5)] = step(s1, wasted=2)
    composite, outcome = plan.compose(s0, (0, 5, 1, 7))
    assert outcome == "unfiled" and composite[6] == 1
    assert composite[3:5] == (2, 2)  # the step's own waste, nothing for slot 1
    s1.steps[(1, 0)] = step(state(E_ENABLED, E_DISABLED))
    composite, outcome = plan.compose(s0, (0, 5, 1, 7))
    assert outcome == "filed" and composite[6] == 2
    assert composite[3:5] == (3, 2)  # now slot 1's delivery is in: one query, no units


def test_a_partial_run_is_never_filed_under_the_whole_key(plan):
    s0, s1, s2 = state(E_ENABLED, E_ENABLED), state(E_ENABLED, E_ENABLED), state(0, 0)
    s0.steps[(0, 1)] = step(s1)
    key = (0, 1, 1, 2)
    for _ in range(2):
        composite, outcome = plan.compose(s0, key)
        assert (outcome, composite[6]) == ("unfiled", 1)
        assert key not in s0.steps and plan.memo_waves == 0
    s1.steps[(1, 2)] = step(s2, launches=("x",))
    composite, outcome = plan.compose(s0, key)
    assert (outcome, composite[6], composite[5]) == ("filed", 2, ("x",))
    assert s0.steps[key] is composite and plan.memo_waves == 1


def test_a_run_ends_at_the_first_step_that_acts(plan):
    """A step that launches, finishes or may cancel ends the run: what
    the rest of the wave meets depends on what it does."""
    for ending in ("launches", "done", "scan"):
        s0, s1, s2 = state(E_ENABLED, E_ENABLED), state(E_ENABLED, E_ENABLED), state(0, 0)
        s0.steps[(0, 1)] = step(s1, launches=("x",) if ending == "launches" else ())
        s1.done, s1.scan = ending == "done", ending == "scan"
        s1.steps[(1, 2)] = step(s2)
        composite, outcome = plan.compose(s0, (0, 1, 1, 2))
        assert (outcome, composite[0], composite[6]) == ("filed", s1, 1)


def test_a_full_table_refuses_and_a_cut_is_never_filed(plan, monkeypatch):
    s0, s1 = state(E_ENABLED, E_ENABLED), state(E_ENABLED, E_ENABLED)
    s0.steps[(0, 1)] = step(s1)
    s1.steps[(1, 2)] = step(state(0, 0))
    assert plan.compose(s0, (0, 1, 1, 2), file=False)[1] == "cut"
    monkeypatch.setattr(plan_module, "MEMO_LIMIT", 0)
    assert plan.compose(s0, (0, 1, 1, 2))[1] == "full"
    assert list(s0.steps) == [(0, 1)]


# -- a wait cancelled mid-wave --------------------------------------------------------


class CancellingRecorder(RecordingObserver):
    """Records every event.  At the first memo-hit delivery of every third
    instance with two or more memo waits behind it, cancels the second:
    a wait of the wave being delivered, on a path others have filed."""

    def __init__(self):
        super().__init__()
        self.cancelled = 0
        self._started: dict[str, int] = {}
        self._seen: set[str] = set()

    def on_instance_start(self, instance):
        super().on_instance_start(instance)
        self._started[instance.instance_id] = len(self._started)

    def on_query_done(self, instance, name, *, units, completed):
        super().on_query_done(instance, name, units=units, completed=completed)
        key = instance.instance_id
        if instance.done or units or key in self._seen or self._started[key] % 3:
            return
        waits = [
            handle
            for handle in instance.inflight.values()
            if getattr(handle, "memo", False) and not handle.finished and not handle.cancel_requested
        ]
        if len(waits) >= 2:
            self._seen.add(key)
            waits[1].cancel()
            self.cancelled += 1


def cancelling_run(engine_cls, arrivals, by):
    """*arrivals* with waits cancelled *by* the engine's unneeded-cancel
    scan or by a listener: (trace, engine)."""
    return run(
        engine_cls,
        PERF.schema,
        "PSE100",
        arrivals=arrivals,
        cancel_unneeded=by == "scan",
        cohorts=True,
        pooled=True,
        listen=CancellingRecorder() if by == "listener" else True,
    )


@pytest.mark.parametrize("by", ["scan", "listener"])
def test_a_wait_cancelled_mid_wave_ends_the_run_before_it(monkeypatch, by):
    """A run's own last step may cancel waits of the wave (its unneeded-
    cancel scan), and a listener may cancel one while the run is being
    delivered: that ends the run at its delivery, and the next run's key
    stops before the cancelled wait.  Either way the trace is the
    reference engine's."""
    cuts = {"before": 0, "during": 0}
    compose = BatchedEngine._compose

    def spy(self, instance, hits, k):
        cancelled = [j for j in range(k, len(hits)) if hits[j][1].cancel_requested]
        made = compose(self, instance, hits, k)
        # a delivered wait was never cancelled (cancel() is a no-op once finished)
        assert not any(hit[1].cancel_requested for hit in hits[k : k + made])
        if cancelled:  # cancelled before the lookup: the run stops short of it
            assert k + made <= cancelled[0]
            cuts["before"] += 1
        elif made and any(hit[1].cancel_requested for hit in hits[k + made :]):
            cuts["during"] += 1  # by a listener, or the scan of the run's last step
        return made

    monkeypatch.setattr(BatchedEngine, "_compose", spy)
    arrivals = population("distinct", 80, seed=9)
    reference, _ = cancelling_run(Engine, arrivals, by)
    batched, engine = cancelling_run(BatchedEngine, arrivals, by)
    assert_same(reference, batched)
    assert engine.wave_steps["taken"] > 0
    assert cuts["during"] > 0 and (by == "scan" or cuts["before"] > 0), cuts


@pytest.mark.parametrize(
    "kind, halt_policy",
    [("distinct", "cancel"), ("overlap", "cancel"), ("burst", "cancel"), ("burst", "drain")],
)
def test_an_unlistened_step_runs_the_cancel_scan(monkeypatch, kind, halt_policy):
    """A composite step whose last state may cancel runs the unneeded-
    cancel scan inside ``_compose``, with nobody listening: the ring above
    never sets ``cancel_unneeded``."""
    scans = []
    compose, cancel_unneeded = BatchedEngine._compose.__code__, BatchedEngine._cancel_unneeded

    def spy(self, instance):
        if sys._getframe(1).f_code is compose:
            scans.append(self._listening())
        return cancel_unneeded(self, instance)

    monkeypatch.setattr(BatchedEngine, "_cancel_unneeded", spy)
    assert_matches_reference(
        PERF.schema,
        "PSE100",
        arrivals=population(kind, 150, seed=len(kind) + len("PSE100")),
        halt_policy=halt_policy,
        cancel_unneeded=True,
        cohorts=True,
        pooled=True,
        listen=False,
    )
    assert scans and set(scans) == {None}, scans
