"""EngineObserver ordering guarantees, asserted against both engines.

Per instance, the engine promises:

* ``on_instance_start`` fires first, exactly once;
* every ``on_launch`` falls strictly between start and completion (the
  engine never decides a launch for a finished instance);
* each attribute is launched at most once, and its ``on_query_done``
  (if any) follows its ``on_launch``;
* ``on_instance_complete`` fires exactly once, after the instance's
  targets stabilized;
* the only events that may trail completion are ``on_query_done``
  notifications — queries still in flight when the instance halted
  (cancelled under ``halt_policy="cancel"``, run to completion under
  ``"drain"``).

The scenarios deliberately include result sharing (hit/join launches)
and cancellation pressure (halt-cancel plus ``cancel_unneeded``), the
paths most likely to scramble hook ordering — and instances the batched
engine replays from its flow memo, whose hooks fire from one event per
wave instead of one per delivery.
"""

from __future__ import annotations

import pytest

from repro import (
    Attribute,
    BatchedEngine,
    Comparison,
    DecisionFlowSchema,
    Engine,
    Op,
    PatternParams,
    Simulation,
    Strategy,
    generate_pattern,
)
from repro.simdb.database import QueryShareCache

from tests._support import make_database, q, scenario_pattern

ENGINE_CLASSES = {"reference": Engine, "batched": BatchedEngine}


class OrderRecorder:
    def __init__(self):
        self.by_instance: dict[str, list[tuple]] = {}
        self.sequence: list[tuple] = []

    def _record(self, instance, event: tuple) -> None:
        self.by_instance.setdefault(instance.instance_id, []).append(event)
        self.sequence.append((instance.instance_id, *event))

    def on_instance_start(self, instance):
        self._record(instance, ("start",))

    def on_launch(self, instance, name, *, speculative):
        self._record(instance, ("launch", name))

    def on_query_done(self, instance, name, *, units, completed):
        self._record(instance, ("done", name, completed))

    def on_instance_complete(self, instance):
        self._record(instance, ("complete",))


def run_recorded(engine_kind: str, *, code: str, halt_policy: str, cache: bool,
                 cancel_unneeded: bool, seed: int) -> OrderRecorder:
    pattern = scenario_pattern(seed, nb_nodes=24, pct_enabled=40.0, max_cost=6)
    sim = Simulation()
    database = make_database("ideal", "coalesced", sim, seed)
    recorder = OrderRecorder()
    engine = ENGINE_CLASSES[engine_kind](
        pattern.schema,
        Strategy.parse(code, cancel_unneeded=cancel_unneeded),
        database,
        halt_policy=halt_policy,
        observer=recorder,
        query_cache=cache,
    )
    for index in range(5):
        engine.submit_instance(pattern.source_values, at=index * 1.0)
    sim.run()
    assert all(instance.done for instance in engine.instances)
    return recorder


def assert_instance_ordering(events: list[tuple]) -> None:
    # Exactly one start, and it comes first.
    assert events[0] == ("start",)
    assert sum(1 for e in events if e[0] == "start") == 1
    # Exactly one completion.
    completes = [i for i, e in enumerate(events) if e[0] == "complete"]
    assert len(completes) == 1
    complete_at = completes[0]
    # Launches fall strictly between start and completion, one per attribute.
    launch_positions = {
        e[1]: i for i, e in enumerate(events) if e[0] == "launch"
    }
    launches = [e for e in events if e[0] == "launch"]
    assert len(launches) == len(launch_positions), "an attribute launched twice"
    assert all(0 < i < complete_at for i in launch_positions.values())
    # Every query_done follows that attribute's launch (a cache hit or a
    # coalesced query delivers with a zero-unit one).
    for i, event in enumerate(events):
        if event[0] == "done":
            assert event[1] in launch_positions, "done without launch"
            assert i > launch_positions[event[1]]
    # Only query_done stragglers (halted in-flight queries) trail completion.
    assert all(e[0] == "done" for e in events[complete_at + 1:])


SCENARIOS = [
    ("PSE100", "cancel", True, False),
    ("PSE100", "cancel", True, True),
    ("PSE80", "drain", True, False),
    ("PSE50", "cancel", False, True),
    ("PCE0", "cancel", False, False),
    ("NSC100", "drain", True, False),
]


@pytest.mark.parametrize("engine_kind", ["reference", "batched"])
@pytest.mark.parametrize(
    "code,halt_policy,cache,cancel_unneeded",
    SCENARIOS,
    ids=[f"{c}-{h}{'-cache' if s else ''}{'-cu' if u else ''}" for c, h, s, u in SCENARIOS],
)
def test_observer_ordering_per_instance(engine_kind, code, halt_policy, cache, cancel_unneeded):
    for seed in range(3):
        recorder = run_recorded(
            engine_kind,
            code=code,
            halt_policy=halt_policy,
            cache=cache,
            cancel_unneeded=cancel_unneeded,
            seed=seed,
        )
        assert len(recorder.by_instance) == 5
        for events in recorder.by_instance.values():
            assert_instance_ordering(events)


@pytest.mark.parametrize("engine_kind", ["reference", "batched"])
def test_shared_hits_and_joins_keep_ordering(engine_kind):
    """Sharing-heavy runs (identical instances, zero spacing, the query
    cache on) stay ordered."""
    pattern = scenario_pattern(3, nb_nodes=20, pct_enabled=60.0, max_cost=5)
    sim = Simulation()
    database = make_database("ideal", "coalesced", sim, 3)
    recorder = OrderRecorder()
    engine = ENGINE_CLASSES[engine_kind](
        pattern.schema,
        Strategy.parse("PSE100"),
        database,
        observer=recorder,
        query_cache=True,
    )
    for _ in range(6):
        engine.submit_instance(pattern.source_values)
    sim.run()
    cache = engine.query_cache
    assert cache.hits + cache.coalesced, "scenario failed to exercise sharing"
    for events in recorder.by_instance.values():
        assert_instance_ordering(events)


# -- replayed instances in a closed loop ----------------------------------------


def straggler_schema() -> DecisionFlowSchema:
    """``x`` (cost 5) disables the target ``t``; ``y`` (cost 1) feeds it.

    Alone on the clock ``y`` returns first, ``t`` is launched on its
    value and both are long done when ``x`` decides — every query ends
    up memoized.  An instance the memo serves gets its deliveries in
    launch order at one instant: ``x`` first, which finishes it with
    ``y`` still in flight.
    """
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("x", task=q("x", inputs=("s",), value=0, cost=5)),
            Attribute("y", task=q("y", inputs=("s",), value=1, cost=1)),
            Attribute(
                "t",
                task=q("t", inputs=("y",), value=2, cost=3),
                condition=Comparison("x", Op.GT, 10),
                is_target=True,
            ),
        ],
        name="straggler",
    )


def run_closed_loop(engine_kind: str, halt_policy: str, pooled: bool):
    """One instance alone, then a closed loop of 2 with think time 0: each
    completion callback submits the replacement at the completion instant,
    ahead of the finished instance's own stragglers."""
    sim = Simulation()
    database = make_database("ideal", "coalesced", sim, 0)
    recorder = OrderRecorder()
    engine = ENGINE_CLASSES[engine_kind](
        straggler_schema(),
        Strategy.parse("PSE100"),
        database,
        halt_policy=halt_policy,
        observer=recorder,
        query_cache=QueryShareCache(database),
    )
    if pooled:
        sim.set_batch_consumer(sim.fire_pooled)
    engine.submit_instance({"s": 1})
    left = [10]

    def submit_next(_metrics=None):
        if left[0]:
            left[0] -= 1
            engine.submit_instance({"s": 1}, at=max(sim.now, 100.0), on_complete=submit_next)

    submit_next()
    submit_next()
    sim.run()
    assert all(instance.done for instance in engine.instances)
    return recorder, engine


@pytest.mark.parametrize("pooled", [False, True], ids=["per-event", "pooled"])
@pytest.mark.parametrize("halt_policy", ["cancel", "drain"])
def test_replayed_instances_in_a_closed_loop(halt_policy, pooled):
    reference, _ = run_closed_loop("reference", halt_policy, pooled)
    recorder, engine = run_closed_loop("batched", halt_policy, pooled)
    # Two instances start before the first trace is filed and one more
    # before its straggler is delivered; the other seven are replayed.
    assert (engine.flow_traces, engine.flow_replays, engine.flow_fallbacks) == (1, 7, 0)
    # The replacement's start cuts in between a replayed instance's
    # completion and its straggler, exactly where the reference has it.
    assert recorder.sequence == reference.sequence
    alone = engine.instances[0].instance_id
    sequence = [event for event in recorder.sequence if event[0] != alone]
    cut_in = [
        at
        for at, event in enumerate(sequence[:-1])
        if event[1] == "complete" and sequence[at + 1][1] == "start"
    ]
    assert len(cut_in) == 8  # every completion that had a replacement to submit
    for at in cut_in:
        assert sequence.index((sequence[at][0], "done", "y", halt_policy == "drain")) > at + 1
    for instance_id, events in recorder.by_instance.items():
        assert_instance_ordering(events)
        assert instance_id == alone or events[-2:] == [("complete",), ("done", "y", halt_policy == "drain")]


# -- a cancellation landing among the completions of its instant -----------------


def run_cancel_race(engine_kind: str, pooled: bool) -> OrderRecorder:
    """Two instances of the benchmark's pattern at one instant: the first
    (source 93.5) cancels its unneeded ``n0_14`` at an instant the second
    has two queries completing at, and the cancelled query's own event
    sorts ahead of both — behind one more completion of the first's."""
    pattern = generate_pattern(PatternParams(nb_rows=4, pct_enabled=50, seed=7))
    source = pattern.schema.source_names[0]
    sim = Simulation()
    database = make_database("ideal", "coalesced", sim, 0)
    recorder = OrderRecorder()
    engine = ENGINE_CLASSES[engine_kind](
        pattern.schema,
        Strategy.parse("PSE100", cancel_unneeded=True),
        database,
        observer=recorder,
        query_cache=QueryShareCache(database),
    )
    if pooled:
        sim.set_batch_consumer(sim.fire_pooled)
    for value in (93.5, 40.0):
        engine.submit_instance({source: value}, at=0.0)
    sim.run()
    assert all(instance.done for instance in engine.instances)
    return recorder


@pytest.mark.parametrize("engine_kind", ["reference", "batched"])
def test_pooled_dispatch_orders_a_cancellation_as_per_event_stepping_does(engine_kind):
    """`Simulation.fire_pooled` compared a mid-pool insert with the next
    pool member only: the cancelled query's event let that one pass, was
    never compared with the two behind it, and fired after them."""
    per_event = run_cancel_race(engine_kind, pooled=False)
    pooled = run_cancel_race(engine_kind, pooled=True)
    first, second = per_event.by_instance
    at = per_event.sequence.index((first, "done", "n0_14", False))
    assert per_event.sequence[at - 1 : at + 3] == [
        (first, "done", "n3_1", True),
        (first, "done", "n0_14", False),
        (second, "done", "n3_6", True),
        (second, "done", "n0_15", True),
    ]
    assert pooled.sequence == per_event.sequence
    assert pooled.sequence == run_cancel_race("reference", pooled=False).sequence


# -- a hit wave split by a closed loop's next start ---------------------------------


def split_wave_schema() -> DecisionFlowSchema:
    """:func:`straggler_schema` behind a source-keyed query ``u``.

    A fresh valuation misses on ``u`` (so it is never replayed whole) and
    then finds ``x`` and ``y`` in the memo: one wave of two, whose first
    delivery finishes the instance with ``y`` still in flight behind it.
    """
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("u", task=q("u", inputs=("s",), value=7, cost=1)),
            Attribute("x", task=q("x", inputs=("u",), value=0, cost=5)),
            Attribute("y", task=q("y", inputs=("u",), value=1, cost=1)),
            Attribute(
                "t",
                task=q("t", inputs=("y",), value=2, cost=3),
                condition=Comparison("x", Op.GT, 10),
                is_target=True,
            ),
        ],
        name="split-wave",
    )


def run_split_waves(engine_kind: str, halt_policy: str, pooled: bool):
    """One instance alone, then a closed loop of 2 over fresh valuations
    with think time 0."""
    sim = Simulation()
    database = make_database("ideal", "coalesced", sim, 0)
    recorder = OrderRecorder()
    engine = ENGINE_CLASSES[engine_kind](
        split_wave_schema(),
        Strategy.parse("PSE100"),
        database,
        halt_policy=halt_policy,
        observer=recorder,
        query_cache=QueryShareCache(database),
    )
    if pooled:
        sim.set_batch_consumer(sim.fire_pooled)
    engine.submit_instance({"s": 0})
    fresh = list(range(1, 11))

    def submit_next(_metrics=None):
        if fresh:
            engine.submit_instance(
                {"s": fresh.pop(0)}, at=max(sim.now, 100.0), on_complete=submit_next
            )

    submit_next()
    submit_next()
    sim.run()
    assert all(instance.done and not instance.inflight for instance in engine.instances)
    return recorder, engine


@pytest.mark.parametrize("pooled", [False, True], ids=["per-event", "pooled"])
@pytest.mark.parametrize("halt_policy", ["cancel", "drain"])
def test_a_wave_gives_way_to_the_start_its_own_delivery_scheduled(halt_policy, pooled):
    reference, _ = run_split_waves("reference", halt_policy, pooled)
    recorder, engine = run_split_waves("batched", halt_policy, pooled)
    assert recorder.sequence == reference.sequence
    assert engine.flow_replays == 0
    # Every completion with a replacement to submit split its wave: the
    # start cut in, and only then came the straggler.
    assert engine.hit_waves == 10 and engine.hit_wave_deliveries == 20
    assert engine.hit_wave_splits == 8
    alone = engine.instances[0].instance_id
    sequence = [event for event in recorder.sequence if event[0] != alone]
    cut_in = [
        at
        for at, event in enumerate(sequence[:-1])
        if event[1] == "complete" and sequence[at + 1][1] == "start"
    ]
    assert len(cut_in) == 8
    for at in cut_in:
        assert sequence.index((sequence[at][0], "done", "y", halt_policy == "drain")) > at + 1
    for events in recorder.by_instance.values():
        assert_instance_ordering(events)
