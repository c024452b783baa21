"""Discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.simdb.des import Simulation


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulation()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_run_in_schedule_order(self):
        sim = Simulation()
        log = []
        for tag in "abc":
            sim.schedule(1.0, lambda t=tag: log.append(t))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_events_scheduled_during_events(self):
        sim = Simulation()
        log = []

        def first():
            log.append("first")
            sim.schedule(1.0, lambda: log.append("nested"))

        sim.schedule(1.0, first)
        sim.schedule(5.0, lambda: log.append("last"))
        sim.run()
        assert log == ["first", "nested", "last"]

    def test_schedule_at_absolute_time(self):
        sim = Simulation()
        seen = []
        sim.schedule_at(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().schedule(-1.0, lambda: None)

    def test_scheduling_into_the_past_rejected(self):
        sim = Simulation()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulation()
        log = []
        event = sim.schedule(1.0, lambda: log.append("x"))
        event.cancel()
        sim.run()
        assert log == []

    def test_pending_excludes_cancelled(self):
        sim = Simulation()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        assert not keep.cancelled and drop.cancelled


class TestPriorities:
    def test_priority_orders_same_time_events(self):
        sim = Simulation()
        log = []
        sim.schedule(1.0, lambda: log.append("delivery"), priority=(2, 0))
        sim.schedule(1.0, lambda: log.append("unit-q2"), priority=(1, 2))
        sim.schedule(1.0, lambda: log.append("plain"))
        sim.schedule(1.0, lambda: log.append("unit-q1"), priority=(1, 1))
        sim.run()
        assert log == ["plain", "unit-q1", "unit-q2", "delivery"]

    def test_priority_never_overrides_time(self):
        sim = Simulation()
        log = []
        sim.schedule(2.0, lambda: log.append("early-band"), priority=(0, 0))
        sim.schedule(1.0, lambda: log.append("late-band"), priority=(9, 9))
        sim.run()
        assert log == ["late-band", "early-band"]

    def test_executing_priority_visible_during_dispatch(self):
        sim = Simulation()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.executing_priority), priority=(1, 7))
        assert sim.executing_priority is None
        sim.run()
        assert seen == [(1, 7)]
        assert sim.executing_priority is None


class TestCompaction:
    def test_pending_counter_tracks_lifecycle(self):
        sim = Simulation()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        assert sim.pending == 4
        events[0].cancel()
        assert sim.pending == 3
        events[0].cancel()  # double-cancel must not double-count
        assert sim.pending == 3
        sim.step()
        assert sim.pending == 2

    def test_cancel_after_fire_is_noop(self):
        sim = Simulation()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()
        assert not event.cancelled
        assert sim.pending == 0

    def test_mass_cancellation_compacts_the_heap(self):
        sim = Simulation()
        keep = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        drop = [sim.schedule(1000.0 + i, lambda: None) for i in range(500)]
        for event in drop:
            event.cancel()
        # Compaction is amortized: at any point the calendar holds at most
        # max(threshold, live) dead events, never the full 500.
        assert sim._queued_events() - sim.pending <= 65
        assert sim.pending == 10
        sim.run()
        assert sim.events_executed == 10


class TestRunControl:
    def test_run_until_stops_clock(self):
        sim = Simulation()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(10.0, lambda: log.append(10))
        sim.run(until=5.0)
        assert log == [1]
        assert sim.now == 5.0
        sim.run()
        assert log == [1, 10]

    def test_run_until_advances_idle_clock(self):
        sim = Simulation()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_step(self):
        sim = Simulation()
        log = []
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        assert sim.step() and log == ["a"]
        assert sim.step() and log == ["a", "b"]
        assert not sim.step()

    def test_events_executed_counter(self):
        sim = Simulation()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 3

    def test_repr(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        assert "pending=1" in repr(sim)


class TestCompactionStat:
    def test_cancelled_compactions_counts_rebuilds(self):
        sim = Simulation()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
        assert sim.cancelled_compactions == 0
        for event in events[:150]:
            event.cancel()
        # 150 dead vs 50 live crosses both thresholds (> 64 and > live).
        assert sim.cancelled_compactions >= 1
        assert sim.pending == 50

    def test_no_compaction_below_live_fraction(self):
        sim = Simulation()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(300)]
        for event in events[:100]:
            event.cancel()
        # 100 dead vs 200 live: above the absolute floor but below the
        # live fraction — the dead events drain lazily instead.
        assert sim.cancelled_compactions == 0
        sim.run()
        assert sim.events_executed == 200


class TestBucketCancelStorm:
    """Cancel storms concentrated in a single instant bucket: the O(1)
    ``pending`` counter, the compaction counter, and the ``popped``
    accounting of pooled dispatch all stay exact."""

    def test_storm_in_one_bucket_keeps_counters_exact(self):
        from repro.simdb.des import _COMPACT_MIN_CANCELLED

        sim = Simulation()
        storm = 500
        fired = []
        keep = [
            sim.schedule(5.0, (lambda i=i: fired.append(i)), priority=(0, i))
            for i in range(10)
        ]
        doomed = [
            sim.schedule(5.0, lambda: None, priority=(0, 1000 + i)) for i in range(storm)
        ]
        # pending is a maintained counter, not a scan: every cancel is
        # exactly one decrement, even with all 510 events in ONE bucket.
        for index, event in enumerate(doomed):
            event.cancel()
            assert sim.pending == 10 + storm - index - 1
        doomed[0].cancel()  # double-cancel inside the bucket: no drift
        assert sim.pending == 10
        # Compaction cadence is exact: replay the documented policy
        # (sweep when dead passes both the absolute floor and the live
        # fraction) and demand the counter agree sweep-for-sweep.
        from repro.simdb.des import _COMPACT_LIVE_FRACTION

        expected_sweeps, dead, live = 0, 0, 10 + storm
        for _ in range(storm):
            live -= 1
            dead += 1
            if dead > _COMPACT_MIN_CANCELLED and dead > live * _COMPACT_LIVE_FRACTION:
                expected_sweeps += 1
                dead = 0
        assert expected_sweeps >= 3  # the storm actually exercises sweeps
        assert sim.cancelled_compactions == expected_sweeps
        # ...and the dead events still queued match the replica exactly,
        # even though all of them share one bucket key.
        assert sim._queued_events() - sim.pending == dead
        sim.run()
        assert fired == list(range(10))  # sub-priority order, no dead fires
        assert sim.pending == 0
        assert sim._queued_events() == 0

    def test_popped_flags_exact_through_storm_compaction(self):
        """A storm-triggered compaction while a pool is popped must leave
        ``Event.popped`` and the dead-event debt exact: popped members are
        not in any bucket, so the sweep must neither count nor resurrect
        them."""
        sim = Simulation()
        log = []
        doomed = [sim.schedule(5.0, lambda: None) for _ in range(200)]
        survivor = sim.schedule(5.0, lambda: log.append("survivor"))
        holder = []

        def killer():
            log.append("killer")
            pool_victim, sibling = holder
            assert pool_victim.popped and sibling.popped  # in-flight pool
            pool_victim.cancel()  # popped: must NOT add dead-in-queue debt
            for event in doomed:  # storm in the t=5.0 bucket → compaction
                event.cancel()
            assert sim.cancelled_compactions >= 1
            # The sweep ran while three events sat popped; none were
            # returned to a bucket behind the pool's back.
            assert pool_victim.popped and sibling.popped

        first = sim.schedule(1.0, killer)
        holder.append(sim.schedule(1.0, lambda: log.append("victim")))
        holder.append(sim.schedule(1.0, lambda: log.append("sibling")))
        sim.set_batch_consumer(sim.fire_pooled)
        sim.run()
        assert log == ["killer", "sibling", "survivor"]
        assert first.fired and holder[1].fired and not holder[0].fired
        assert sim.pending == 0
        assert sim._queued_events() == 0


class TestInstantPooling:
    def test_step_instant_without_consumer_falls_back_to_step(self):
        sim = Simulation()
        log = []
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(1.0, lambda: log.append("b"))
        assert sim.step_instant()
        assert log == ["a"]  # per-event fallback: one event per call

    def test_pool_spans_one_time_and_band(self):
        sim = Simulation()
        pools = []

        def consumer(events):
            pools.append([e.priority for e in events])
            return sim.fire_pooled(events)

        sim.set_batch_consumer(consumer)
        log = []
        sim.schedule(1.0, lambda: log.append("p1"), priority=(0, 0))
        sim.schedule(1.0, lambda: log.append("p2"), priority=(0, 0))
        sim.schedule(1.0, lambda: log.append("db"), priority=(1, 3))
        sim.schedule(2.0, lambda: log.append("later"), priority=(0, 0))
        sim.run()
        assert log == ["p1", "p2", "db", "later"]
        assert pools == [[(0, 0), (0, 0)], [(1, 3)], [(0, 0)]]

    def test_pooled_run_matches_per_event_order(self):
        def build(pooled):
            sim = Simulation()
            log = []

            def nested(tag):
                log.append(tag)
                if tag == "a":
                    sim.schedule(0.0, lambda: log.append("zero"), priority=(2, 0))
                    sim.schedule(1.0, lambda: log.append("future"))

            sim.schedule(1.0, lambda: nested("a"))
            sim.schedule(1.0, lambda: nested("b"))
            sim.schedule(1.0, lambda: log.append("db"), priority=(1, 1))
            if pooled:
                sim.set_batch_consumer(sim.fire_pooled)
            sim.run()
            return log

        assert build(pooled=True) == build(pooled=False)

    def test_preempting_event_cuts_the_pool(self):
        """A same-time lower-band event scheduled mid-pool must fire in
        between the pool members, exactly as per-event stepping would."""
        sim = Simulation()
        log = []

        def first():
            log.append("first")
            # Band 0 at the same instant: sorts before the remaining
            # band-1 pool member.
            sim.schedule_at(1.0, lambda: log.append("preempt"), priority=(0, 9))

        sim.schedule(1.0, first, priority=(1, 1))
        sim.schedule(1.0, lambda: log.append("second"), priority=(1, 2))
        sim.set_batch_consumer(sim.fire_pooled)
        sim.run()
        assert log == ["first", "preempt", "second"]

    def test_same_band_smaller_subpriority_preempts(self):
        sim = Simulation()
        log = []

        def first():
            log.append("first")
            sim.schedule_at(1.0, lambda: log.append("replan"), priority=(1, 0))

        sim.schedule(1.0, first, priority=(1, 1))
        sim.schedule(1.0, lambda: log.append("second"), priority=(1, 5))
        sim.set_batch_consumer(sim.fire_pooled)
        sim.run()
        assert log == ["first", "replan", "second"]

    def test_pool_member_cancelled_mid_pool_does_not_fire(self):
        sim = Simulation()
        log = []
        victim_holder = []
        sim.schedule(
            1.0, lambda: (log.append("first"), victim_holder[0].cancel())
        )
        victim_holder.append(sim.schedule(1.0, lambda: log.append("second")))
        sim.set_batch_consumer(sim.fire_pooled)
        sim.run()
        assert log == ["first"]
        assert sim.pending == 0

    def test_mid_pool_cancellation_survives_compaction(self):
        """A compaction triggered while pool members are popped must not
        corrupt the dead-event accounting of the popped members."""
        sim = Simulation()
        log = []
        # A big cancellable population at a later time plus one pooled pair.
        later = [sim.schedule(5.0, lambda: None) for _ in range(200)]
        victim_holder = []

        def killer():
            log.append("killer")
            victim_holder[0].cancel()  # popped member: no dead-in-queue debt
            for event in later:        # force a compaction while it is popped
                event.cancel()

        sim.schedule_at(1.0, killer, priority=(0, 0))
        victim_holder.append(sim.schedule(1.0, lambda: log.append("victim")))
        sim.set_batch_consumer(sim.fire_pooled)
        sim.run()
        assert log == ["killer"]
        assert sim.pending == 0
        assert sim.cancelled_compactions >= 1

    def test_second_consumer_rejected_and_clearable(self):
        sim = Simulation()
        sim.set_batch_consumer(sim.fire_pooled)
        sim.set_batch_consumer(sim.fire_pooled)  # same consumer: fine
        with pytest.raises(SimulationError):
            sim.set_batch_consumer(lambda events: len(events))
        sim.set_batch_consumer(None)
        sim.set_batch_consumer(lambda events: sim.fire_pooled(events))

    def test_partial_consumption_requeues_remainder(self):
        sim = Simulation()
        log = []
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(1.0, lambda: log.append("b"))

        def one_at_a_time(events):
            sim.fire_pooled(events[:1])
            return 1

        sim.set_batch_consumer(one_at_a_time)
        sim.run()
        assert log == ["a", "b"]

    def test_preemption_survives_mid_pool_compaction(self):
        """A mid-pool compaction must not blind the preemption check:
        an event scheduled *after* the rebuild that sorts before the
        remaining pool members still fires in between them."""

        def run(pooled):
            sim = Simulation()
            log = []
            later = [sim.schedule(9.0, lambda: None) for _ in range(100)]

            def first():
                log.append("A")
                for event in later:  # dead > 64 and > live: compaction
                    event.cancel()
                sim.schedule_at(1.0, lambda: log.append("X"), priority=(0, 9))

            sim.schedule_at(1.0, first, priority=(1, 1))
            sim.schedule_at(1.0, lambda: log.append("B"), priority=(1, 2))
            if pooled:
                sim.set_batch_consumer(sim.fire_pooled)
            sim.run()
            assert sim.cancelled_compactions >= 1
            return log

        assert run(pooled=False) == ["A", "X", "B"]
        assert run(pooled=True) == ["A", "X", "B"]

    def test_raising_callback_requeues_unfired_pool_members(self):
        """Per-event stepping leaves siblings queued when a callback
        raises; pooled dispatch must restore the popped remainder so a
        recovering caller can run() again without losing events."""
        sim = Simulation()
        log = []

        def boom():
            log.append("boom")
            raise RuntimeError("callback failed")

        sim.schedule(1.0, boom)
        sim.schedule(1.0, lambda: log.append("sibling"))
        sim.schedule(2.0, lambda: log.append("later"))
        sim.set_batch_consumer(sim.fire_pooled)
        with pytest.raises(RuntimeError):
            sim.run()
        assert log == ["boom"]
        assert sim.pending == 2  # sibling + later survived the failure
        sim.run()
        assert log == ["boom", "sibling", "later"]

    def test_executing_priority_visible_during_pooled_dispatch(self):
        sim = Simulation()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.executing_priority), priority=(1, 4))
        sim.schedule(1.0, lambda: seen.append(sim.executing_priority), priority=(1, 7))
        sim.set_batch_consumer(sim.fire_pooled)
        sim.run()
        assert seen == [(1, 4), (1, 7)]
        assert sim.executing_priority is None

    @pytest.mark.parametrize("pooled", [False, True], ids=["per-event", "pooled"])
    def test_an_event_that_lets_the_next_member_pass_still_preempts_a_later_one(self, pooled):
        """The preemption check used to run once per insert: an event
        scheduled mid-pool that sorts *after* the next member was never
        compared with the members behind it."""
        sim = Simulation()
        log = []

        def first():
            log.append(1)
            sim.schedule_at(4.0, lambda: log.append(9), priority=(1, 9))
            sim.schedule_at(4.0, lambda: log.append("delivery"), priority=(2, 0))

        sim.schedule_at(4.0, first, priority=(1, 1))
        for sub in (3, 13, 16):
            sim.schedule_at(4.0, lambda sub=sub: log.append(sub), priority=(1, sub))
        if pooled:
            sim.set_batch_consumer(sim.fire_pooled)
        sim.run()
        assert log == [1, 3, 9, 13, 16, "delivery"]
        assert sim.pending == 0

    def test_a_higher_band_insert_ends_the_checking(self):
        """Nothing in a higher band can pass a pool member: once the head
        is there the pool runs on without peeking, and a later insert is
        still seen."""
        sim = Simulation()
        log = []
        peeks = []
        head = sim._head

        def counting_head():
            peeks.append(len(log))
            return head()

        def first():
            log.append("a")
            sim.schedule_at(1.0, lambda: log.append("delivery"), priority=(2, 0))

        def third():
            log.append("c")
            sim.schedule_at(1.0, lambda: log.append("start"), priority=(0, 0))

        sim.schedule_at(1.0, first, priority=(1, 1))
        sim.schedule_at(1.0, lambda: log.append("b"), priority=(1, 2))
        sim.schedule_at(1.0, third, priority=(1, 3))
        sim.schedule_at(1.0, lambda: log.append("d"), priority=(1, 4))
        sim.set_batch_consumer(sim.fire_pooled)
        sim._head = counting_head
        sim.run()
        assert log == ["a", "b", "c", "start", "d", "delivery"]
        assert peeks.count(1) == 1 and peeks.count(2) == 0


class TestResume:
    """`Simulation.resume`: the rest of a fired event, back at its own seq."""

    @staticmethod
    def build(pooled: bool, yield_at: int):
        """One band-2 event standing for a run of four, between two plain
        band-2 events; its second member schedules a band-0 start and a
        band-2 delivery at this instant.  After member *yield_at* it
        yields if anything is ahead of it."""
        sim = Simulation()
        log = []
        holder = {}

        def run(k: int) -> None:
            while k < 4:
                log.append(f"run{k}")
                k += 1
                if k == 2:
                    sim.schedule_at(1.0, lambda: log.append("start"), priority=(0, 0))
                    sim.schedule_at(1.0, lambda: log.append("since"), priority=(2, 0))
                if k == yield_at and sim.preempted(holder["event"]):
                    return sim.resume(holder["event"], lambda k=k: run(k))

        sim.schedule_at(1.0, lambda: log.append("before"), priority=(2, 0))
        holder["event"] = sim.schedule_at(1.0, lambda: run(0), priority=(2, 0))
        sim.schedule_at(1.0, lambda: log.append("after"), priority=(2, 0))
        if pooled:
            sim.set_batch_consumer(sim.fire_pooled)
        return sim, log

    @pytest.mark.parametrize("pooled", [False, True], ids=["step", "step_instant"])
    def test_the_rest_fires_after_what_preempted_it_and_before_everything_since(self, pooled):
        sim, log = self.build(pooled, yield_at=2)
        sim.run()
        assert log == ["before", "run0", "run1", "start", "run2", "run3", "after", "since"]
        assert sim.pending == 0
        assert sim.events_executed == 6  # the run's event fired twice
        assert sim._dead_in_queue == 0 and sim.cancelled_compactions == 0

    @pytest.mark.parametrize("pooled", [False, True], ids=["step", "step_instant"])
    def test_nothing_ahead_is_nothing_to_yield_to(self, pooled):
        sim, log = self.build(pooled, yield_at=1)  # asked before anything is scheduled
        sim.run()
        assert log == ["before", "run0", "run1", "run2", "run3", "start", "after", "since"]
        assert sim.events_executed == 5

    @pytest.mark.parametrize("pooled", [False, True], ids=["step", "step_instant"])
    def test_pending_stays_exact_while_the_rest_waits(self, pooled):
        sim, log = self.build(pooled, yield_at=2)
        assert sim.pending == 3
        step = sim.step_instant if pooled else sim.step
        while "run1" not in log:
            step()
        # the start, the rest of the run, "after" and "since"
        assert sim.pending == 4 and sim._queued_events() == 4
        sim.run()
        assert sim.pending == 0 and sim._queued_events() == 0

    @pytest.mark.parametrize("pooled", [False, True], ids=["step", "step_instant"])
    def test_a_waiting_rest_is_an_event_like_any_other(self, pooled):
        """Cancelled while it waits, it never fires and is counted dead
        exactly once."""
        sim = Simulation()
        log = []

        def run():
            log.append("run0")
            sim.schedule_at(1.0, lambda: (log.append("start"), event.cancel()), priority=(0, 0))
            assert sim.preempted(event)
            sim.resume(event, lambda: log.append("run1"))

        event = sim.schedule_at(1.0, run, priority=(2, 0))
        if pooled:
            sim.set_batch_consumer(sim.fire_pooled)
        sim.run()
        assert log == ["run0", "start"]
        assert sim.pending == 0 and sim._dead_in_queue == 0

    @pytest.mark.parametrize("pooled", [False, True], ids=["step", "step_instant"])
    def test_a_rest_put_back_before_its_callback_raises_is_queued_once(self, pooled):
        """What a run does when a member raises: the rest goes back at
        the run's seq and the error propagates.  The pool's own recovery
        (every unfired member back in the calendar) must not queue it a
        second time."""
        sim = Simulation()
        log = []

        def run():
            log.append("run0")
            sim.resume(event, lambda: log.append("run1"))
            raise ValueError("run0 failed")

        sim.schedule_at(1.0, lambda: log.append("before"))
        event = sim.schedule_at(1.0, run)
        sim.schedule_at(1.0, lambda: log.append("after"))
        if pooled:
            sim.set_batch_consumer(sim.fire_pooled)
        with pytest.raises(ValueError, match="run0 failed"):
            sim.run()
        assert sim.pending == 2 and sim._queued_events() == 2
        sim.run()
        assert log == ["before", "run0", "run1", "after"]
        assert sim.pending == 0 and sim._queued_events() == 0


class TestStandIn:
    """`Simulation.stand_in`: a scheduling counted without an event."""

    def test_it_moves_scheduled_and_nothing_else(self):
        sim = Simulation()
        event = sim.schedule_at(1.0, lambda: None)
        before = sim.scheduled
        sim.stand_in(event)
        assert sim.scheduled == before + 1
        assert sim.pending == 1 and sim._queued_events() == 1
        sim.run()
        assert sim.events_executed == 1

    def test_an_event_that_fired_or_was_cancelled_stands_in_for_nothing(self):
        sim = Simulation()
        fired = sim.schedule_at(1.0, lambda: None)
        cancelled = sim.schedule_at(2.0, lambda: None)
        cancelled.cancel()
        sim.run()
        for event in (fired, cancelled):
            with pytest.raises(SimulationError, match="cannot stand in"):
                sim.stand_in(event)
