"""Deterministic discrete-event simulation kernel.

This replaces CSIM 18, the commercial simulation library the paper used to
simulate the external database server.  It is a classic event calendar:
callbacks scheduled at simulated times, executed in (time, sequence) order,
so simultaneous events run in scheduling order and every run is exactly
reproducible.

Three properties matter for the coalesced database kernels, which cancel
and reschedule completion events instead of walking unit by unit:

* :attr:`Simulation.pending` is O(1) — a live counter maintained on
  schedule/cancel/fire instead of a scan of the calendar;
* cancelled events are *compacted* away once they dominate the calendar,
  so a workload that reschedules most of its events keeps the calendar
  (and every insert/pop) proportional to the live event count;
* events carry an explicit *priority* band breaking same-time ties ahead
  of the scheduling sequence.  A per-unit kernel's tie order at a shared
  instant is an artifact of when each chain allocated its next event; a
  coalesced kernel schedules a query's single completion far in advance
  and could never reproduce that accident.  Priorities replace it with a
  defined order — database events sort by query submission order in band
  1, between plain events (band 0) and zero-delay deliveries (band 2) —
  that both kernels realize identically.

Instant-bucketed calendar
-------------------------

Large sweeps concentrate thousands of events on a handful of instants
(every instance starts at t=0; equal-cost queries complete together), so
a heap of *events* pays O(log n-events) per push/pop for a calendar whose
distinct instants number in the dozens.  The calendar here is a heap of
``(time, priority-band)`` *bucket keys* instead; each key maps to a
bucket holding its events in firing order.  Scheduling into an existing
instant is an O(1) append; popping the frontier bucket hands a whole
``(time, band)`` run to :meth:`Simulation.step_instant` without a single
re-heapify.  Buckets keep their events sorted by ``(priority, seq)``
lazily: appends arrive in ``seq`` order, so a bucket only sorts when an
out-of-band-order insert (a band-1 completion re-armed after a
later-submitted query's) actually lands in it.

Instant pooling
---------------

Dispatching each event through :meth:`Simulation.step` pays the full
per-event loop: a head peek, a bucket advance, a clock write, and a
priority save/restore.  :meth:`Simulation.step_instant` instead pops
*every* live event sharing the ``(time, priority band)`` frontier — the
frontier bucket, verbatim — in one pass and hands the run to a
registered *batch consumer* (see :meth:`Simulation.set_batch_consumer`),
which fires them through :meth:`Simulation.fire_pooled` — in exactly the
order :meth:`step` would have — and may layer cross-event optimizations
on top.
The contract keeps pooling invisible: a consumer must stop early (and
return how many events it consumed) whenever a freshly scheduled event
sorts before the rest of the pool, because under per-event stepping that
event would have preempted them; the kernel then re-queues the remainder.
With no consumer registered, ``step_instant`` falls back to ``step``.

Stand-in events
---------------

One event may *stand in* for a run of events that would have had
consecutive seqs — an arrival run's starts, a hit wave's deliveries —
since nothing can sort between them.  The run's owner keeps that exact:
it takes more members only while :attr:`Simulation.scheduled` still reads
what it read after the last one (nothing else was inserted), reports each
through :meth:`Simulation.stand_in` (so every other owner's reading
moves, as the member's own event would have moved it), and while firing
asks :meth:`Simulation.preempted` after any member that scheduled
something and, if so, hands the rest to :meth:`Simulation.resume` — at
the event's own seq, where the unfired members would have sorted.
:attr:`Simulation.pending` and :attr:`Simulation.events_executed` count
such a run once.
"""

from __future__ import annotations

import heapq
import itertools
from math import isfinite
from typing import Callable

from repro.errors import SimulationError

__all__ = ["Event", "Simulation", "check_until"]

#: Compaction thresholds: sweep the buckets once more than
#: ``_COMPACT_MIN_CANCELLED`` events are dead *and* dead events exceed
#: ``_COMPACT_LIVE_FRACTION`` of the live count.  Small enough to bound
#: memory on reschedule-heavy runs, large enough to amortize the rebuild
#: (a compaction is O(live + dead); firing between compactions skips dead
#: events in O(1) each, so rebuilding below the fraction would cost more
#: than the lazy skips it saves).
_COMPACT_MIN_CANCELLED = 64
_COMPACT_LIVE_FRACTION = 1.0


#: Default event priority: band 0, no sub-rank — ties resolve by seq.
DEFAULT_PRIORITY = (0, 0)


def check_until(until: float | None) -> None:
    """Refuse a run horizon the clock cannot take: a non-finite one."""
    if until is not None and not isfinite(until):
        raise SimulationError(f"cannot run until non-finite time {until}")


class Event:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "priority", "seq", "fn", "cancelled", "fired", "popped", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[[], None],
        sim: "Simulation | None" = None,
        priority: tuple[int, int] = DEFAULT_PRIORITY,
    ):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.fired = False
        #: True while the event sits in a popped instant pool rather than
        #: the calendar — cancellations then must not touch the
        #: dead-in-queue accounting (the event is not in a bucket).
        self.popped = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._on_cancel(self)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (other.time, other.priority, other.seq)

    def __repr__(self) -> str:
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6g} seq={self.seq}{flag}>"


class _Bucket:
    """Events of one ``(time, priority band)`` instant, in firing order.

    ``items[pos:]`` is the unconsumed tail; ``pos`` advances as events
    fire so consumption never shifts the list.  ``dirty`` marks an
    out-of-order append — the tail re-sorts (by full event order; every
    member shares the bucket time) only when actually read.
    """

    __slots__ = ("items", "pos", "dirty")

    def __init__(self):
        self.items: list[Event] = []
        self.pos = 0
        self.dirty = False


class Simulation:
    """An event calendar with a monotone clock.

    The time base is abstract: the decision-flow experiments use
    *units of processing* on the ideal database and *milliseconds* on the
    simulated database.  Nothing in the kernel cares.
    """

    def __init__(self):
        self.now: float = 0.0
        #: bucket key heap + key→bucket map; keys are (time, band).  A key
        #: may outlive its bucket (compaction deletes drained buckets
        #: without touching the heap) — reads skip stale keys lazily.
        self._heap: list[tuple[float, int]] = []
        self._buckets: dict[tuple[float, int], _Bucket] = {}
        self._seq = itertools.count()
        self._events_executed = 0
        self._live = 0
        self._dead_in_queue = 0
        self._cancelled_compactions = 0
        #: Events ever scheduled, stood-in ones included.  Read twice with
        #: the same result, nothing was inserted in between: `fire_pooled`
        #: skips its preemption peek on that, and the engines keep an
        #: arrival run or a hit wave open.
        self.scheduled = 0
        self._batch_consumer: Callable[[list[Event]], int | None] | None = None
        #: instant pools :meth:`fire_pooled` drained, and the events they consumed
        self.pooled_batches = self.pooled_events = 0
        #: priority of the event whose callback is currently running
        #: (None outside a dispatch) — lets re-planning code decide whether
        #: a same-time event with another priority has already fired.
        self.executing_priority: tuple[int, int] | None = None

    def schedule(
        self, delay: float, fn: Callable[[], None], priority: tuple[int, int] = DEFAULT_PRIORITY
    ) -> Event:
        """Schedule *fn* to run *delay* time from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, priority)

    def schedule_at(
        self, time: float, fn: Callable[[], None], priority: tuple[int, int] = DEFAULT_PRIORITY
    ) -> Event:
        """Schedule *fn* at an absolute simulated time.

        Same-time events fire in (priority, scheduling order).  The
        database kernels pass band-1 priorities keyed by query submission
        order so unit boundaries and completions interleave identically
        under the per-unit and coalesced kernels.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self.now})"
            )
        event = Event(time, next(self._seq), fn, self, priority)
        key = (time, priority[0])
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = _Bucket()
            self._buckets[key] = bucket
            heapq.heappush(self._heap, key)
            bucket.items.append(event)
        else:
            items = bucket.items
            # seq is globally monotone, so an append is in order unless
            # its in-band sub-priority undercuts the current tail.
            if items and not bucket.dirty and priority < items[-1].priority:
                bucket.dirty = True
            items.append(event)
        self._live += 1
        self.scheduled += 1
        return event

    def stand_in(self, event: Event) -> None:
        """Count one more scheduling that live *event* stands in for: the
        event its caller did not schedule because it would have sorted
        directly behind *event*'s last (see "Stand-in events")."""
        if event.fired or event.cancelled:
            raise SimulationError(f"{event!r} cannot stand in for anything any more")
        self.scheduled += 1

    def _on_cancel(self, event: Event) -> None:
        self._live -= 1
        if event.popped:
            # The event sits in a consumer's instant pool, not a bucket;
            # it either fires as a no-op or re-enters the calendar
            # (counted dead at that point).  Counting it here would let a
            # concurrent _compact zero away a debt the buckets never held.
            return
        self._dead_in_queue += 1
        if (
            self._dead_in_queue > _COMPACT_MIN_CANCELLED
            and self._dead_in_queue > self._live * _COMPACT_LIVE_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from every bucket tail.

        Reached only once dead events pass the live-fraction threshold in
        :meth:`_on_cancel`; a workload that cancels below it never pays a
        rebuild (the dead events drain lazily as reads skip them).
        Buckets left empty are dropped from the map; their heap keys go
        stale and are skipped on the next frontier read.
        """
        buckets = self._buckets
        for key in list(buckets):
            bucket = buckets[key]
            live = [event for event in bucket.items[bucket.pos:] if not event.cancelled]
            if live:
                bucket.items = live
                bucket.pos = 0
            else:
                del buckets[key]
        self._dead_in_queue = 0
        self._cancelled_compactions += 1

    def _head(self) -> tuple[Event, _Bucket, tuple[float, int]] | None:
        """The next live event with its bucket, or None.

        Pops stale heap keys, drops drained buckets, sorts a dirty tail,
        and advances past cancelled events (settling their dead-in-queue
        debt) — so on return ``heap[0]`` is exactly the returned bucket's
        key and ``bucket.items[bucket.pos]`` the event ``step`` would
        fire.
        """
        heap = self._heap
        buckets = self._buckets
        while heap:
            key = heap[0]
            bucket = buckets.get(key)
            if bucket is None:
                heapq.heappop(heap)
                continue
            items = bucket.items
            pos = bucket.pos
            if bucket.dirty:
                tail = items[pos:]
                tail.sort()
                items[pos:] = tail
                bucket.dirty = False
            while pos < len(items) and items[pos].cancelled:
                pos += 1
                self._dead_in_queue -= 1
            bucket.pos = pos
            if pos >= len(items):
                del buckets[key]
                heapq.heappop(heap)
                continue
            return items[pos], bucket, key
        return None

    def _queued_events(self) -> int:
        """Events currently held in buckets, dead included (test hook)."""
        return sum(len(b.items) - b.pos for b in self._buckets.values())

    def fire_pooled(self, events: list[Event]) -> int:
        """Fire an instant pool in order; the consumer work loop.

        Each live event dispatches exactly as :meth:`step` would (fired
        flag, counters, :attr:`executing_priority` visible to its
        callback), with a head-of-calendar preemption check between
        events — but the per-event costs are hoisted out of the loop:
        one priority-context restore for the whole pool, and a preemption
        test that runs only when a callback actually scheduled something
        (tracked by :attr:`scheduled`; the pool was the maximal frontier,
        so everything already queued sorts after it — only a *new* event
        can preempt, and ``schedule_at`` refuses the past, so only by
        priority/seq at the pool time) and from then on for as long as
        the calendar's head could still go before a later member: an
        event that lets the next one pass may sort before the one after.
        Events cancelled after being
        popped (an earlier pool member may cancel a later one) are
        skipped; their accounting was already settled by
        :meth:`_on_cancel`.  Returns the number of pool slots consumed,
        and counts the pool and them (:attr:`pooled_batches`,
        :attr:`pooled_events`); a batch consumer is this, or delegates to
        it and layers its own group work around it.
        """
        count = consumed = len(events)
        last = count - 1
        previous = self.executing_priority
        marker = self.scheduled
        try:
            for index, event in enumerate(events):
                if not event.cancelled:
                    event.fired = True
                    self._live -= 1
                    self._events_executed += 1
                    self.executing_priority = event.priority
                    event.fn()
                if index < last and self.scheduled != marker:
                    found, nxt = self._head(), events[index + 1]
                    head = found[0] if found else None
                    if head is None or head.time != nxt.time or head.priority[0] > nxt.priority[0]:
                        marker = self.scheduled  # nothing new can pass a later member either
                    elif (head.priority, head.seq) < (nxt.priority, nxt.seq):
                        consumed = index + 1
                        break
        finally:
            self.executing_priority = previous
        self.pooled_batches += 1
        self.pooled_events += consumed
        return consumed

    def step(self) -> bool:
        """Run the next pending event.  Returns False when none remain."""
        found = self._head()
        if found is None:
            return False
        self._step(found)
        return True

    def _step(self, found: tuple[Event, _Bucket, tuple[float, int]]) -> None:
        """Fire the event :meth:`_head` just *found*."""
        event, bucket, _key = found
        bucket.pos += 1
        self.now = event.time
        event.fired = True
        self._live -= 1
        self._events_executed += 1
        previous = self.executing_priority
        self.executing_priority = event.priority
        try:
            event.fn()
        finally:
            self.executing_priority = previous

    # -- instant pooling -----------------------------------------------------

    def set_batch_consumer(
        self, consumer: Callable[[list[Event]], int | None] | None
    ) -> None:
        """Register the batch consumer :meth:`step_instant` hands pools to.

        The consumer receives the popped frontier pool (same time, same
        priority band, in firing order) and must dispatch it through
        :meth:`fire_pooled` (usually with its own group-level work
        around that call).  It returns the number of events it
        consumed — anything less than the pool size (because a callback
        scheduled an event that sorts before the remainder, which
        per-event stepping would fire first) makes the kernel re-queue
        the rest.  Returning ``None`` means the whole pool was consumed.
        Pass ``None`` to deregister; registering over a *different* live
        consumer raises (two drains would race for the same calendar).
        """
        if (
            consumer is not None
            and self._batch_consumer is not None
            and self._batch_consumer != consumer  # == covers bound methods
        ):
            raise SimulationError(
                "a batch consumer is already registered; clear it first"
            )
        self._batch_consumer = consumer

    def step_instant(self) -> bool:
        """Run every pending event at the ``(time, priority band)`` frontier.

        The frontier is exactly the head bucket: detach it whole, settle
        the dead-in-queue debt of its cancelled members, and hand the
        live run to the registered batch consumer — no per-event heap
        traffic at all.  Falls back to a single per-event :meth:`step`
        when no consumer is registered.  Returns False when the calendar
        is empty.
        """
        if self._batch_consumer is None:
            return self.step()
        found = self._head()
        if found is None:
            return False
        self._step_instant(found)
        return True

    def _step_instant(self, found: tuple[Event, _Bucket, tuple[float, int]]) -> None:
        """Hand the frontier :meth:`_head` just *found* to the batch consumer."""
        head, bucket, key = found
        tail = bucket.items[bucket.pos:]
        batch = []
        for event in tail:
            if event.cancelled:
                self._dead_in_queue -= 1
            else:
                event.popped = True
                batch.append(event)
        del self._buckets[key]
        heapq.heappop(self._heap)  # _head left this bucket's key on top
        self.now = head.time
        try:
            consumed = self._batch_consumer(batch)
        except BaseException:
            # A callback raised mid-pool: per-event stepping would leave
            # the unfired siblings queued, so restore them before
            # propagating (callers may recover and run() again).
            self._requeue_unfired(batch)
            raise
        if consumed is not None and consumed < len(batch):
            # A callback scheduled work that preempts the rest of the
            # pool; hand the unfired remainder back to the calendar.
            self._requeue_unfired(batch[consumed:])

    def _requeue_unfired(self, events: list[Event]) -> None:
        """Return popped-but-unfired pool members to the calendar (one a
        callback already put back itself — :meth:`resume` — stays put)."""
        for event in events:
            if event.popped and not event.fired:
                self._requeue(event)

    def _requeue(self, event: Event) -> None:
        event.popped = False
        if event.cancelled:
            self._dead_in_queue += 1
        key = (event.time, event.priority[0])
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = _Bucket()
            self._buckets[key] = bucket
            heapq.heappush(self._heap, key)
            bucket.items.append(event)
        else:
            items = bucket.items
            # The bucket may hold events scheduled mid-pool, whose seqs
            # are newer than the requeued one's; a full (priority, seq)
            # comparison decides whether the tail needs a re-sort.
            if (
                items
                and not bucket.dirty
                and (event.priority, event.seq) < (items[-1].priority, items[-1].seq)
            ):
                bucket.dirty = True
            items.append(event)

    def preempted(self, event: Event) -> bool:
        """Whether the calendar's head sorts before *event*: asked of the
        event being fired, whether its callback has scheduled something
        per-event stepping runs ahead of whatever else *event* stands for
        (a lower band at this instant, a lower sub-priority in its own)."""
        found = self._head()
        if found is None or found[0].time != event.time:
            return False
        return (found[0].priority, found[0].seq) < (event.priority, event.seq)

    def resume(self, event: Event, fn: Callable[[], None]) -> None:
        """Put the event being fired back **at its own seq**, to run *fn*:
        the rest of a callback that stands for a run of consecutive events
        sorts where the unfired ones would — behind whatever preempted
        them (:meth:`preempted`), ahead of everything scheduled since."""
        event.fn = fn
        event.fired = False
        self._live += 1
        self._requeue(event)

    def run(self, until: float | None = None) -> None:
        """Run events until the calendar drains or the clock passes *until*.
        The clock never runs backwards (an *until* behind it fires nothing),
        and a non-finite *until* is refused before anything fires."""
        check_until(until)
        while True:
            found = self._head()
            if found is None:
                break
            if until is not None and found[0].time > until:
                break
            # fire the frontier just found: no second `_head()`
            if self._batch_consumer is None:
                self._step(found)
            else:
                self._step_instant(found)
        if until is not None and until > self.now:
            self.now = until

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still scheduled (O(1))."""
        return self._live

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def cancelled_compactions(self) -> int:
        """How many times cancelled events forced a calendar rebuild."""
        return self._cancelled_compactions

    def __repr__(self) -> str:
        return f"<Simulation now={self.now:.6g} pending={self.pending}>"
