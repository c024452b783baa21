"""Database servers: the external systems that execute foreign tasks.

Three implementations of the same submit/complete interface:

* :class:`IdealDatabase` — the *unbounded resources* setting of section 5:
  every unit of processing takes exactly one tick of simulated time and
  any number of units proceed in parallel.  Response times read off this
  database are the paper's **TimeInUnits**.
* :class:`SimulatedDatabase` — the *bounded resources* setting: a physical
  model in the style of [ACL87] with ``num_cpus`` CPU servers and
  ``num_disks`` disk servers behind FCFS queues.  Each unit of processing
  fetches ``unit_io_cost`` pages (each hits the buffer with probability
  ``%IO_hit``, otherwise pays ``IO_delay`` on a disk) and then consumes
  ``unit_cpu_cost`` quanta of CPU.  The clock is in milliseconds; response
  times are the paper's **TimeInSeconds** after division by 1000.
* :class:`ProfiledDatabase` — an analytic stand-in calibrated by an
  empirical Db(Gmpl) function; milliseconds, far cheaper than the
  physical model.

All track Gmpl — the database multiprogramming level, i.e. the number of
queries with a unit in process — as a time-weighted average, which the
analytical model of section 5 consumes.

Cost models
-----------

``IdealDatabase`` and ``ProfiledDatabase`` default to the **coalesced**
kernel: a query's trajectory between multiprogramming-level changes is
analytic (its unit time is constant over that window), so one completion
event per query replaces one heap event per unit of processing.  Work at
cancellation is recovered from unit-boundary arithmetic, keeping the
accounting identical to walking unit by unit.  Pass ``kernel="per-unit"``
to get the original unit-event reference kernel; the differential test
suite asserts the two produce identical traces.  ``SimulatedDatabase``
has no coalesced form — a unit's duration there depends on stochastic
buffer hits and FCFS queueing, so it is inherently per-visit.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from repro.simdb.des import Simulation
from repro.simdb.query import CompletionCallback, QueryHandle
from repro.simdb.rng import derive_rng

__all__ = [
    "DbParams",
    "DatabaseServer",
    "IdealDatabase",
    "SimulatedDatabase",
    "ProfiledDatabase",
    "QueryShareCache",
    "QUERY_MEMO_LIMIT",
]

#: Bound on completed-result memo entries per :class:`QueryShareCache`.
#: Service workloads with unique per-request inputs get no reuse, so an
#: unbounded memo would grow one entry per query forever.
QUERY_MEMO_LIMIT = 4096


def _query_priority(handle: QueryHandle) -> tuple[int, int]:
    """Same-time tie break for unit/completion events: submission order.

    Band 1 places database events after plain events (instance starts,
    arrival processes) and before zero-delay result deliveries.  Within
    the band, queries interleave by submission order under *both* kernels,
    which is what makes their traces comparable event for event.
    """
    return (1, handle.query_id)


@dataclass(frozen=True)
class DbParams:
    """Physical parameters of the simulated database (Table 1, last rows).

    ``cpu_ms`` is a calibration constant not in Table 1: the wall-clock
    duration of one CPU quantum.  The default (8 ms) makes the Db curve
    span roughly 10–100 ms over Gmpl 0–35, the range of the paper's
    Figure 9(a).
    """

    num_cpus: int = 4
    num_disks: int = 10
    unit_cpu_cost: int = 1
    unit_io_cost: int = 1
    pct_io_hit: float = 50.0
    io_delay_ms: float = 5.0
    cpu_ms: float = 8.0
    #: probability that a query errors at completion (failure injection for
    #: the paper's "database is down" scenario); work is still consumed.
    failure_prob: float = 0.0

    def expected_unit_service_ms(self) -> float:
        """Mean resource demand of one unit at zero contention."""
        miss = 1.0 - self.pct_io_hit / 100.0
        return self.unit_cpu_cost * self.cpu_ms + self.unit_io_cost * miss * self.io_delay_ms

    def max_unit_throughput_per_ms(self) -> float:
        """Saturation throughput in units per millisecond (bottleneck law)."""
        cpu_capacity = self.num_cpus / (self.unit_cpu_cost * self.cpu_ms)
        miss = 1.0 - self.pct_io_hit / 100.0
        disk_demand = self.unit_io_cost * miss * self.io_delay_ms
        disk_capacity = self.num_disks / disk_demand if disk_demand > 0 else float("inf")
        return min(cpu_capacity, disk_capacity)


class DatabaseServer:
    """Common bookkeeping: Gmpl tracking, work accounting, failure draws."""

    def __init__(self, sim: Simulation, failure_prob: float = 0.0, seed: int = 0):
        if not 0.0 <= failure_prob <= 1.0:
            raise ValueError(f"failure_prob must be in [0, 1], got {failure_prob}")
        self.sim = sim
        self._query_seq = 0
        self.total_units = 0
        self.queries_completed = 0
        self.queries_cancelled = 0
        self.queries_failed = 0
        self.failure_prob = failure_prob
        self._failure_rng = derive_rng(seed, "db-failures")
        self._active = 0
        self._gmpl_integral = 0.0
        self._gmpl_last_change = sim.now
        # Piecewise-linear integral trace: one (time, integral) point per
        # distinct change instant, so any window's integral is exact.
        self._gmpl_times = array("d", [sim.now])
        self._gmpl_integrals = array("d", [0.0])
        #: earliest instant the trace still covers once it has been trimmed
        self._gmpl_trimmed_to = float("-inf")

    # -- Gmpl accounting ----------------------------------------------------

    def _change_active(self, delta: int) -> None:
        now = self.sim.now
        if now != self._gmpl_last_change:
            self._gmpl_integral += self._active * (now - self._gmpl_last_change)
            self._gmpl_last_change = now
            self._gmpl_times.append(now)
            self._gmpl_integrals.append(self._gmpl_integral)
        self._active += delta

    @property
    def gmpl(self) -> int:
        """Current multiprogramming level (queries with a unit in process)."""
        return self._active

    def mean_gmpl(self, since: float = 0.0) -> float:
        """Time-weighted mean Gmpl over the window from *since* until now.

        The mean divides the integral accumulated *inside the window* by
        the window length, so warmup-trimmed measurements (``since > 0``)
        are exact rather than inflated by pre-window history.  A window
        reaching back past a :meth:`trim_gmpl_history` cut starts at the
        cut: the mean is over what the trace still covers.
        """
        now = self.sim.now
        since = max(since, self._gmpl_trimmed_to)
        elapsed = now - since
        if elapsed <= 0:
            return 0.0
        total = self._gmpl_integral + self._active * (now - self._gmpl_last_change)
        return (total - self._gmpl_integral_at(since)) / elapsed

    def trim_gmpl_history(self, keep_since: float) -> int:
        """Drop Gmpl trace points before *keep_since*; returns the count.

        The windowed-mean trace costs two floats per Gmpl change instant
        (~2 changes per query), which an unbounded sweep would accumulate
        forever.  After trimming, ``mean_gmpl(since=t)`` stays exact for
        any ``t >= keep_since``; windows reaching further back are clamped
        to the trimmed start.
        """
        index = bisect_right(self._gmpl_times, keep_since) - 1
        if index <= 0:
            return 0
        self._gmpl_times = self._gmpl_times[index:]
        self._gmpl_integrals = self._gmpl_integrals[index:]
        self._gmpl_trimmed_to = self._gmpl_times[0]
        return index

    def _gmpl_integral_at(self, t: float) -> float:
        """The Gmpl integral accumulated from the server's start until *t*."""
        times = self._gmpl_times
        if t <= times[0]:
            # Before the recorded trace: zero for a fresh server, the
            # clamped start for a trimmed one.
            return self._gmpl_integrals[0]
        index = bisect_right(times, t) - 1
        base = self._gmpl_integrals[index]
        if index == len(times) - 1:
            slope = float(self._active)
        else:
            span = times[index + 1] - times[index]
            slope = (self._gmpl_integrals[index + 1] - base) / span
        return base + slope * (t - times[index])

    # -- submission ----------------------------------------------------------

    def submit(self, cost: int, on_complete: CompletionCallback) -> QueryHandle:
        """Dispatch a query of *cost* units; *on_complete* fires once."""
        if cost < 1:
            raise ValueError(f"query cost must be >= 1, got {cost}")
        self._query_seq += 1
        handle = QueryHandle(self._query_seq, cost, self.sim.now)
        self._change_active(+1)
        self._begin(handle, on_complete)
        return handle

    def _begin(self, handle: QueryHandle, on_complete: CompletionCallback) -> None:
        """Start executing a submitted query (kernel-specific)."""
        self._start_unit(handle, on_complete)

    # -- per-unit reference kernel --------------------------------------------

    def _start_unit(self, handle: QueryHandle, on_complete: CompletionCallback) -> None:
        raise NotImplementedError

    def _unit_finished(self, handle: QueryHandle, on_complete: CompletionCallback) -> None:
        handle.processed += 1
        self.total_units += 1
        if handle.processed >= handle.cost:
            self._finish(handle, on_complete, completed=True)
        elif handle.cancel_requested:
            self._finish(handle, on_complete, completed=False)
        else:
            self._start_unit(handle, on_complete)

    def _finish(self, handle: QueryHandle, on_complete: CompletionCallback, completed: bool) -> None:
        handle.finished = True
        self._change_active(-1)
        if completed:
            self.queries_completed += 1
            if self.failure_prob > 0 and self._failure_rng.random() < self.failure_prob:
                # The database did the work but the query errored (timeout,
                # deadlock victim, replica down): the caller sees a failure.
                handle.failed = True
                self.queries_failed += 1
        else:
            self.queries_cancelled += 1
        on_complete(handle.processed, completed)


class _CoalescedServer(DatabaseServer):
    """Shared machinery of the event-coalesced kernels.

    A query's plan lives on its handle: ``units_done`` boundaries already
    behind it, the absolute end time ``unit_end`` of the unit in service,
    and the ``unit_time`` every later unit will take.  Exactly one
    completion event is scheduled per query; cancellation and (for the
    profiled server) multiprogramming-level changes reschedule it.  Unit
    boundaries that pass silently are recovered by repeated addition —
    the same float accumulation the per-unit kernel performs — so Work
    accounting at cancellation is identical to walking unit by unit.
    """

    def __init__(
        self, sim: Simulation, failure_prob: float = 0.0, seed: int = 0, kernel: str = "coalesced"
    ):
        if kernel not in ("coalesced", "per-unit"):
            raise ValueError(f"kernel must be 'coalesced' or 'per-unit', got {kernel!r}")
        super().__init__(sim, failure_prob, seed)
        self.kernel = kernel
        #: live coalesced queries in submission order (query id → plan)
        self._inflight: dict[int, tuple[QueryHandle, CompletionCallback]] = {}

    def _unit_rate(self) -> float:
        """Duration of a unit of processing starting now."""
        raise NotImplementedError

    def _tie_boundary_fired(self, handle: QueryHandle) -> bool:
        """Has a unit boundary falling exactly *now* already fired?

        Under the per-unit kernel the boundary is a real band-1 event; it
        precedes the currently executing event iff its priority is lower.
        Outside any dispatch every same-time event has already run.
        """
        current = self.sim.executing_priority
        return current is None or _query_priority(handle) < current

    def _begin(self, handle: QueryHandle, on_complete: CompletionCallback) -> None:
        if self.kernel == "per-unit":
            self._start_unit(handle, on_complete)
            return
        rate = self._unit_rate()
        handle.unit_time = rate
        handle.unit_end = self.sim.now + rate
        self._inflight[handle.query_id] = (handle, on_complete)
        handle._cancel_hook = lambda: self._on_cancel_request(handle, on_complete)
        self._arm_completion(handle, on_complete)

    def _arm_completion(self, handle: QueryHandle, on_complete: CompletionCallback) -> None:
        """Schedule the freshly planned query's completion (one event each)."""
        handle._event = self.sim.schedule_at(
            self._completion_time(handle),
            lambda: self._complete(handle, on_complete),
            _query_priority(handle),
        )

    def _completion_time(self, handle: QueryHandle) -> float:
        return handle.unit_end + (handle.cost - handle.units_done - 1) * handle.unit_time

    def _complete(self, handle: QueryHandle, on_complete: CompletionCallback) -> None:
        del self._inflight[handle.query_id]
        handle.units_done = handle.cost
        handle.processed = handle.cost
        self.total_units += handle.cost
        self._finish(handle, on_complete, completed=True)

    def _cancel_plan(self, handle: QueryHandle) -> tuple[int, float]:
        """Final unit count and finish time for a cancellation request now.

        The per-unit contract: the query finishes — cancelled, with every
        unit up to and including the one in service counted — at the next
        unit boundary after the request.
        """
        now = self.sim.now
        while handle.unit_end < now and handle.units_done + 1 < handle.cost:
            handle.units_done += 1
            handle.unit_end += handle.unit_time
        if handle.unit_end == now:
            # A boundary falls exactly at the cancel instant.  If its
            # per-unit event would already have fired, the next unit is in
            # service and still completes; otherwise the boundary itself
            # delivers the cancellation.
            if self._tie_boundary_fired(handle):
                return handle.units_done + 2, now + handle.unit_time
            return handle.units_done + 1, now
        return handle.units_done + 1, handle.unit_end

    def _on_cancel_request(self, handle: QueryHandle, on_complete: CompletionCallback) -> None:
        final, when = self._cancel_plan(handle)
        if final >= handle.cost:
            return  # the remaining units complete anyway: too late to cancel
        handle._event.cancel()
        handle._event = self.sim.schedule_at(
            when, lambda: self._cancelled(handle, on_complete, final), _query_priority(handle)
        )

    def _cancelled(self, handle: QueryHandle, on_complete: CompletionCallback, final: int) -> None:
        del self._inflight[handle.query_id]
        handle.units_done = final
        handle.processed = final
        self.total_units += final
        self._finish(handle, on_complete, completed=False)


class IdealDatabase(_CoalescedServer):
    """Unbounded resources: one unit of processing per tick, full parallelism."""

    def __init__(
        self,
        sim: Simulation,
        unit_duration: float = 1.0,
        failure_prob: float = 0.0,
        seed: int = 0,
        kernel: str = "coalesced",
    ):
        super().__init__(sim, failure_prob, seed, kernel)
        if unit_duration <= 0:
            raise ValueError(f"unit_duration must be positive, got {unit_duration}")
        self.unit_duration = unit_duration

    def _unit_rate(self) -> float:
        return self.unit_duration

    def _completion_time(self, handle: QueryHandle) -> float:
        # Accumulate like the per-unit kernel (one addition per boundary)
        # so finish instants are bit-identical for *any* unit_duration,
        # not only the exactly representable ones.
        when = handle.unit_end
        for _ in range(handle.cost - handle.units_done - 1):
            when += handle.unit_time
        return when

    def _start_unit(self, handle: QueryHandle, on_complete: CompletionCallback) -> None:
        self.sim.schedule(
            self.unit_duration,
            lambda: self._unit_finished(handle, on_complete),
            _query_priority(handle),
        )


class SimulatedDatabase(DatabaseServer):
    """Bounded resources: CPU and disk service queues per [ACL87]."""

    def __init__(self, sim: Simulation, params: DbParams | None = None, seed: int = 0):
        params = params or DbParams()
        super().__init__(sim, params.failure_prob, seed)
        # Imported here to avoid a hard dependency for IdealDatabase users.
        from repro.simdb.resource import ServiceCenter

        self.params = params
        self.cpus = ServiceCenter(sim, self.params.num_cpus, "cpus")
        self.disks = ServiceCenter(sim, self.params.num_disks, "disks")
        self._rng = derive_rng(seed, "simdb", "buffer")

    def _start_unit(self, handle: QueryHandle, on_complete: CompletionCallback) -> None:
        self._fetch_pages(handle, on_complete, remaining=self.params.unit_io_cost)

    def _fetch_pages(self, handle: QueryHandle, on_complete: CompletionCallback, remaining: int) -> None:
        if remaining <= 0:
            self.cpus.request(
                self.params.unit_cpu_cost * self.params.cpu_ms,
                lambda: self._unit_finished(handle, on_complete),
            )
            return
        hit = self._rng.random() < self.params.pct_io_hit / 100.0
        if hit:
            # Buffer hit: no disk visit; continue with the next page now.
            self._fetch_pages(handle, on_complete, remaining - 1)
        else:
            self.disks.request(
                self.params.io_delay_ms,
                lambda: self._fetch_pages(handle, on_complete, remaining - 1),
            )


class ProfiledDatabase(_CoalescedServer):
    """Analytic stand-in calibrated by an empirical Db function.

    Each unit of processing takes ``Db(Gmpl)`` milliseconds at the
    multiprogramming level current when the unit starts — the contention
    model of Equation (4) applied directly, without simulating individual
    CPU/disk visits.  Gmpl (and hence the unit time) only changes when a
    query is submitted or finishes, so between changes every in-flight
    query advances at a known constant rate.

    The coalesced kernel keeps that rate as *one* server-wide value for
    every unit that has not started, and indexes the in-flight queries so
    a Gmpl change touches only what it must.  *Open* queries (finish still
    moves with Gmpl) are filed by remaining whole units ``r`` in min-heaps
    of ``(unit_end, query_id)``: a change advances only the bucket tops
    whose unit boundary it passed — at the outgoing rate, exactly as the
    per-unit kernel priced those units — and the earliest open completion
    is ``min over r of (top unit_end + r * rate)``.  Queries whose finish
    no change can move (last unit in service, cancel-planned, too late to
    cancel) sit in one heap of fixed finishes.  A *single* heap event —
    the earliest due completion — is armed, chaining to the next on every
    dispatch, so heap traffic is O(Gmpl changes).

    A Gmpl change costs O(boundaries passed · log n + distinct r): flat in
    the in-flight population n when the server saturates (n ≈ 1 000 on
    ``sweep_profiled``, where walking every handle per change made this
    kernel 2.9× slower than the per-unit one), at worst O(n log n) when
    every query passed a boundary (cost >= 20 at Gmpl <= 16: ≈6 % over
    the walk per query).  README "Backend cost models" has the numbers.
    """

    def __init__(
        self,
        sim: Simulation,
        db_function,
        failure_prob: float = 0.0,
        seed: int = 0,
        kernel: str = "coalesced",
    ):
        super().__init__(sim, failure_prob, seed, kernel)
        if not callable(db_function):
            raise TypeError(f"db_function must be callable, got {db_function!r}")
        self.db_function = db_function
        self._next_event = None
        self._next_key: tuple[float, int] | None = None
        #: Db(Gmpl) as of the last Gmpl change: what every unit that has
        #: not started yet will take (coalesced kernel)
        self._rate = 0.0
        #: open queries by remaining whole units (>= 1): min-heaps of
        #: ``(unit_end, query_id, handle)``.  Entries are dropped lazily:
        #: one is stale once its query is cancel-requested or has moved on
        #: to fewer remaining units.
        self._open: dict[int, list[tuple[float, int, QueryHandle]]] = {}
        #: ``(finish, query_id, handle)`` of queries no Gmpl change can
        #: move; stale once the query finished.
        self._fixed: list[tuple[float, int, QueryHandle]] = []

    def _db_unit_time(self) -> float:
        # The submitting query is already counted in Gmpl (>= 1 here).
        unit_ms = float(self.db_function(self._active))
        if unit_ms <= 0:
            raise ValueError(f"Db function returned non-positive UnitTime {unit_ms}")
        return unit_ms

    def _unit_rate(self) -> float:
        # A submission's own Gmpl change has just settled the coalesced
        # rate; the per-unit oracle prices every unit where it starts.
        return self._rate if self.kernel == "coalesced" else self._db_unit_time()

    def _start_unit(self, handle: QueryHandle, on_complete: CompletionCallback) -> None:
        self.sim.schedule(
            self._unit_rate(),
            lambda: self._unit_finished(handle, on_complete),
            _query_priority(handle),
        )

    # -- coalesced planning ----------------------------------------------------

    def _file(self, handle: QueryHandle) -> tuple[float, int]:
        """Index an open query where its plan stands; returns its due key."""
        left = handle.cost - handle.units_done - 1
        entry = (handle.unit_end, handle.query_id, handle)
        heap = self._open.get(left) if left else self._fixed
        if heap is None:
            self._open[left] = [entry]
        else:
            heappush(heap, entry)
        return handle.unit_end + left * self._rate, handle.query_id

    def _contend(self, handle: QueryHandle, key: tuple[float, int]) -> None:
        """Take the single armed slot if *handle* is due before its holder."""
        if self._next_key is None or key < self._next_key:
            self._arm(handle, key)

    def _arm_completion(self, handle: QueryHandle, on_complete: CompletionCallback) -> None:
        # The submission's Gmpl change already re-priced the others; the
        # new query only needs to contend for the single armed slot.
        self._contend(handle, self._file(handle))

    def _change_active(self, delta: int) -> None:
        super()._change_active(delta)
        if self._active and self.kernel == "coalesced":
            self._resync_and_arm()

    def _resync_and_arm(self) -> None:
        """Gmpl changed: re-price every unit that has not started yet.

        The unit in service keeps its duration (resources already
        committed); units after it take the new ``Db(Gmpl)`` rate, exactly
        as the per-unit kernel would price them at their own start times.
        Only a query whose boundary this change passed needs touching: the
        units it silently began ran at the outgoing rate (a boundary
        exactly *now* counts iff its per-unit event would already have
        fired — same-instant entries are in id order, so the first unfired
        one ends a bucket's scan).  Everyone else's plan is its bucket plus
        the one server-wide rate.
        """
        now = self.sim.now
        old = self._rate
        rate = self._rate = self._db_unit_time()
        best = best_key = None
        moved = []
        for left, heap in list(self._open.items()):
            while heap:
                unit_end, query_id, handle = heap[0]
                done, last = handle.units_done, handle.cost - 1
                if handle.cancel_requested or last - done != left:
                    heappop(heap)  # stale: re-filed, fixed or finished since
                    continue
                while done < last and (
                    unit_end < now
                    or (unit_end == now and self._tie_boundary_fired(handle))
                ):
                    done += 1
                    unit_end += old
                if done == handle.units_done:  # the earliest boundary is still ahead
                    key = (unit_end + left * rate, query_id)
                    if best_key is None or key < best_key:
                        best_key, best = key, handle
                    break
                heappop(heap)
                handle.units_done, handle.unit_end = done, unit_end
                moved.append(handle)
            else:
                del self._open[left]  # drained
        for handle in moved:
            key = self._file(handle)
            if best_key is None or key < best_key:
                best_key, best = key, handle
        fixed = self._fixed
        while fixed and fixed[0][2].finished:
            heappop(fixed)
        if fixed:
            when, query_id, handle = fixed[0]
            if best_key is None or (when, query_id) < best_key:
                best_key, best = (when, query_id), handle
        self._arm(best, best_key)

    def _arm(self, handle: QueryHandle | None, key: tuple[float, int] | None) -> None:
        if self._next_key == key:
            return
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None
        self._next_key = key
        if handle is None:
            return
        when, query_id = key
        self._next_event = self.sim.schedule_at(
            when, lambda: self._fire(handle), (1, query_id)
        )

    def _fire(self, handle: QueryHandle) -> None:
        self._next_event = None
        self._next_key = None
        _handle, on_complete = self._inflight.pop(handle.query_id)
        completed = handle.cancel_units is None
        final = handle.cost if completed else handle.cancel_units
        handle.units_done = final
        handle.processed = final
        self.total_units += final
        self._finish(handle, on_complete, completed=completed)

    def _on_cancel_request(self, handle: QueryHandle, on_complete: CompletionCallback) -> None:
        last_unit = handle.units_done + 1 == handle.cost
        # Every unit a cancelled query still runs has started by now, so
        # the request pins its rate and with it its finish.
        handle.unit_time = self._rate
        final, when = self._cancel_plan(handle)
        if final < handle.cost:
            handle.cancel_units = final
        elif last_unit:
            return  # too late to cancel, and already filed under its finish
        else:
            when = self._completion_time(handle)  # too late: runs to completion
        key = (when, handle.query_id)
        heappush(self._fixed, (*key, handle))
        self._contend(handle, key)


class _CacheFollower:
    """Placeholder handle for a query answered by the share cache.

    Presents the :class:`~repro.simdb.query.QueryHandle` surface the
    engine touches — ``cancel()``, ``failed``, ``counts_for_parallelism``
    — without occupying the database: a follower costs the server
    nothing, so it must not consume a %Permitted parallelism slot, and
    cancelling it only flags the eventual delivery as cancelled (there is
    no in-service unit to stop).
    """

    #: followers cost the database nothing, so the scheduler's in-flight
    #: cut must ignore them (same contract as engine-level shared waits).
    counts_for_parallelism = False

    __slots__ = ("key", "cost", "on_complete", "cancel_requested", "finished", "failed", "memo")

    def __init__(
        self, key: object, cost: int, on_complete: CompletionCallback | None, memo=False
    ):
        self.key = key
        self.cost = cost
        self.on_complete = on_complete
        self.cancel_requested = False
        self.finished = False
        self.failed = False
        #: answered from the L1 memo at submission — not coalesced behind
        #: an in-flight primary, not promoted from the L2 tier
        self.memo = memo

    def cancel(self) -> None:
        """Mark the pending delivery cancelled (resolved at fan-out)."""
        if self.finished or self.cancel_requested:
            return
        self.cancel_requested = True

    def __repr__(self) -> str:
        status = "done" if self.finished else (
            "cancelling" if self.cancel_requested else "waiting"
        )
        return f"<_CacheFollower cost={self.cost} {status}>"


class QueryShareCache:
    """Coalesce identical queries to one database dispatch per key.

    The paper's thesis is that data-intensive decision flows win by
    *sharing and avoiding* expensive source accesses; the survey
    literature (Kougka & Gounaris) names result reuse/materialization as
    the dominant lever next to task re-ordering.  This cache is that
    lever at the database-access layer, below the engine's §6
    ``share_results`` table (which shares *values* and rewires launches):

    * an **in-flight** identical query (same key: task, frozen inputs,
      cost) is *coalesced* — the second submission gets a
      :class:`_CacheFollower` whose completion callback fires, with zero
      units of work, when the one real query completes;
    * a **completed** identical query is served from a bounded LRU memo
      as a *hit* — a zero-delay band-2 delivery, the same priority as
      engine-level shared-result deliveries, so per-event and pooled
      dispatch order it identically;
    * anything else is a **miss** and dispatches to the wrapped database.

    Failed primaries resolve their followers (marked ``failed``) but are
    never memoized, so the next identical query retries.  A cancelled
    primary strands its followers; the cache reissues one fresh query on
    behalf of the still-live ones (mirroring the engine share table's
    abandon/reissue protocol).  Counters — ``hits`` / ``misses`` /
    ``coalesced`` — surface through ``DecisionService.summary()``.

    **L2 tier.**  In a sharded fleet this cache is the per-shard *L1*;
    pass ``l2`` (a :class:`~repro.runtime.l2cache.ShardL2View`) to stack
    the cross-shard tier underneath: an L1 miss probes the L2 before
    dispatching (``l2_hits`` / ``l2_misses``), a hit promotes the key
    into the L1 memo and serves the same zero-delay band-2 delivery as a
    memo hit, and every successful primary completion publishes its key
    up (``l2_promotions`` counts keys new to the shard's view).  The L2
    inherits the L1's failure semantics for free — publication happens
    only on the success path, so failed results never reach the tier and
    cancelled primaries follow the reissue protocol before anything is
    published.

    Semantics: like every sharing optimization, coalescing changes
    execution *dynamics* relative to an uncached run — shared
    completions arrive earlier, followers hold no %Permitted slot, and
    one failure draw per real dispatch means followers inherit the
    primary's outcome — while the value each completed query delivers
    is unchanged (the paper's fixed-data assumption).  Cached runs are
    themselves fully deterministic and identical across engines,
    dispatch modes, and shard executors (the differential suites pin
    this down); they are not bit-comparable to uncached runs.
    """

    def __init__(
        self,
        database: DatabaseServer,
        memo_limit: int = QUERY_MEMO_LIMIT,
        l2=None,
    ):
        if memo_limit < 1:
            raise ValueError(f"memo_limit must be >= 1, got {memo_limit}")
        self.database = database
        self.memo_limit = memo_limit
        #: the shared cross-shard tier (ShardL2View), or None when this
        #: cache runs standalone (single shard, or the tier is disarmed)
        self.l2 = l2
        #: key -> (primary handle, follower list), one entry per live key
        self._inflight: dict[object, tuple[QueryHandle, list[_CacheFollower]]] = {}
        #: primary handle -> key (waiter lookups, entry cleanup)
        self._handle_key: dict[QueryHandle, object] = {}
        #: key -> count of *virtual* followers: coalesced waiters an
        #: engine-level aggregation (cohort execution) accounts for
        #: itself instead of materializing one _CacheFollower each.
        #: They pin the primary exactly like live real followers; their
        #: resolution bookkeeping happens in the issuer's completion
        #: callback, so the cache only counts them.
        self._virtual: dict[object, int] = {}
        #: completed keys, LRU-ordered (oldest first)
        self._memo: dict[object, bool] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.reissues = 0
        self.l2_hits = 0
        self.l2_misses = 0
        self.l2_promotions = 0
        #: bumped whenever a *real* follower coalesces anywhere; lets
        #: engine aggregations skip per-key follower re-checks while no
        #: coalescing has happened at all (the overwhelmingly common
        #: case during a burst of identical submissions)
        self.follower_epoch = 0

    # -- submission ----------------------------------------------------------

    def submit(self, key: object, cost: int, on_complete: CompletionCallback):
        """Dispatch, coalesce, or answer a query for *key* from the memo.

        Returns the handle the caller should treat exactly like a
        :meth:`DatabaseServer.submit` result.
        """
        if cost < 1:
            raise ValueError(f"query cost must be >= 1, got {cost}")
        memo = self._memo
        if key in memo:
            self.hits += 1
            if next(reversed(memo)) != key:
                # Refresh LRU recency so hot keys are the last evicted.
                del memo[key]
                memo[key] = True
            follower = _CacheFollower(key, cost, on_complete, memo=True)
            # Deliver asynchronously (band 2, like engine-level shared
            # results) so state changes stay event-driven and pooled
            # dispatch sees the same event order as per-event stepping.
            self.database.sim.schedule(
                0.0, lambda: self.deliver(follower), priority=(2, 0)
            )
            return follower
        entry = self._inflight.get(key)
        if entry is not None:
            self.coalesced += 1
            self.follower_epoch += 1
            follower = _CacheFollower(key, cost, on_complete)
            entry[1].append(follower)
            return follower
        l2 = self.l2
        if l2 is not None:
            if l2.probe(key):
                # Another shard completed this key in an earlier round:
                # promote it into the L1 memo and serve the same
                # zero-delay band-2 delivery as a memo hit.
                self.l2_hits += 1
                self._remember(key)
                follower = _CacheFollower(key, cost, on_complete)
                self.database.sim.schedule(
                    0.0, lambda: self.deliver(follower), priority=(2, 0)
                )
                return follower
            self.l2_misses += 1
        self.misses += 1
        return self._dispatch(key, cost, on_complete)

    def _dispatch(
        self, key: object, cost: int, on_complete: CompletionCallback | None
    ) -> QueryHandle:
        """Issue the one real database query behind *key*."""
        handle = self.database.submit(
            cost, lambda processed, completed: self._primary_done(
                key, on_complete, processed, completed
            )
        )
        self._inflight[key] = (handle, [])
        self._handle_key[handle] = key
        return handle

    # -- resolution ----------------------------------------------------------

    def _primary_done(
        self,
        key: object,
        on_complete: CompletionCallback | None,
        processed: int,
        completed: bool,
    ) -> None:
        primary, followers = self._inflight.pop(key)
        del self._handle_key[primary]
        # Virtual followers resolve inside the issuer's callback below
        # (the engine fans their bookkeeping itself); drop the pin.
        self._virtual.pop(key, None)
        if completed:
            failed = primary.failed
            if not failed:
                # Memoize before the issuer advances: a same-key launch
                # made inside its advance must hit, not re-dispatch.
                self._remember(key)
                if self.l2 is not None and self.l2.publish(key):
                    self.l2_promotions += 1
            if on_complete is not None:
                on_complete(processed, completed)
            self._fan_out(followers, failed)
            return
        # The primary was cancelled.  Resolve the issuer first (it keeps
        # ownership of its own advance), then the followers.
        if on_complete is not None:
            on_complete(processed, completed)
        live: list[_CacheFollower] = []
        for follower in followers:
            if follower.cancel_requested:
                follower.finished = True
                follower.on_complete(0, False)
            else:
                live.append(follower)
        if not live:
            return
        # Reissue one fresh query on behalf of the stranded followers —
        # unless the issuer's advance already re-dispatched the key, in
        # which case they join that entry.
        entry = self._inflight.get(key)
        if entry is not None:
            self.follower_epoch += 1
            entry[1].extend(live)
            return
        self.reissues += 1
        reissued = self._dispatch(key, live[0].cost, None)
        self._inflight[key] = (reissued, live)

    def _fan_out(self, followers: list[_CacheFollower], failed: bool) -> None:
        """Resolve every follower of a completed primary, in join order."""
        for follower in followers:
            follower.finished = True
            if follower.cancel_requested:
                follower.on_complete(0, False)
            else:
                follower.failed = failed
                follower.on_complete(0, True)

    def touch(self, keys: Sequence[object]) -> bool:
        """What :meth:`submit` does to the memo on a hit — ``hits``, LRU
        recency — for every one of *keys* in order, on behalf of a caller
        that replays the deliveries itself (the engine's flow memo); or,
        if any of them has been evicted, nothing at all."""
        memo = self._memo
        for key in keys:
            if key not in memo:
                return False
        for key in keys:
            del memo[key]
            memo[key] = True
        self.hits += len(keys)
        return True

    def hit(self, key: object, cost: int) -> _CacheFollower | None:
        """:meth:`submit`'s memo branch without the delivery event: the hit
        is checked, counted and refreshed exactly as there and the follower
        returned to a caller that delivers it itself, in the event it
        would have had (the engine's hit waves; it needs no callback).
        None, and nothing touched, when the memo does not hold *key*."""
        if cost < 1:
            raise ValueError(f"query cost must be >= 1, got {cost}")
        memo = self._memo
        if memo.pop(key, None) is None:
            return None
        memo[key] = True  # the most recent again, as there
        self.hits += 1
        return _CacheFollower(key, cost, None, memo=True)

    def follower(self, key, cost: int, on_complete, cancelled: bool) -> _CacheFollower:
        """The handle of a hit :meth:`touch` counted, for :meth:`deliver`."""
        follower = _CacheFollower(key, cost, on_complete, memo=True)
        follower.cancel_requested = cancelled
        return follower

    def deliver(self, follower: _CacheFollower) -> None:
        """Fire a memo hit's zero-delay delivery."""
        follower.finished = True
        if follower.cancel_requested:
            follower.on_complete(0, False)
        else:
            follower.on_complete(0, True)

    def _remember(self, key: object) -> None:
        memo = self._memo
        if key in memo:
            return
        if len(memo) >= self.memo_limit:
            memo.pop(next(iter(memo)))
        memo[key] = True

    # -- virtual followers (cohort-weighted coalescing) -----------------------
    #
    # Cohort execution dedupes whole instances: every member of a cohort
    # would submit the same key and coalesce behind the representative's
    # primary.  Rather than materializing one _CacheFollower per member
    # per query, the engine attaches a *count* — counters and waiter
    # pinning behave exactly as if that many live followers had joined,
    # while resolution bookkeeping is fanned by the engine inside the
    # issuer's completion callback (the same event real followers would
    # resolve in).

    def is_primary(self, handle: object) -> bool:
        """Whether *handle* is the live primary of an in-flight key."""
        return handle in self._handle_key

    def follower_count(self, handle: object) -> int:
        """Real followers already coalesced behind *handle* (0 otherwise).

        Virtual attachments are fanned ahead of the real follower list,
        so they stay order-exact only while they precede every real
        follower; the engine checks this before attaching at a cohort
        join.  Cancelled followers still occupy fan-out positions and
        therefore count here.
        """
        key = self._handle_key.get(handle)
        if key is None:
            return 0
        entry = self._inflight.get(key)
        return len(entry[1]) if entry is not None else 0

    def attach_virtual(self, handle: object, count: int) -> None:
        """Coalesce *count* virtual followers behind a primary handle."""
        key = self._handle_key[handle]
        self.coalesced += count
        self._virtual[key] = self._virtual.get(key, 0) + count

    def release_virtual(self, handle: object, count: int) -> None:
        """Un-pin *count* virtual followers (they cancelled their wait)."""
        key = self._handle_key[handle]
        left = self._virtual.get(key, 0) - count
        if left > 0:
            self._virtual[key] = left
        else:
            self._virtual.pop(key, None)

    def materialize_virtual(
        self, handle: object, specs: Sequence[tuple[int, CompletionCallback, bool]]
    ) -> list[_CacheFollower]:
        """Convert virtual followers into real ones (a cohort dissolving).

        *specs* is one ``(cost, on_complete, cancel_requested)`` triple
        per follower, in join order; the new followers are prepended
        ahead of any follower that coalesced later, preserving fan-out
        order.  Counters are untouched (the attachments were already
        counted), and any remaining virtual pin on the key is dropped —
        the materialized followers carry the waiting from here.
        """
        key = self._handle_key[handle]
        followers: list[_CacheFollower] = []
        for cost, on_complete, cancelled in specs:
            follower = _CacheFollower(key, cost, on_complete)
            follower.cancel_requested = cancelled
            followers.append(follower)
        entry = self._inflight[key]
        entry[1][:0] = followers
        self.follower_epoch += 1
        self._virtual.pop(key, None)
        return followers

    # -- inspection ----------------------------------------------------------

    def waiter_count(self, handle: object) -> int:
        """*Live* followers coalesced behind *handle* (0 for non-primaries).

        Cancelled followers no longer need the result (they resolve as
        cancelled either way), so they must not pin an otherwise
        cancellable primary — e.g. under ``cancel_unneeded``, a primary
        whose every waiter was itself cancelled should be cancelled too.
        Virtual (cohort-weighted) followers count while attached; the
        engine releases them when their members cancel.
        """
        key = self._handle_key.get(handle)
        if key is None:
            return 0
        return self._virtual.get(key, 0) + sum(
            1 for follower in self._inflight[key][1] if not follower.cancel_requested
        )

    @property
    def memo_size(self) -> int:
        return len(self._memo)

    @property
    def inflight_keys(self) -> int:
        return len(self._inflight)

    def __repr__(self) -> str:
        return (
            f"<QueryShareCache memo={self.memo_size}/{self.memo_limit} "
            f"inflight={self.inflight_keys} hits={self.hits} "
            f"misses={self.misses} coalesced={self.coalesced}>"
        )
