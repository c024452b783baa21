"""Lockstep cohorts: whole-instance dedup over the typed start key.

A reuse tier of the product engine (:mod:`repro.core.batch_engine`),
built only where it is armed (:class:`Cohorts`).  The first instance of a
(start valuation, start instant) point becomes the cohort
*representative*; one arriving at the same point while the
representative is still at its start stage *rides* it iff every query
the representative waits on is a cache primary of its own with no real
follower behind it (:meth:`Cohorts._rides`).  Each launch of the arrival
would then coalesce behind that primary, deliver zero units and inherit
its outcome, so the members of a cohort are *bit-identical* until they
finish and ride in lockstep: they never submit a query (one weighted
virtual attachment per primary keeps cache counters and cancel-pinning
exact), hold no arrays, and share one metrics template while they ride
and one final record once they finish, copied only for a member that is
read.  Most members are *rows* (:class:`~repro.core.rows.Row`): an
arrival right behind one with the same start key is submitted as one,
never builds a :class:`BatchedInstance` unless it has to run for itself,
and reads its cohort's :class:`~repro.core.rows._Ride` — so where nobody
listens and no member has a callback pending, a cohort finishes its rows
in one step (:meth:`Cohorts._finish_together`).  Per-member work remains
only where identity genuinely diverges: observer events (skipped when
nobody listens), straggler booking, a metrics read, and finishing a
member that is an instance.  An arrival that cannot ride starts as the
ordinary instance it is — its launches coalesce or hit like anyone's —
and the cohort leaves the table.

There is one way out of lockstep, :meth:`Cohorts._dissolve`: every
member becomes the ordinary instance it would be at that point, with a
real follower of its own behind each primary, so database totals, cache
counters, event sequences and cancel-pinning are unchanged by
construction; a row gets its :class:`BatchedInstance` there.  It is
taken when an arrival cannot ride a cohort that has members (a real
follower has coalesced since the last join, and would sit between them
and the arrival), when the cache answers one of the representative's
later launches (a memo hit, or a coalesce into some other issuer's
primary: members need deliveries of their own from there), and when
members cancelled a wait whose query went on to complete for the
representative.
"""

from __future__ import annotations

from weakref import ref

from repro.core.batch_instance import BatchedInstance, SharedMetrics, set_final_counts
from repro.core.metrics import InstanceMetrics
from repro.core.plan import E_DISABLED
from repro.core.rows import Row, _Ride
from repro.nulls import ExceptionValue

__all__ = ["Cohorts"]

_UNSET = object()

#: What dissolves a cohort, the keys of :attr:`Cohorts.exits`.
EXITS = ("join", "answered", "cancelled")


class _LaunchRecord:
    """One launch decision of a cohort representative.

    What stands in for the launch each member would have made: the
    index and speculative flag that materialize a member's arrays, and —
    computed lazily, once for the whole cohort — the task value a
    delivery to a dissolved member carries.
    """

    __slots__ = ("name", "index", "task", "values", "speculative", "_value")

    def __init__(self, name, index, task, values, speculative):
        self.name = name
        self.index = index
        self.task = task
        self.values = values
        self.speculative = speculative
        self._value = _UNSET

    def value(self):
        """The task's computed value (deterministic in its stable inputs)."""
        if self._value is _UNSET:
            self._value = self.task.compute(self.values)
        return self._value

    def value_for(self, failed: bool):
        """The value a completion delivers: the computed value, or the
        failure sentinel the reference engine substitutes."""
        if failed:
            return ExceptionValue(f"query for {self.name!r} failed")
        return self.value()


class _StageRecord:
    """One resolution step of a cohort representative.

    ``name`` is the attribute whose query resolved (None for the start
    stage).  The outcome triple (``completed``/``failed``/``accepted``)
    is the one every member inherits: each would have been a follower
    of the representative's primary.  ``cancel_wasted`` mirrors the
    reference engine's cancelled-speculative check, ``drain_wasted_*``
    the state-derived wasted-work deltas booked during the
    representative's advance.  ``cancels`` are the unneeded-cancel
    decisions the members share, ``launches`` the follow-on launches
    they ride.
    """

    __slots__ = (
        "name",
        "completed",
        "failed",
        "accepted",
        "cancel_wasted",
        "drain_wasted_queries",
        "drain_wasted_units",
        "done_after",
        "cancels",
        "launches",
    )

    def __init__(self, name):
        self.name = name
        self.completed = True
        self.failed = False
        self.accepted = True
        self.cancel_wasted = False
        self.drain_wasted_queries = 0
        self.drain_wasted_units = 0
        self.done_after = False
        self.cancels: tuple[str, ...] = ()
        self.launches: list[_LaunchRecord] = []

    def launch(self, name, index, task, values, speculative) -> None:
        """A launch the representative made in this stage (the engine's
        launch path reports it: :attr:`BatchedEngine._recording`)."""
        self.launches.append(_LaunchRecord(name, index, task, values, speculative))


class _Cohort:
    """A representative instance plus the members riding it in lockstep.

    Formed at one ``(typed start valuation, start instant)`` point and
    open — on the tier's table — while the representative is still at
    its start stage, the only window in which a joining member has
    missed nothing.  A member's every launch would coalesce behind the
    representative's own primary for the same key, so members are
    tracked *virtually*: one weighted attachment per primary
    (:meth:`QueryShareCache.attach_virtual`), one shared metrics
    ``template`` (members are bit-identical until they finish), one
    shared final record once they have (``ride.final``: :meth:`Cohorts._final`),
    and per-member work only for observer events and finishing an
    instance.  ``log`` is what the representative has done, stage by
    stage: what :meth:`Cohorts._dissolve` rebuilds the members from when
    they can ride no further.

    The representative and every member that is an instance link back
    (``_cohort``), which with ``rep`` and ``members`` makes the cohort a
    reference cycle.  A dissolve unlinks them all; in lockstep an
    instance keeps its link, through any post-halt straggler, until it
    is settled (done with nothing in flight) and the engine releases it
    (:meth:`BatchedEngine.release_settled`).  A row links to the
    cohort's ``ride`` instead, which leads to the representative and to
    no member, so a released row keeps its answer and closes no cycle.
    Once the representative is released, reference counting frees the
    cohort and its records.
    """

    __slots__ = (
        "rep",
        "start_time",
        "log",
        "launch_by_name",
        "members",
        "solo",
        "ride",
        "template",
        "final_closed",
        "virtual",
        "cancelled",
        "epoch",
    )

    def __init__(self, rep, start_time: float):
        self.rep = rep
        self.start_time = start_time
        self.log: list[_StageRecord] = []
        self.launch_by_name: dict[str, _LaunchRecord] = {}
        #: members in join order, rows and instances (retained after
        #: finishing for post-halt straggler bookkeeping), and the
        #: instances among them, which finish one by one
        self.members: list = []
        self.solo: list[BatchedInstance] = []
        #: what its rows read (their link): the representative, the
        #: shared final record, and whether they have finished
        self.ride = _Ride(rep)
        #: the members' shared counters while they ride, built at the first join
        self.template: InstanceMetrics | None = None
        #: whether a straggle was booked on the shared final record (the
        #: ride's), which then closes to later finishers
        self.final_closed = False
        #: attribute name -> launch record, for virtual attachments whose
        #: members still wait on the result / have cancelled the wait
        self.virtual: dict[str, _LaunchRecord] = {}
        self.cancelled: dict[str, _LaunchRecord] = {}
        #: cache follower_epoch at the last verification that no real
        #: follower sits behind a representative primary — joins skip
        #: the per-key re-check while the epoch is unchanged
        self.epoch = -1

    def absorb(self, rec: _StageRecord) -> None:
        self.log.append(rec)
        for launch in rec.launches:
            self.launch_by_name[launch.name] = launch


def _book_straggle(
    instance, metrics: InstanceMetrics, launch: _LaunchRecord, completed: bool, failed: bool
) -> None:
    """Book a straggler's resolution of a finished member's wait."""
    if completed:
        metrics.queries_completed += 1
        if failed:
            metrics.queries_failed += 1
    else:
        metrics.queries_cancelled += 1
        if launch.speculative and instance._enablement[launch.index] == E_DISABLED:
            metrics.speculative_wasted_queries += 1


def _copy_counters(src: InstanceMetrics, dst: InstanceMetrics) -> None:
    dst.work_units = src.work_units
    dst.queries_launched = src.queries_launched
    dst.queries_completed = src.queries_completed
    dst.queries_cancelled = src.queries_cancelled
    dst.queries_failed = src.queries_failed
    dst.speculative_launched = src.speculative_launched
    dst.speculative_wasted_queries = src.speculative_wasted_queries
    dst.speculative_wasted_units = src.speculative_wasted_units
    dst.synthesis_executed = src.synthesis_executed


class Cohorts:
    """The cohort tier of one engine, and what it has done.

    The engine builds it only where cohorts can be exact: a deterministic
    trace per typed start key (``plan.start_cache_ok``: no synthesis and
    no user-coded conditions run), a query cache whose primaries members
    ride, and %Permitted 100 — a member's launches stand for followers of
    the representative's primaries, and follower handles do not count
    toward the parallelism budget
    (``simdb.database._CacheFollower.counts_for_parallelism`` is False),
    so a throttled strategy would legitimately schedule members
    differently from their representative.  The engine hands it an
    instance at its start (:meth:`start`) and a representative's
    deliveries (:meth:`leave`, :meth:`rep_done`); an ordinary instance
    never reaches it.
    """

    def __init__(self, engine):
        #: the engine, weakly: it holds this tier, and a strong link back
        #: would make every engine a reference cycle
        self._engine = ref(engine)
        self.cache = engine.query_cache
        #: start_key → the open cohort formed for that valuation at
        #: :attr:`instant`, the instant of the latest start: one is taken
        #: off when its representative moves on (:meth:`_close`), and
        #: since a cohort can only be joined at its own start instant the
        #: table is emptied whenever a start finds the clock has moved on
        #: (:meth:`at`) — it never holds more than one instant's valuations.
        self.open: dict[object, _Cohort] = {}
        self.instant: float | None = None
        #: cohorts formed, members that joined, and that were dissolved back out
        self.forms = self.hits = self.splits = 0
        #: cohorts dissolved, by what made them (kept for tests)
        self.exits = dict.fromkeys(EXITS, 0)
        #: joins that took more than one arrival of a run, and their members
        self.bulk_joins = self.bulk_join_members = 0

    def at(self, now: float) -> None:
        """A start at *now*: an earlier instant's cohorts are closed."""
        if now != self.instant:
            self.open.clear()
            self.instant = now

    def start(self, instance: BatchedInstance) -> None:
        """Start *instance* (its start key cacheable): form a cohort, ride
        the open one, or dissolve a cohort it cannot ride and start alone."""
        engine, key = self._engine(), instance._start_key
        cohort = self.open.get(key)
        if cohort is None:
            instance._cohort = cohort = _Cohort(instance, engine.sim.now)
            engine._start_own(instance)
            self.open[key] = cohort
            self.forms += 1
            if engine._obs_on:
                engine.obs.tracer.instant("cohort.form", args={"rep": instance.instance_id})
        elif self._rides(cohort):
            instance._flow = None  # a member rides; its representative records
            self._join(cohort, self._riders(instance))
        else:
            del self.open[key]
            self._dissolve(cohort, cohort.log, "join")
            engine._start_own(instance)

    def leave(self, rep: BatchedInstance) -> bool:
        """Let representative *rep* go its own way if nobody rode its
        cohort — from its first delivery on nobody can.  False while
        members ride: its deliveries are :meth:`rep_done`'s."""
        cohort = rep._cohort
        if cohort.members:
            return False
        self._close(cohort)
        rep._cohort = None
        return True

    def ride(self, row: Row) -> BatchedInstance | None:
        """Start *row*, which did not replay and has no callback: ride its
        key's open cohort where an instance with its valuation would (the
        cohort ridable), and None; otherwise the instance built for it
        (:meth:`Row.materialize`), to start as any arrival does."""
        cohort = self.open.get(row._link.key)
        if cohort is not None and self._rides(cohort):
            self._join(cohort, self._riders(row))
            return None
        return row.materialize()

    def _rides(self, cohort: _Cohort) -> bool:
        """Whether an arrival at open *cohort* can ride in lockstep now:
        virtual attachments fan ahead of a primary's real followers, so
        every wait of the representative must be a primary nobody has
        really coalesced behind."""
        cache = self.cache
        if cache.follower_epoch != cohort.epoch:
            for handle in cohort.rep.inflight.values():
                if not cache.is_primary(handle) or cache.follower_count(handle):
                    return False
            cohort.epoch = cache.follower_epoch
        return True

    def _close(self, cohort: _Cohort) -> None:
        """Take *cohort* off the table: its representative has moved on."""
        key = cohort.rep._start_key
        if self.open.get(key) is cohort:
            del self.open[key]

    def _record_start(self, cohort: _Cohort) -> None:
        """The start stage's record and the members' shared metrics,
        built when the first member joins: an open cohort's
        representative has had nothing delivered, so its in-flight
        queries are its start launches, in order."""
        rep, plan = cohort.rep, self._engine().plan
        rec = _StageRecord(None)
        rec.done_after = rep.done
        # Cohort-eligible schemas run no synthesis (start_cache_ok), so
        # the shared record starts from zero counters plus the start
        # stage's launch bookkeeping.
        cohort.template = template = InstanceMetrics(
            instance_id=f"cohort:{rep.instance_id}", start_time=cohort.start_time
        )
        for name in rep.inflight:
            i, speculative = plan.index[name], name in rep.speculative_launch
            values = rep._input_values(i)
            launch = _LaunchRecord(name, i, plan.tasks[i], values, speculative)
            rec.launches.append(launch)
            cohort.virtual[name] = launch
            template.queries_launched += 1
            if speculative:
                template.speculative_launched += 1
        cohort.absorb(rec)

    def _record_stage(
        self, cohort: _Cohort, instance, name, value, processed, completed
    ) -> _StageRecord:
        """Run the representative's advance and append its stage record."""
        engine = self._engine()
        i = engine.plan.index[name]
        handle = instance.inflight.get(name)
        rec = _StageRecord(name)
        rec.completed = completed
        rec.failed = (
            completed and handle is not None and getattr(handle, "failed", False)
        )
        # Both checks read state the advance can only move *toward*
        # DISABLED, so they are captured before it runs — exactly where
        # the reference path evaluates them.
        rec.accepted = completed and instance._enablement[i] != E_DISABLED
        rec.cancel_wasted = (
            not completed
            and name in instance.speculative_launch
            and instance._enablement[i] == E_DISABLED
        )
        pre_inflight = [n for n in instance.inflight if n != name]
        metrics = instance._metrics
        before_queries = metrics.speculative_wasted_queries
        before_units = metrics.speculative_wasted_units
        engine._recording = rec
        try:
            engine._take_result(instance, name, value, processed, completed)
        finally:
            engine._recording = None
        # The representative's wasted-work delta has a query-unit-based
        # part (members hold zero-unit followers) and a drain-derived
        # remainder (plan-cost-based, identical for every member).
        query_queries = query_units = 0
        if (completed and not rec.accepted) or rec.cancel_wasted:
            query_queries, query_units = 1, processed
        rec.drain_wasted_queries = (
            metrics.speculative_wasted_queries - before_queries - query_queries
        )
        rec.drain_wasted_units = metrics.speculative_wasted_units - before_units - query_units
        rec.done_after = instance.done
        if (
            not instance.done
            and engine.strategy.cancel_unneeded
            and instance._unneeded is not None
        ):
            unneeded, index = instance._unneeded, engine.plan.index
            rec.cancels = tuple(n for n in pre_inflight if unneeded[index[n]])
        cohort.absorb(rec)
        return rec

    def _riders(self, instance) -> list:
        """*instance* (or row), about to ride an open cohort, and the
        arrivals right behind it in the run being fired whose start would
        make the very same decision: the same typed start key — so the
        same cohort, still open and still ridable, since joining changes
        neither — with no flow trace on file for it, and no
        ``on_complete`` callback pending among them (one may schedule what
        the next start would have waited for): rows, since every arrival
        with a key is one until it starts.  The run moves past those taken.
        """
        engine = self._engine()
        riders, run, flows = [instance], engine._firing, engine._flows
        row = type(instance) is Row
        key = instance._link.key if row else instance._start_key
        pending = engine._on_complete
        if (
            run is None
            or (not row and instance.instance_id in pending)
            or (flows is not None and key in flows.traces)
        ):
            return riders
        arrivals, k = run.arrivals, run.next
        n = len(arrivals)
        while k < n:
            arrival = arrivals[k]
            if (
                type(arrival) is not Row
                or arrival._link.key != key
                or (pending and arrival.instance_id in pending)
            ):
                break
            k += 1
        riders += arrivals[run.next : k]
        run.next = k
        return riders

    def _join(self, cohort: _Cohort, members: list) -> None:
        """*members* (consecutive arrivals: :meth:`_riders`) ride *cohort*
        from its start stage, in one step: one extension of its member
        list, one weighted virtual attachment per primary the
        representative waits on.  Per-member work is left only where
        identity diverges — observer calls, member-major as one start
        event each would have made them and skipped when nobody listens,
        and finishing an instance when the representative finished at its
        start (its rows finish with the cohort: :meth:`_finish_together`).
        A member whose observer or callback schedules anything (or
        raises) is the last to join: the rest are handed back to the run,
        which decides as it does after any start whether they still go
        next.
        """
        if not cohort.log:
            self._record_start(cohort)
        engine = self._engine()
        rec, sim = cohort.log[0], engine.sim
        obs = engine._listening()
        joined = len(members)
        try:
            if obs is None and not (
                rec.done_after and (cohort.final_closed or self._pending(members))
            ):
                instances, booked = self._link(cohort, members)
                if rec.done_after:
                    self._finish_together(cohort, instances, booked)
            else:
                joined, marker = 0, sim.scheduled
                for member in members:
                    joined += 1
                    self._link(cohort, (member,))
                    if obs is not None:
                        obs.on_instance_start(member)
                    if rec.done_after:
                        self._finish_member(cohort, member)
                    elif obs is not None:
                        for launch in rec.launches:
                            obs.on_launch(member, launch.name, speculative=launch.speculative)
                    if sim.scheduled != marker:
                        break
                if rec.done_after:
                    cohort.ride.done = True
        finally:
            if joined < len(members):
                engine._firing.next -= len(members) - joined
                del members[joined:]
            cohort.members.extend(members)
            self.hits += joined
            if joined > 1:
                self.bulk_joins += 1
                self.bulk_join_members += joined
            if engine._obs_on:
                args = {"member": members[0].instance_id, "members": joined}
                engine.obs.tracer.instant("cohort.join", args=args)
            if not rec.done_after:
                cache, inflight = self.cache, cohort.rep.inflight
                for launch in rec.launches:
                    cache.attach_virtual(inflight[launch.name], joined)

    def _link(self, cohort: _Cohort, members) -> tuple[list, list]:
        """Make *members* the cohort's: a row reads its ride from now on,
        an instance links back.  Returns the instances, and the rows that
        hold a record of their own."""
        ride, instances, booked = cohort.ride, [], []
        for member in members:
            if type(member) is Row:
                member._link = ride
                if member._metrics is not None:
                    ride.reads += 1
                    booked.append(member)
            else:
                member._cohort = cohort
                instances.append(member)
        cohort.solo += instances
        return instances, booked

    def _pending(self, members) -> bool:
        """Whether an instance among *members* has a completion callback
        pending (a row never has one)."""
        pending = self._engine()._on_complete
        return bool(pending) and any(
            type(member) is not Row and member.instance_id in pending for member in members
        )

    def rep_done(self, rep: BatchedInstance, name, value, processed, completed) -> None:
        """A query of representative *rep* finished while members ride:
        record its stage and fan it out to them, or dissolve them."""
        cohort = rep._cohort
        launch = cohort.virtual.pop(name, None)
        live_virtual = launch is not None
        if not live_virtual:
            launch = cohort.cancelled.pop(name)
        handle = rep.inflight.get(name)
        failed = completed and handle is not None and getattr(handle, "failed", False)
        if rep.done:
            # Post-halt straggler: the representative books its own
            # event, then each (finished) member resolves its wait.
            self._engine()._take_result(rep, name, value, processed, completed)
            self._straggle(cohort, launch, name, completed, live_virtual, failed)
            return
        self._close(cohort)
        rec = self._record_stage(cohort, rep, name, value, processed, completed)
        cache = self.cache
        if completed and not live_virtual:
            trigger = "cancelled"  # a wait the members had cancelled: they part here
        elif not all(cache.is_primary(rep.inflight.get(made.name)) for made in rec.launches):
            trigger = "answered"  # a launch the cache answered: no primary to ride
        else:
            return self._fan(cohort, rep, rec, live_virtual)
        # Dissolved as of the stage before, each member takes this
        # delivery as its own follower's.
        cost, cancelled = launch.task.cost, not live_virtual
        own_wait = self._engine()._own_wait
        for member in self._dissolve(cohort, cohort.log[:-1], trigger):
            wait = own_wait(member, name, value)
            member.inflight[name] = follower = cache.follower(None, cost, wait, cancelled)
            follower.failed = failed
            cache.deliver(follower)

    def _fan(self, cohort: _Cohort, rep, rec: _StageRecord, live_virtual: bool) -> None:
        template = cohort.template
        if live_virtual:
            # Members inherit the primary's outcome with zero units.
            template.queries_completed += 1
            if rec.failed:
                template.queries_failed += 1
            if not rec.accepted:
                template.speculative_wasted_queries += 1
        else:
            template.queries_cancelled += 1
            if rec.cancel_wasted:
                template.speculative_wasted_queries += 1
        template.speculative_wasted_queries += rec.drain_wasted_queries
        template.speculative_wasted_units += rec.drain_wasted_units
        cache = self.cache
        count = len(cohort.members)
        for cancel_name in rec.cancels:
            moved = cohort.virtual.pop(cancel_name, None)
            if moved is None:
                continue  # members already cancelled this wait earlier
            cohort.cancelled[cancel_name] = moved
            cache.release_virtual(rep.inflight[cancel_name], count)
        name = rec.name
        member_completed = live_virtual
        engine = self._engine()
        obs = engine._listening()
        if rec.done_after:
            if obs is None and not self._pending(cohort.solo):
                booked = [m for m in cohort.members if type(m) is Row] if cohort.ride.reads else ()
                self._finish_together(cohort, cohort.solo, booked)
            else:
                for member in cohort.members:
                    if obs is not None:
                        obs.on_query_done(member, name, units=0, completed=member_completed)
                    self._finish_member(cohort, member)
                cohort.ride.done = True
            if engine.halt_policy == "cancel":
                for vname in list(cohort.virtual):
                    cohort.cancelled[vname] = cohort.virtual.pop(vname)
                    cache.release_virtual(rep.inflight[vname], count)
            return
        launches = rec.launches
        template.queries_launched += len(launches)
        for new_launch in launches:
            if new_launch.speculative:
                template.speculative_launched += 1
            cache.attach_virtual(rep.inflight[new_launch.name], count)
            cohort.virtual[new_launch.name] = new_launch
        if obs is not None:
            for member in cohort.members:
                obs.on_query_done(member, name, units=0, completed=member_completed)
                for new_launch in launches:
                    obs.on_launch(member, new_launch.name, speculative=new_launch.speculative)

    def _straggle(
        self,
        cohort: _Cohort,
        launch: _LaunchRecord,
        name: str,
        completed: bool,
        live_virtual: bool,
        failed: bool,
    ) -> None:
        """A post-halt straggler of the representative resolves every
        (finished) member's wait on it: booked on each record of a
        member's own, and once on the shared final record for every
        member still holding it — which then closes to later finishers,
        who never waited on the straggler (none finishes later, in fact:
        a cohort that finished past its start finished whole).  Without
        a listener, and with no row holding a record of its own, only
        the instances among the members are visited."""
        member_completed = live_virtual and completed
        obs = self._engine()._listening()
        rep, final = cohort.rep, cohort.ride.final
        members = cohort.members
        shared = False
        if obs is None and not cohort.ride.reads:
            shared = len(members) > len(cohort.solo)  # a row holds the final record
            members = cohort.solo
        for member in members:
            if obs is not None:
                obs.on_query_done(member, name, units=0, completed=member_completed)
            metrics = member._metrics
            if metrics is None or metrics is final:  # a row without a record shares it
                shared = True
            else:
                _book_straggle(rep, metrics, launch, member_completed, failed)
        if shared and final is not None:
            _book_straggle(rep, final, launch, member_completed, failed)
            cohort.final_closed = True

    def _dissolve(self, cohort: _Cohort, recs, trigger: str) -> list:
        """The one way out of lockstep: every member of *cohort* becomes
        the ordinary instance it would be after the stages *recs*.

        Its arrays are the ones :meth:`BatchedInstance.materialize`
        rebuilds, its counters the template's, and behind each primary the
        cohort was virtually attached to it gets a real follower — already
        cancelled where the members had cancelled the wait — ahead of any
        that coalesced later.  Returns the members, in join order.
        """
        members, cohort.members, cohort.solo = cohort.members, [], []
        cohort.rep._cohort = None
        if not members:
            return members
        engine = self._engine()
        self.splits += len(members)
        self.exits[trigger] += 1
        if engine._obs_on:
            args = {"rep": cohort.rep.instance_id, "members": len(members), "trigger": trigger}
            engine.obs.tracer.instant("cohort.split", args=args)
        made = [(launch.name, launch.speculative) for rec in recs for launch in rec.launches]
        launched = cohort.launch_by_name
        delivered = [
            (rec.name, launched[rec.name].value_for(rec.failed))
            for rec in recs[1:] if rec.completed
        ]  # fmt: skip
        for k, member in enumerate(members):
            if type(member) is Row:
                member = members[k] = member.materialize()
            member._cohort = None
            member.materialize(made, delivered)
            _copy_counters(cohort.template, member._metrics)
        cache, inflight = self.cache, cohort.rep.inflight
        for waits, cancelled in ((cohort.virtual, False), (cohort.cancelled, True)):
            for name, launch in waits.items():
                cost, value = launch.task.cost, launch.value()
                specs = [
                    (cost, engine._own_wait(member, name, value), cancelled) for member in members
                ]
                followers = cache.materialize_virtual(inflight[name], specs)
                for member, follower in zip(members, followers):
                    member.inflight[name] = follower
        return members

    def _final(self, cohort: _Cohort) -> SharedMetrics:
        """The final record the members that booked nothing of their own
        share, built by the first to finish."""
        final = cohort.ride.final
        if final is None:
            final = SharedMetrics(cohort.template.instance_id, cohort.start_time)
            self._fill(cohort, final)
            cohort.ride.final = final
        return final

    def _fill(self, cohort: _Cohort, metrics: InstanceMetrics) -> None:
        """Finish *metrics*: the cohort's counters, the finish time, and
        the attribute counters of the representative's end state, which
        every member's is."""
        _copy_counters(cohort.template, metrics)
        metrics.finish_time = self._engine().sim.now
        set_final_counts(metrics, cohort.rep.final_counts())

    def _finish_together(self, cohort: _Cohort, instances, booked) -> None:
        """Finish the cohort's rows in one step — they read ``done`` and
        the final record off its ride — then fill the *booked* rows' own
        records and finish the *instances* one by one.  Taken where
        nobody listens and no member has a callback pending: nothing
        tells the members' finishes apart."""
        ride = cohort.ride
        self._final(cohort)
        ride.done = True
        for row in booked:
            metrics = row._metrics
            if type(metrics) is InstanceMetrics and metrics.finish_time is None:
                self._fill(cohort, metrics)
        for member in instances:
            self._finish_member(cohort, member)

    def _finish_member(self, cohort: _Cohort, member) -> None:
        """Finish one lockstep member from the shared cohort state.

        All members of a cohort end bit-identical (same start valuation,
        same inherited outcomes).  An instance aliases the
        representative's end state — which carries the attribute counters
        :meth:`BatchedInstance.finalize_metrics` derives — and its value
        lists: done instances never write their arrays again; a row reads
        them through its ride.  A member that booked nothing of its own
        (no record read before it finished) holds the cohort's shared
        final record (:meth:`_final`); one with a record fills its own.
        """
        engine, rep = self._engine(), cohort.rep
        row = type(member) is Row
        if not row:
            member.done = True
            member._alias(rep.end_state())
            member._raw = rep._raw
            member._sv = rep._sv
        metrics = member._metrics
        if metrics is None and not cohort.final_closed:
            member._metrics = self._final(cohort)
        else:
            if metrics is None:  # a straggle closed the shared record: one of its own
                metrics = member._metrics = InstanceMetrics(member.instance_id, member.start_time)
                if row:
                    cohort.ride.reads += 1
            self._fill(cohort, metrics)
        if engine.observer is not None:
            engine.observer.on_instance_complete(member)
        if row:
            return  # no callback, nothing to settle
        callback = engine._on_complete.pop(member.instance_id, None)
        if callback is not None:
            callback(member.metrics)
        engine._settle(member)
