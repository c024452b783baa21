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
exact), hold no arrays until they finish, and share one metrics template
that each copies on finishing.  Per-member work remains only where
identity genuinely diverges: observer events (skipped when nobody
listens) and finishing.  An arrival that cannot ride starts as the
ordinary instance it is — its launches coalesce or hit like anyone's —
and the cohort leaves the table.

There is one way out of lockstep, :meth:`Cohorts._dissolve`: every
member becomes the ordinary instance it would be at that point, with a
real follower of its own behind each primary, so database totals, cache
counters, event sequences and cancel-pinning are unchanged by
construction.  It is taken when an arrival cannot ride a cohort that has
members (a real follower has coalesced since the last join, and would
sit between them and the arrival), when the cache answers one of the
representative's later launches (a memo hit, or a coalesce into some
other issuer's primary: members need deliveries of their own from
there), and when members cancelled a wait whose query went on to
complete for the representative.
"""

from __future__ import annotations

from repro.core.batch_instance import BatchedInstance
from repro.core.metrics import InstanceMetrics
from repro.core.plan import E_DISABLED
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
    ``template`` (members are bit-identical until they finish), and
    per-member work only for observer events and finishing.  ``log`` is
    what the representative has done, stage by stage: what
    :meth:`Cohorts._dissolve` rebuilds the members from when they can
    ride no further.

    The representative and every member link back (``_cohort``), which
    with ``rep`` and ``members`` makes the cohort a reference cycle.  A
    dissolve unlinks them all; in lockstep an instance keeps its link,
    through any post-halt straggler, until it is settled (done with
    nothing in flight) and the engine releases it
    (:meth:`BatchedEngine.release_settled`).  Once the last is
    released, reference counting frees the cohort and its records.
    """

    __slots__ = (
        "rep",
        "start_time",
        "log",
        "launch_by_name",
        "members",
        "template",
        "virtual",
        "cancelled",
        "epoch",
    )

    def __init__(self, rep, start_time: float):
        self.rep = rep
        self.start_time = start_time
        self.log: list[_StageRecord] = []
        self.launch_by_name: dict[str, _LaunchRecord] = {}
        #: members in join order (retained after finishing for post-halt
        #: straggler bookkeeping)
        self.members: list = []
        #: the members' shared metrics record, built at the first join
        self.template: InstanceMetrics | None = None
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
        self.engine = engine
        self.cache = engine.query_cache
        #: start_key → the open cohort formed for that valuation at
        #: :attr:`instant`, the instant of the latest start: one is taken
        #: off when its representative moves on (:meth:`_close`), and
        #: since a cohort can only be joined at its own start instant the
        #: table is emptied whenever a start finds the clock has moved on
        #: (:meth:`at`) — it never holds more than one instant's valuations.
        self.open: dict[object, _Cohort] = {}
        self.instant: float | None = None
        #: members that joined, and that were dissolved back out
        self.hits = self.splits = 0
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
        engine, key = self.engine, instance._start_key
        cohort = self.open.get(key)
        if cohort is None:
            instance._cohort = cohort = _Cohort(instance, engine.sim.now)
            engine._start_own(instance)
            self.open[key] = cohort
            if engine._obs_on:
                engine._obs_cohort_forms.inc()
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
        rep, plan = cohort.rep, self.engine.plan
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
        engine = self.engine
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
        before_queries = instance.metrics.speculative_wasted_queries
        before_units = instance.metrics.speculative_wasted_units
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
            instance.metrics.speculative_wasted_queries - before_queries - query_queries
        )
        rec.drain_wasted_units = (
            instance.metrics.speculative_wasted_units - before_units - query_units
        )
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

    def _riders(self, instance: BatchedInstance) -> list[BatchedInstance]:
        """*instance*, about to ride an open cohort, and the arrivals right
        behind it in the run being fired whose start would make the very
        same decision: the same typed start key — so the same cohort,
        still open and still ridable, since joining changes neither — with
        no flow trace on file for it, and no ``on_complete`` callback
        pending among them (one may schedule what the next start would
        have waited for).  The run moves past those taken.
        """
        engine = self.engine
        riders, run, flows = [instance], engine._firing, engine._flows
        key, pending = instance._start_key, engine._on_complete
        if (
            run is None
            or instance.instance_id in pending
            or (flows is not None and key in flows.traces)
        ):
            return riders
        arrivals, k = run.arrivals, run.next
        n = len(arrivals)
        while k < n and arrivals[k]._start_key == key and arrivals[k].instance_id not in pending:
            k += 1
        riders += arrivals[run.next : k]
        run.next = k
        return riders

    def _join(self, cohort: _Cohort, members: list[BatchedInstance]) -> None:
        """*members* (consecutive arrivals: :meth:`_riders`) ride *cohort*
        from its start stage, in one step: one extension of its member
        list, one weighted virtual attachment per primary the
        representative waits on.  Per-member work is left only where
        identity diverges — observer calls, member-major as one start
        event each would have made them and skipped when nobody listens,
        and finishing when the representative finished at its start.  A
        member whose observer schedules anything (or raises) is the last
        to join: the rest are handed back to the run, which decides as it
        does after any start whether they still go next.
        """
        if not cohort.log:
            self._record_start(cohort)
        engine = self.engine
        rec, sim = cohort.log[0], engine.sim
        obs = engine._listening()
        joined = len(members)
        try:
            if obs is not None or rec.done_after:
                joined, marker = 0, sim.scheduled
                for member in members:
                    joined += 1
                    if obs is not None:
                        obs.on_instance_start(member)
                    if rec.done_after:
                        self._finish_member(cohort, member)
                    elif obs is not None:
                        for launch in rec.launches:
                            obs.on_launch(member, launch.name, speculative=launch.speculative)
                    if sim.scheduled != marker:
                        break
        finally:
            if joined < len(members):
                engine._firing.next -= len(members) - joined
                del members[joined:]
            for member in members:
                member._cohort = cohort
            cohort.members.extend(members)
            self.hits += joined
            if joined > 1:
                self.bulk_joins += 1
                self.bulk_join_members += joined
            if engine._obs_on:
                engine._obs_cohort_joins.inc(joined)
                args = {"member": members[0].instance_id, "members": joined}
                engine.obs.tracer.instant("cohort.join", args=args)
            if not rec.done_after:
                cache, inflight = self.cache, cohort.rep.inflight
                for launch in rec.launches:
                    cache.attach_virtual(inflight[launch.name], joined)

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
            self.engine._take_result(rep, name, value, processed, completed)
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
        for member in self._dissolve(cohort, cohort.log[:-1], trigger):
            wait = self.engine._own_wait(member, name, value)
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
        obs = self.engine._listening()
        if rec.done_after:
            for member in cohort.members:
                if obs is not None:
                    obs.on_query_done(member, name, units=0, completed=member_completed)
                self._finish_member(cohort, member)
            if self.engine.halt_policy == "cancel":
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
        member_completed = live_virtual and completed
        obs = self.engine._listening()
        for member in cohort.members:
            if obs is not None:
                obs.on_query_done(member, name, units=0, completed=member_completed)
            metrics = member.metrics
            if member_completed:
                metrics.queries_completed += 1
                if failed:
                    metrics.queries_failed += 1
            else:
                metrics.queries_cancelled += 1
                if (
                    launch.speculative
                    and member._enablement[launch.index] == E_DISABLED
                ):
                    metrics.speculative_wasted_queries += 1

    def _dissolve(self, cohort: _Cohort, recs, trigger: str) -> list:
        """The one way out of lockstep: every member of *cohort* becomes
        the ordinary instance it would be after the stages *recs*.

        Its arrays are the ones :meth:`BatchedInstance.materialize`
        rebuilds, its counters the template's, and behind each primary the
        cohort was virtually attached to it gets a real follower — already
        cancelled where the members had cancelled the wait — ahead of any
        that coalesced later.  Returns the members, in join order.
        """
        members, cohort.members = cohort.members, []
        cohort.rep._cohort = None
        if not members:
            return members
        engine = self.engine
        self.splits += len(members)
        self.exits[trigger] += 1
        if engine._obs_on:
            engine._obs_cohort_splits.inc(len(members))
            args = {"rep": cohort.rep.instance_id, "members": len(members), "trigger": trigger}
            engine.obs.tracer.instant("cohort.split", args=args)
        made = [(launch.name, launch.speculative) for rec in recs for launch in rec.launches]
        launched = cohort.launch_by_name
        delivered = [
            (rec.name, launched[rec.name].value_for(rec.failed))
            for rec in recs[1:] if rec.completed
        ]  # fmt: skip
        for member in members:
            member._cohort = None
            member.materialize(made, delivered)
            _copy_counters(cohort.template, member.metrics)
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

    def _finish_member(self, cohort: _Cohort, member: BatchedInstance) -> None:
        """Materialize a lockstep member from the shared cohort state.

        All members of a cohort end bit-identical (same start valuation,
        same inherited outcomes), so they alias the representative's end
        state — which carries the attribute counters
        :meth:`BatchedInstance.finalize_metrics` derives — and its value
        lists: done instances never write their arrays again.
        """
        engine, rep = self.engine, cohort.rep
        member.done = True
        _copy_counters(cohort.template, member.metrics)
        member.metrics.finish_time = engine.sim.now
        member._alias(rep.end_state())
        member._raw = rep._raw
        member._sv = rep._sv
        member.finalize_metrics()
        if engine.observer is not None:
            engine.observer.on_instance_complete(member)
        callback = engine._on_complete.pop(member.instance_id, None)
        if callback is not None:
            callback(member.metrics)
        engine._settle(member)
