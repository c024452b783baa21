"""Database servers: ideal and bounded-resource."""

import pytest

from repro.simdb.database import (
    DbParams,
    IdealDatabase,
    ProfiledDatabase,
    SimulatedDatabase,
)
from repro.simdb.des import Simulation
from repro.oracle.per_unit import PerUnitIdealDatabase, PerUnitProfiledDatabase
from repro.simdb.profiler import DbFunction


class TestIdealDatabase:
    def test_query_duration_equals_cost(self):
        sim = Simulation()
        db = IdealDatabase(sim)
        done = []
        db.submit(3, lambda processed, completed: done.append((sim.now, processed, completed)))
        sim.run()
        assert done == [(3.0, 3, True)]

    def test_unbounded_parallelism(self):
        sim = Simulation()
        db = IdealDatabase(sim)
        done = []
        for _ in range(50):
            db.submit(2, lambda processed, completed: done.append(sim.now))
        sim.run()
        assert all(when == 2.0 for when in done)

    def test_unit_duration_scaling(self):
        sim = Simulation()
        db = IdealDatabase(sim, unit_duration=0.5)
        done = []
        db.submit(4, lambda p, c: done.append(sim.now))
        sim.run()
        assert done == [2.0]

    def test_cancellation_at_unit_boundary(self):
        sim = Simulation()
        db = IdealDatabase(sim)
        done = []
        handle = db.submit(5, lambda processed, completed: done.append((processed, completed)))
        sim.run(until=1.5)  # one unit processed, second in flight
        handle.cancel()
        sim.run()
        assert done == [(2, False)]  # the in-flight unit still completes
        assert db.queries_cancelled == 1
        assert db.total_units == 2

    def test_cancel_after_completion_is_noop(self):
        sim = Simulation()
        db = IdealDatabase(sim)
        done = []
        handle = db.submit(1, lambda p, c: done.append(c))
        sim.run()
        handle.cancel()
        sim.run()
        assert done == [True]
        assert db.queries_cancelled == 0

    def test_gmpl_tracking(self):
        sim = Simulation()
        db = IdealDatabase(sim)
        db.submit(2, lambda p, c: None)
        db.submit(2, lambda p, c: None)
        assert db.gmpl == 2
        sim.run()
        assert db.gmpl == 0
        assert db.mean_gmpl() == pytest.approx(2.0)  # 2 active over [0, 2]

    def test_validation(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            IdealDatabase(sim, unit_duration=0)
        with pytest.raises(ValueError):
            IdealDatabase(sim).submit(0, lambda p, c: None)


class TestSimulatedDatabase:
    def test_all_hits_is_pure_cpu(self):
        params = DbParams(pct_io_hit=100.0, cpu_ms=8.0)
        sim = Simulation()
        db = SimulatedDatabase(sim, params)
        done = []
        db.submit(2, lambda p, c: done.append(sim.now))
        sim.run()
        assert done == [16.0]  # 2 units × 8 ms CPU, no disk

    def test_all_misses_pay_io_delay(self):
        params = DbParams(pct_io_hit=0.0, cpu_ms=8.0, io_delay_ms=5.0)
        sim = Simulation()
        db = SimulatedDatabase(sim, params)
        done = []
        db.submit(1, lambda p, c: done.append(sim.now))
        sim.run()
        assert done == [13.0]  # 5 ms disk + 8 ms CPU

    def test_multi_page_units(self):
        params = DbParams(pct_io_hit=0.0, unit_io_cost=3, cpu_ms=8.0, io_delay_ms=5.0)
        sim = Simulation()
        db = SimulatedDatabase(sim, params)
        done = []
        db.submit(1, lambda p, c: done.append(sim.now))
        sim.run()
        assert done == [23.0]  # 3 pages × 5 ms + 8 ms CPU

    def test_cpu_contention_serializes(self):
        params = DbParams(num_cpus=1, pct_io_hit=100.0, cpu_ms=10.0)
        sim = Simulation()
        db = SimulatedDatabase(sim, params)
        done = []
        for _ in range(3):
            db.submit(1, lambda p, c: done.append(sim.now))
        sim.run()
        assert done == [10.0, 20.0, 30.0]

    def test_determinism_per_seed(self):
        def run(seed):
            sim = Simulation()
            db = SimulatedDatabase(sim, DbParams(), seed=seed)
            finish = []
            for _ in range(20):
                db.submit(2, lambda p, c: finish.append(sim.now))
            sim.run()
            # Completion times can coincide across seeds when the CPU queue
            # hides disk jitter, so also observe the buffer-miss count.
            return finish, db.disks.completions

        assert run(1) == run(1)
        miss_counts = {run(seed)[1] for seed in range(1, 6)}
        assert len(miss_counts) > 1  # different seeds draw different hits

    def test_work_accounting(self):
        sim = Simulation()
        db = SimulatedDatabase(sim, DbParams())
        db.submit(3, lambda p, c: None)
        db.submit(2, lambda p, c: None)
        sim.run()
        assert db.total_units == 5
        assert db.queries_completed == 2


class TestProfiledDatabase:
    RISING = DbFunction(((1.0, 10.0), (2.0, 20.0), (4.0, 40.0)))

    def test_single_query_runs_at_zero_load_unit_time(self):
        sim = Simulation()
        db = ProfiledDatabase(sim, self.RISING)
        done = []
        db.submit(3, lambda p, c: done.append((p, c)))
        sim.run()
        assert done == [(3, True)]
        assert sim.now == 30.0  # 3 units × Db(1) = 10 ms each
        assert db.total_units == 3

    def test_contention_slows_units(self):
        sim = Simulation()
        db = ProfiledDatabase(sim, self.RISING)
        db.submit(1, lambda p, c: None)
        db.submit(1, lambda p, c: None)
        sim.run()
        # First submit sees Gmpl 1 (10 ms); second sees Gmpl 2 (20 ms).
        assert sim.now == 20.0
        assert db.mean_gmpl() > 1.0

    def test_cancellation_at_unit_boundary(self):
        sim = Simulation()
        db = ProfiledDatabase(sim, self.RISING)
        outcome = []
        handle = db.submit(5, lambda p, c: outcome.append((p, c)))
        sim.schedule(12.0, handle.cancel)
        sim.run()
        assert outcome == [(2, False)]  # cancelled after the 2nd unit
        assert db.queries_cancelled == 1

    def test_rejects_non_callable_function(self):
        with pytest.raises(TypeError):
            ProfiledDatabase(Simulation(), db_function=3.5)

    def test_rejects_non_positive_unit_time(self):
        sim = Simulation()
        db = ProfiledDatabase(sim, lambda gmpl: 0.0)
        with pytest.raises(ValueError, match="non-positive"):
            db.submit(1, lambda p, c: None)


class TestMeanGmplWindow:
    """Windowed mean Gmpl must divide the *windowed* integral (bugfix)."""

    @staticmethod
    def _piecewise_db():
        # q1 active over [0, 4); q2 over [1, 3) → Gmpl trace:
        # [0,1): 1   [1,3): 2   [3,4): 1   [4,6]: 0
        sim = Simulation()
        db = IdealDatabase(sim)
        db.submit(4, lambda p, c: None)
        sim.run(until=1.0)
        db.submit(2, lambda p, c: None)
        sim.run(until=6.0)
        return sim, db

    def test_full_history_mean(self):
        _, db = self._piecewise_db()
        assert db.mean_gmpl() == pytest.approx(6.0 / 6.0)

    def test_window_starting_at_change_point(self):
        _, db = self._piecewise_db()
        # Integral over [2, 6] = 2·1 + 1·1 = 3; mean = 3/4, not 6/4.
        assert db.mean_gmpl(since=2.0) == pytest.approx(0.75)

    def test_window_starting_between_change_points(self):
        _, db = self._piecewise_db()
        # Integral over [3.5, 6] = 1·0.5 = 0.5; mean = 0.5/2.5.
        assert db.mean_gmpl(since=3.5) == pytest.approx(0.2)

    def test_window_in_idle_tail_is_zero(self):
        _, db = self._piecewise_db()
        assert db.mean_gmpl(since=4.5) == 0.0

    def test_window_with_active_tail(self):
        sim = Simulation()
        db = IdealDatabase(sim)
        db.submit(10, lambda p, c: None)
        sim.run(until=6.0)
        # Still active: integral over [2, 6] = 4·1.
        assert db.mean_gmpl(since=2.0) == pytest.approx(1.0)

    def test_window_before_server_start(self):
        sim = Simulation()
        sim.run(until=5.0)
        db = IdealDatabase(sim)
        db.submit(2, lambda p, c: None)
        sim.run()
        # Nothing existed before t=5; the pre-history contributes zero.
        assert db.mean_gmpl(since=1.0) == pytest.approx(2.0 / 6.0)

    def test_future_window_is_zero(self):
        _, db = self._piecewise_db()
        assert db.mean_gmpl(since=99.0) == 0.0

    def test_trim_bounds_the_trace(self):
        _, db = self._piecewise_db()
        before = db.mean_gmpl(since=3.5)
        dropped = db.trim_gmpl_history(keep_since=3.0)
        assert dropped > 0
        # Windows at or after the trim point stay exact ...
        assert db.mean_gmpl(since=3.5) == pytest.approx(before)
        assert db.mean_gmpl() != 0.0
        # ... and trimming again from the same point is a no-op.
        assert db.trim_gmpl_history(keep_since=3.0) == 0

    def test_window_reaching_past_a_trim_is_clamped_with_its_divisor(self):
        # Trim mid-run, run on, then ask for a window starting between the
        # server's start and the cut: the mean is over [cut, now] —
        # integral *and* window length — exactly what an untrimmed twin
        # reports for a window starting at the cut.  The whole clock reads
        # the running integral, which no trim touches.
        def drive(trim: bool):
            sim = Simulation()
            db = IdealDatabase(sim)
            db.submit(4, lambda p, c: None)
            sim.run(until=1.0)
            db.submit(2, lambda p, c: None)
            sim.run(until=3.5)
            if trim:
                assert db.trim_gmpl_history(keep_since=3.2) == 2
            db.submit(3, lambda p, c: None)
            sim.run(until=8.0)
            return db

        trimmed, twin = drive(trim=True), drive(trim=False)
        # The cut lands on the last change point at or before 3.2, t=3:
        # [3,3.5): 1   [3.5,4): 2   [4,6.5): 1   [6.5,8]: 0  -> 4 over 5.
        assert trimmed.mean_gmpl(since=1.0) == pytest.approx(4.0 / 5.0)
        for since in (1.0, 2.9, 3.0):
            assert trimmed.mean_gmpl(since=since) == twin.mean_gmpl(since=3.0)
        for since in (3.0, 3.7, 5.0, 7.0):
            assert trimmed.mean_gmpl(since=since) == twin.mean_gmpl(since=since)
        # The whole clock is exact: 9 over 8, as if nothing was trimmed.
        assert trimmed.mean_gmpl() == twin.mean_gmpl() == 9.0 / 8.0


class TestCoalescedKernel:
    RISING = DbFunction(((1.0, 10.0), (2.0, 20.0), (4.0, 40.0)))

    def test_kernel_argument_validated(self):
        """The product servers have one kernel: ``kernel=`` is no argument."""
        with pytest.raises(TypeError, match="kernel"):
            IdealDatabase(Simulation(), kernel="per-unit")
        with pytest.raises(TypeError, match="kernel"):
            ProfiledDatabase(Simulation(), self.RISING, kernel="per-unit")

    def test_coalesced_is_the_default(self):
        """The per-unit kernels are their own (oracle) classes, and no
        product server branches on a kernel."""
        for server in (IdealDatabase(Simulation()), ProfiledDatabase(Simulation(), self.RISING)):
            assert not hasattr(server, "kernel")
        assert not isinstance(PerUnitIdealDatabase(Simulation()), IdealDatabase)
        assert not isinstance(PerUnitProfiledDatabase(Simulation(), self.RISING), ProfiledDatabase)

    def test_one_event_per_query(self):
        sim = Simulation()
        db = IdealDatabase(sim)
        for _ in range(5):
            db.submit(40, lambda p, c: None)
        sim.run()
        assert db.total_units == 200
        assert sim.events_executed == 5  # vs 200 under the per-unit kernel

    def test_per_unit_kernel_still_available(self):
        sim = Simulation()
        db = PerUnitIdealDatabase(sim)
        db.submit(40, lambda p, c: None)
        sim.run()
        assert sim.events_executed == 40

    def test_cancel_mid_unit_counts_inflight_unit(self):
        sim = Simulation()
        db = IdealDatabase(sim)
        done = []
        handle = db.submit(9, lambda p, c: done.append((sim.now, p, c)))
        sim.run(until=3.4)
        handle.cancel()
        sim.run()
        assert done == [(4.0, 4, False)]
        assert db.total_units == 4

    def test_cancel_on_last_unit_completes(self):
        sim = Simulation()
        db = IdealDatabase(sim)
        done = []
        handle = db.submit(3, lambda p, c: done.append((sim.now, p, c)))
        sim.run(until=2.5)
        handle.cancel()
        sim.run()
        assert done == [(3.0, 3, True)]
        assert db.queries_cancelled == 0

    def test_profiled_gmpl_change_reprices_future_units_only(self):
        sim = Simulation()
        db = ProfiledDatabase(sim, self.RISING)
        finish = []
        db.submit(2, lambda p, c: finish.append(sim.now))
        sim.run(until=5.0)
        db.submit(1, lambda p, c: finish.append(sim.now))
        sim.run()
        # First query: unit 1 at Db(1)=10ms ends at 10 (already started when
        # the second arrives), unit 2 starts at 10 under Gmpl 2 → 20ms.
        # Second query: one unit at Db(2)=20ms from t=5.
        assert finish == [25.0, 30.0]

    def test_fractional_unit_duration_is_bit_identical(self):
        # 0.1 is not exactly representable: the completion instant must
        # come from the same float accumulation the per-unit kernel does.
        finishes = {}
        for kernel, server in (("coalesced", IdealDatabase), ("per-unit", PerUnitIdealDatabase)):
            sim = Simulation()
            db = server(sim, unit_duration=0.1)
            db.submit(11, lambda p, c: None)
            sim.run()
            finishes[kernel] = sim.now
        assert finishes["coalesced"] == finishes["per-unit"]

    def test_work_conservation_under_cancellation_storm(self):
        for server in (IdealDatabase, PerUnitIdealDatabase):
            sim = Simulation()
            db = server(sim)
            handles = [db.submit(7, lambda p, c: None) for _ in range(10)]
            sim.run(until=3.5)
            for handle in handles[::2]:
                handle.cancel()
            sim.run()
            assert db.total_units == 5 * 7 + 5 * 4
            assert db.queries_cancelled == 5


class TestDbParams:
    def test_expected_unit_service(self):
        params = DbParams(pct_io_hit=50.0, cpu_ms=8.0, io_delay_ms=5.0)
        assert params.expected_unit_service_ms() == pytest.approx(10.5)

    def test_cpu_bound_throughput(self):
        params = DbParams()  # 4 CPUs × 8 ms vs 10 disks × 2.5 ms demand
        assert params.max_unit_throughput_per_ms() == pytest.approx(0.5)

    def test_disk_bound_throughput(self):
        params = DbParams(num_disks=1, pct_io_hit=0.0, io_delay_ms=20.0)
        # Disk demand 20 ms/unit on one disk = 0.05 units/ms < CPU's 0.5.
        assert params.max_unit_throughput_per_ms() == pytest.approx(0.05)

    def test_no_io_never_disk_bound(self):
        params = DbParams(pct_io_hit=100.0)
        assert params.max_unit_throughput_per_ms() == pytest.approx(0.5)
