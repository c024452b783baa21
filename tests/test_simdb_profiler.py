"""The empirical Db function and its profiler."""

import pytest

from repro.simdb.database import DbParams
from repro.simdb.profiler import DbFunction, profile_database


class TestDbFunction:
    def test_interpolation(self):
        db = DbFunction(((1.0, 10.0), (3.0, 20.0)))
        assert db(1.0) == 10.0
        assert db(2.0) == 15.0
        assert db(3.0) == 20.0

    def test_below_range_clamps(self):
        db = DbFunction(((2.0, 10.0), (4.0, 20.0)))
        assert db(0.0) == 10.0
        assert db.zero_load_unit_time == 10.0

    def test_extrapolation_uses_tail_slope(self):
        db = DbFunction(((1.0, 10.0), (3.0, 20.0)))
        assert db.tail_slope == pytest.approx(5.0)
        assert db(5.0) == pytest.approx(30.0)

    def test_single_point(self):
        db = DbFunction(((1.0, 12.0),))
        assert db(0.5) == 12.0
        assert db(100.0) == 12.0
        assert db.tail_slope == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DbFunction(())
        with pytest.raises(ValueError):
            DbFunction(((2.0, 1.0), (1.0, 2.0)))  # not increasing
        with pytest.raises(ValueError):
            DbFunction(((1.0, 1.0), (1.0, 2.0)))  # duplicate gmpl

    def test_segment_lookup_matches_a_linear_scan_bit_for_bit(self):
        # The segment is found by bisection; the value must be exactly
        # what scanning the segments in order computes, knots included.
        points = ((1.0, 10.3), (2.0, 14.1), (4.0, 21.7), (8.0, 33.9), (16.0, 61.3))
        db = DbFunction(points)

        def scan(gmpl):
            if gmpl <= points[0][0]:
                return points[0][1]
            for (g0, t0), (g1, t1) in zip(points, points[1:]):
                if gmpl <= g1:
                    return t0 + (gmpl - g0) / (g1 - g0) * (t1 - t0)
            (g0, t0), (g1, t1) = points[-2:]
            return t1 + (t1 - t0) / (g1 - g0) * (gmpl - g1)

        for step in range(0, 400):
            gmpl = step / 16.0
            assert db(gmpl) == scan(gmpl), gmpl
        assert db == DbFunction(points) and hash(db) == hash(DbFunction(points))

    def test_max_gmpl(self):
        db = DbFunction(((1.0, 10.0), (8.0, 30.0)))
        assert db.max_gmpl == 8.0


class TestClosedLoopProfiling:
    def test_profile_shape(self):
        db = profile_database(
            DbParams(), gmpl_levels=(1, 4, 12, 24), completions_per_level=400, warmup=50
        )
        values = [db(g) for g, _ in db.points]
        # Monotone and spanning plateau → saturation.
        assert all(b >= a - 0.5 for a, b in zip(values, values[1:]))
        assert 9.0 < values[0] < 13.0
        assert values[-1] > 2 * values[0]

    def test_level_validation(self):
        with pytest.raises(ValueError, match="Gmpl level"):
            profile_database(gmpl_levels=(0,))

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            profile_database(mode="sideways")


class TestOpenLoopProfiling:
    def test_open_profile_shape(self):
        db = profile_database(
            DbParams(),
            completions_per_level=400,
            warmup=50,
            mode="open",
            utilizations=(0.2, 0.5, 0.8),
        )
        gmpls = [g for g, _ in db.points]
        assert gmpls == sorted(gmpls)
        # Higher load → higher unit time.
        times = [t for _, t in db.points]
        assert times[-1] > times[0]

    def test_open_at_least_matches_closed_under_load(self):
        closed = profile_database(
            DbParams(), gmpl_levels=(1, 2, 4, 8, 16), completions_per_level=400, warmup=50
        )
        open_db = profile_database(
            DbParams(),
            completions_per_level=400,
            warmup=50,
            mode="open",
            utilizations=(0.5, 0.8),
        )
        # Open-loop captures queueing variance: at its measured operating
        # points it should not be materially *faster* than closed-loop.
        for gmpl, unit_time in open_db.points:
            assert unit_time >= closed(gmpl) - 1.0

    def test_utilization_validation(self):
        with pytest.raises(ValueError, match="utilization"):
            profile_database(mode="open", utilizations=(1.5,))
