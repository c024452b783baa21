"""Empirical profiling of the simulated database: the Db function.

The analytical model of section 5 needs ``Db``, "the function mapping the
multi-programming level of the database to the response time of the
database per unit of processing", which "is empirically determined for
each database" — the paper's Figure 9(a).

:func:`profile_database` measures it with a closed-loop experiment: for
each multiprogramming level *G*, keep exactly *G* one-unit queries in
process (resubmitting on completion) and record the mean response time per
query after a warm-up period.  :class:`DbFunction` wraps the resulting
points with monotone piecewise-linear interpolation, extrapolating the
last segment's slope beyond the profiled range.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from statistics import mean
from typing import Sequence

from repro.simdb.database import DbParams, SimulatedDatabase
from repro.simdb.des import Simulation

__all__ = ["DbFunction", "profile_database"]


@dataclass(frozen=True)
class DbFunction:
    """Piecewise-linear Gmpl → UnitTime(ms) mapping (the Db of Eq. 4/6)."""

    points: tuple[tuple[float, float], ...]
    #: the points' Gmpl column, for segment lookup by bisection
    _gmpls: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("DbFunction needs at least one point")
        gmpls = [g for g, _ in self.points]
        if sorted(gmpls) != gmpls or len(set(gmpls)) != len(gmpls):
            raise ValueError("DbFunction points must have strictly increasing Gmpl")
        object.__setattr__(self, "_gmpls", tuple(gmpls))

    def __call__(self, gmpl: float) -> float:
        """Interpolated UnitTime at the given multiprogramming level."""
        points = self.points
        if gmpl <= points[0][0]:
            return points[0][1]
        upper = bisect_left(self._gmpls, gmpl)  # first point with gmpl <= g1
        if upper == len(points):
            return self._extrapolate(gmpl)
        (g0, t0), (g1, t1) = points[upper - 1], points[upper]
        frac = (gmpl - g0) / (g1 - g0)
        return t0 + frac * (t1 - t0)

    def _extrapolate(self, gmpl: float) -> float:
        (g0, t0), (g1, t1) = self.points[-2:] if len(self.points) >= 2 else ((0.0, self.points[0][1]), self.points[0])
        slope = (t1 - t0) / (g1 - g0) if g1 > g0 else 0.0
        return t1 + slope * (gmpl - g1)

    @property
    def max_gmpl(self) -> float:
        return self.points[-1][0]

    @property
    def zero_load_unit_time(self) -> float:
        return self.points[0][1]

    @property
    def tail_slope(self) -> float:
        """ms of UnitTime per extra unit of Gmpl beyond the profiled range."""
        if len(self.points) < 2:
            return 0.0
        (g0, t0), (g1, t1) = self.points[-2:]
        return (t1 - t0) / (g1 - g0)


def profile_database(
    params: DbParams | None = None,
    gmpl_levels: Sequence[int] = (1, 2, 4, 6, 8, 12, 16, 20, 25, 30, 35),
    completions_per_level: int = 2000,
    warmup: int = 200,
    seed: int = 0,
    mode: str = "closed",
    utilizations: Sequence[float] = (0.1, 0.25, 0.4, 0.55, 0.7, 0.8, 0.88, 0.94),
) -> DbFunction:
    """Measure the Db function of a simulated database (Figure 9(a)).

    ``mode="closed"`` (the paper's figure): for each Gmpl level, a fresh
    simulation keeps exactly that many one-unit queries circulating; the
    mean response of post-warm-up completions is the UnitTime sample.

    ``mode="open"``: one-unit queries arrive in a Poisson stream at a
    fraction of the database's saturation throughput; the point is
    (measured mean Gmpl, mean response).  Open profiling additionally
    captures queueing *variance* under bursty arrivals, which makes the
    analytical model's predictions noticeably tighter for open systems
    (see the profiling-mode ablation benchmark); ``gmpl_levels`` is
    ignored and ``utilizations`` drives the sweep.
    """
    params = params or DbParams()
    points: list[tuple[float, float]] = []
    if mode == "closed":
        for level in gmpl_levels:
            if level < 1:
                raise ValueError(f"Gmpl level must be >= 1, got {level}")
            points.append(
                (float(level), _measure_level(params, level, completions_per_level, warmup, seed))
            )
    elif mode == "open":
        capacity = params.max_unit_throughput_per_ms()
        for utilization in utilizations:
            if not 0 < utilization < 1:
                raise ValueError(f"utilization must be in (0, 1), got {utilization}")
            gmpl, unit_time = _measure_open(
                params, utilization * capacity, completions_per_level, warmup, seed
            )
            if points and gmpl <= points[-1][0]:
                continue  # measurement noise collapsed two loads; keep monotone
            points.append((gmpl, unit_time))
    else:
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    return DbFunction(tuple(points))


def _measure_level(
    params: DbParams, level: int, completions_target: int, warmup: int, seed: int
) -> float:
    sim = Simulation()
    database = SimulatedDatabase(sim, params, seed=seed * 1000 + level)
    samples: list[float] = []
    completions = 0

    def circulate() -> None:
        submit_time = sim.now

        def on_complete(processed: int, completed: bool) -> None:
            nonlocal completions
            completions += 1
            if completions > warmup:
                samples.append(sim.now - submit_time)
            if completions < completions_target + warmup:
                circulate()

        database.submit(1, on_complete)

    for _ in range(level):
        circulate()
    sim.run()
    return mean(samples)


def _measure_open(
    params: DbParams, rate_per_ms: float, completions_target: int, warmup: int, seed: int
) -> tuple[float, float]:
    from repro.simdb.rng import derive_rng

    sim = Simulation()
    database = SimulatedDatabase(sim, params, seed=seed + 77)
    arrival_rng = derive_rng(seed, "profile-open", round(rate_per_ms, 9))
    samples: list[float] = []

    def submit_one() -> None:
        submit_time = sim.now

        def on_complete(processed: int, completed: bool) -> None:
            samples.append(sim.now - submit_time)

        database.submit(1, on_complete)

    arrival_time = 0.0
    for _ in range(completions_target + warmup):
        arrival_time += arrival_rng.expovariate(rate_per_ms)
        sim.schedule_at(arrival_time, submit_one)
    sim.run()
    steady = samples[warmup:] if len(samples) > warmup else samples
    return database.mean_gmpl(), mean(steady)
