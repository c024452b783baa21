"""Named database backends and the pluggable backend registry.

A *backend* bundles a fresh discrete-event :class:`Simulation` with a
database server bound to it — everything a
:class:`~repro.api.service.DecisionService` needs to execute instances —
so callers pick substrates by name instead of wiring ``Simulation`` /
``DatabaseServer`` pairs by hand:

* ``"ideal"`` — the unbounded-resource :class:`IdealDatabase`; the clock
  counts units of processing (the paper's TimeInUnits).
* ``"bounded"`` — the physical :class:`SimulatedDatabase` with CPU/disk
  queues; the clock is in milliseconds (TimeInSeconds after /1000).
* ``"profiled"`` — a :class:`ProfiledDatabase` calibrated by an empirical
  Db function (profiled on demand via :func:`profile_database` when none
  is supplied, once per process for each distinct calibration);
  milliseconds, but far cheaper to simulate than ``"bounded"``.

Third parties extend the set with :func:`register_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from repro.simdb.database import (
    DatabaseServer,
    DbParams,
    IdealDatabase,
    ProfiledDatabase,
    SimulatedDatabase,
)
from repro.simdb.des import Simulation
from repro.simdb.profiler import DbFunction, profile_database

__all__ = [
    "Backend",
    "BackendFactory",
    "register_backend",
    "create_backend",
    "available_backends",
]


@dataclass(frozen=True)
class Backend:
    """A ready-to-run substrate: one simulation plus its database server.

    ``time_unit`` documents how to read the clock: ``"units"`` for the
    ideal database (TimeInUnits) and ``"ms"`` for the physical and
    profiled ones (TimeInSeconds = elapsed / 1000).
    """

    name: str
    simulation: Simulation
    database: DatabaseServer
    time_unit: str = "units"

    def __post_init__(self):
        if self.database.sim is not self.simulation:
            raise ValueError(
                f"backend {self.name!r}: database is bound to a different simulation"
            )
        if self.time_unit not in ("units", "ms"):
            raise ValueError(f"time_unit must be 'units' or 'ms', got {self.time_unit!r}")


#: A factory takes backend options and returns a fresh Backend.
BackendFactory = Callable[..., Backend]

_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory, *, replace: bool = False) -> None:
    """Register a named backend factory.

    The factory is called with the ``backend_options`` of the requesting
    config and must return a fresh :class:`Backend` on every call (engines
    must never share simulations by accident).  Pass ``replace=True`` to
    overwrite an existing registration.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if not callable(factory):
        raise TypeError(f"backend factory for {name!r} must be callable")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"backend {name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[name] = factory


def create_backend(name: str, **options) -> Backend:
    """Instantiate a registered backend by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
    backend = factory(**options)
    if not isinstance(backend, Backend):
        raise TypeError(
            f"backend factory {name!r} returned {type(backend).__name__}, expected Backend"
        )
    return backend


def available_backends() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


# -- built-in factories --------------------------------------------------------


def _ideal_backend(
    unit_duration: float = 1.0, failure_prob: float = 0.0, seed: int = 0
) -> Backend:
    simulation = Simulation()
    database = IdealDatabase(
        simulation, unit_duration=unit_duration, failure_prob=failure_prob, seed=seed
    )
    return Backend("ideal", simulation, database, time_unit="units")


def _bounded_backend(params: DbParams | None = None, seed: int = 0, **db_kwargs) -> Backend:
    if params is not None and db_kwargs:
        raise ValueError("pass either a DbParams instance or field overrides, not both")
    params = params or DbParams(**db_kwargs)
    simulation = Simulation()
    database = SimulatedDatabase(simulation, params, seed=seed)
    return Backend("bounded", simulation, database, time_unit="ms")


@lru_cache(maxsize=32)
def _calibrate(params: DbParams, gmpl_levels: tuple[int, ...], *measurement) -> DbFunction:
    """The Db function of one calibration, profiled once per process.

    Profiling is deterministic in its (hashable) arguments and the result
    is immutable, so every service, warm-up twin and shard worker asking
    for the same calibration shares one measurement.
    """
    return profile_database(params, gmpl_levels, *measurement)


def _profiled_backend(
    db_function: DbFunction | None = None,
    params: DbParams | None = None,
    gmpl_levels: Sequence[int] = (1, 2, 4, 8, 16, 32),
    completions_per_level: int = 400,
    warmup: int = 80,
    mode: str = "closed",
    failure_prob: float = 0.0,
    seed: int = 0,
) -> Backend:
    if db_function is None:
        db_function = _calibrate(
            params or DbParams(), tuple(gmpl_levels), completions_per_level, warmup, seed, mode
        )
    simulation = Simulation()
    database = ProfiledDatabase(
        simulation, db_function, failure_prob=failure_prob, seed=seed
    )
    return Backend("profiled", simulation, database, time_unit="ms")


register_backend("ideal", _ideal_backend)
register_backend("bounded", _bounded_backend)
register_backend("profiled", _profiled_backend)
