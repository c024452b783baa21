"""One immutable configuration object for decision-flow execution.

:class:`ExecutionConfig` gathers every knob that was previously scattered
across ``Engine`` constructor kwargs (``halt_policy``, ``share_results``),
:class:`~repro.core.strategy.Strategy` (options and %Permitted), and the
ad-hoc backend plumbing of the benchmark drivers.  A config is a value:
build one once, derive variants with :meth:`ExecutionConfig.replace`, and
hand it to any number of :class:`~repro.api.service.DecisionService`
instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Any, Mapping

from repro.core.strategy import Strategy
from repro.errors import StrategyError

__all__ = [
    "ExecutionConfig",
    "HALT_POLICIES",
    "ENGINES",
    "EXECUTORS",
    "DISPATCH_MODES",
]

HALT_POLICIES = ("cancel", "drain")

#: DES drain modes selectable per config: ``"per-event"`` steps the
#: calendar one event at a time (the reference); ``"pooled"`` drains
#: whole same-instant event pools through the engine's batch consumer
#: (identical observable trace; pays off on pool-heavy sweeps, best
#: combined with ``query_cache`` — thin pools can cost a few percent).
DISPATCH_MODES = ("per-event", "pooled")

#: Execution-engine implementations selectable per config: the name-keyed
#: reference engine, or the compiled-plan batched engine (identical
#: observable semantics, faster on multi-instance sweeps).
ENGINES = ("reference", "batched")

#: Shard-executor implementations selectable per config: ``"serial"``
#: drives every shard in-process on one thread (deterministic, the
#: differential reference), ``"process"`` ships shard workloads to a
#: ``multiprocessing`` pool.  Kept in lockstep with the registry in
#: :mod:`repro.runtime.executors`.
EXECUTORS = ("serial", "process")

#: Fields that live on the nested Strategy but are accepted by
#: ``ExecutionConfig.replace`` / ``from_code`` for convenience.
_STRATEGY_FIELDS = ("propagation", "speculative", "heuristic", "permitted", "cancel_unneeded")


@dataclass(frozen=True)
class ExecutionConfig:
    """The full recipe for executing decision-flow instances.

    ``strategy`` accepts either a :class:`Strategy` or a paper-style code
    string such as ``"PSE80"`` (coerced at construction).  ``backend``
    names a registered backend factory (``"ideal"``, ``"bounded"``,
    ``"profiled"``, or any third-party registration); ``backend_options``
    are forwarded to that factory.  ``engine`` selects the execution
    engine: ``"reference"`` (the name-keyed paper engine) or
    ``"batched"`` (compiled flow plans + flat array state; identical
    observable behavior, built for large instance populations).

    ``dispatch`` picks how each shard's DES calendar drains:
    ``"per-event"`` (the reference stepper) or ``"pooled"`` (same-instant
    event pools consumed in one pass by the engine — identical observable
    trace, lower dispatch overhead on large sweeps).  ``query_cache``
    arms the per-service :class:`~repro.simdb.database.QueryShareCache`:
    identical in-flight queries coalesce into one database dispatch and
    completed results memo-serve re-issues at zero cost (per shard;
    hit/miss/coalesce counters surface in ``summary()``).

    ``cohorts`` arms cohort execution on the batched engine, given
    ``query_cache``: instances submitted at the same instant from the
    same typed start valuation form a *cohort* whose representative runs
    propagation/condition-resolution/scheduling once while the members
    *ride* its cache primaries in lockstep — every query of theirs would
    coalesce behind the representative's and inherit its outcome.  An
    arrival rides iff every query the representative waits on is a
    primary with no real follower behind it, and runs as the ordinary
    instance it is otherwise; members that can ride no further are
    *dissolved* into ordinary instances.  Observable traces are
    identical by construction.  ``summary()`` surfaces ``cohort_hits``
    (joins) and ``cohort_splits`` (members dissolved: each member that
    leaves a cohort before it finishes counts once, so ``cohort_hits -
    cohort_splits`` instances finished as members).  The flag is
    accepted and inert — every instance runs individually, both counters
    stay zero — on the reference engine, without ``query_cache``, and
    wherever riding would be unsound (engine-level ``share_results``,
    schemas whose start phase runs user code, a throttled %Permitted).

    ``observe`` arms the :mod:`repro.obs` layer on every execution
    context built from this config: a per-service metrics registry and a
    bounded span tracer (flight recorder) instrumenting plan compilation,
    scheduling rounds, the query lifecycle, pooled DES drains, and cohort
    formation/splits.  Instrumentation is provably invisible to execution
    (identical event order, RNG draws, and cohort decisions); disarmed it
    costs one boolean test per hook.

    ``shards`` and ``executor`` configure the sharded runtime
    (:class:`repro.runtime.ShardedDecisionService`): instances are
    partitioned across ``shards`` independent engine + DES + database
    replicas, driven either in-process (``executor="serial"``) or by a
    fleet of long-lived worker processes (``executor="process"``, one
    persistent worker per shard streaming ops over pipes).  Every
    instance routes to its stable CRC-32 home shard, and each shard's
    query cache and memo tiers are its only result reuse.  A plain
    :class:`~repro.api.service.DecisionService` is single-shard by
    definition and ignores these fields; :func:`repro.runtime.create_service`
    picks the right facade from them.
    """

    strategy: Strategy = field(default_factory=Strategy)
    halt_policy: str = "cancel"
    share_results: bool = False
    backend: str = "ideal"
    backend_options: Mapping[str, Any] = field(default_factory=dict)
    engine: str = "reference"
    shards: int = 1
    executor: str = "serial"
    dispatch: str = "per-event"
    query_cache: bool = False
    cohorts: bool = False
    observe: bool = False

    def __post_init__(self):
        if isinstance(self.strategy, str):
            object.__setattr__(self, "strategy", Strategy.parse(self.strategy))
        elif not isinstance(self.strategy, Strategy):
            raise StrategyError(
                f"strategy must be a Strategy or code string, got {self.strategy!r}"
            )
        if self.halt_policy not in HALT_POLICIES:
            raise ValueError(
                f"halt_policy must be one of {HALT_POLICIES}, got {self.halt_policy!r}"
            )
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError(f"backend must be a non-empty name string, got {self.backend!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if (
            not isinstance(self.shards, int)
            or isinstance(self.shards, bool)
            or self.shards < 1
        ):
            raise ValueError(f"shards must be an int >= 1, got {self.shards!r}")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.dispatch not in DISPATCH_MODES:
            raise ValueError(
                f"dispatch must be one of {DISPATCH_MODES}, got {self.dispatch!r}"
            )
        if not isinstance(self.query_cache, bool):
            raise ValueError(
                f"query_cache must be a bool, got {self.query_cache!r}"
            )
        if not isinstance(self.cohorts, bool):
            raise ValueError(
                f"cohorts must be a bool, got {self.cohorts!r}"
            )
        if not isinstance(self.observe, bool):
            raise ValueError(
                f"observe must be a bool, got {self.observe!r}"
            )
        # Freeze the options mapping so the config stays a value.
        object.__setattr__(
            self, "backend_options", MappingProxyType(dict(self.backend_options))
        )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_code(cls, code: str, **overrides: Any) -> "ExecutionConfig":
        """Build a config from a strategy code, e.g. ``from_code("PSE80")``.

        Keyword overrides accept both config fields (``halt_policy``,
        ``share_results``, ``backend``, ``backend_options``) and strategy
        fields (``permitted``, ``cancel_unneeded``, ...), which are folded
        into the parsed strategy.
        """
        strategy_overrides = {
            key: overrides.pop(key) for key in _STRATEGY_FIELDS if key in overrides
        }
        strategy = Strategy.parse(code)
        if strategy_overrides:
            strategy = strategy.replace(**strategy_overrides)
        return cls(strategy=strategy, **overrides)

    def replace(self, **changes: Any) -> "ExecutionConfig":
        """A copy with the given fields replaced.

        Strategy-level fields route into ``strategy.replace`` so callers
        can write ``config.replace(permitted=50, share_results=True)``
        without unpacking the nested strategy.
        """
        strategy_changes = {
            key: changes.pop(key) for key in _STRATEGY_FIELDS if key in changes
        }
        config_fields = {f.name for f in fields(self)}
        unknown = set(changes) - config_fields
        if unknown:
            raise ValueError(
                f"unknown config field(s) {sorted(unknown)}; expected a subset of "
                f"{sorted(config_fields | set(_STRATEGY_FIELDS))}"
            )
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(changes)
        if strategy_changes:
            base = current["strategy"]
            if isinstance(base, str):
                base = Strategy.parse(base)
            current["strategy"] = base.replace(**strategy_changes)
        return ExecutionConfig(**current)

    # -- strategy passthroughs ------------------------------------------------

    @property
    def code(self) -> str:
        """The paper-style strategy code, e.g. ``"PSE80"``."""
        return self.strategy.code

    @property
    def permitted(self) -> int:
        return self.strategy.permitted

    @property
    def cancel_unneeded(self) -> bool:
        return self.strategy.cancel_unneeded

    def __repr__(self) -> str:
        extras = []
        if self.engine != "reference":
            extras.append(f"engine={self.engine}")
        if self.shards != 1 or self.executor != "serial":
            extras.append(f"shards={self.shards}x{self.executor}")
        if self.halt_policy != "cancel":
            extras.append(f"halt={self.halt_policy}")
        if self.dispatch != "per-event":
            extras.append(f"dispatch={self.dispatch}")
        if self.query_cache:
            extras.append("query-cache")
        if self.cohorts:
            extras.append("cohorts")
        if self.observe:
            extras.append("observe")
        if self.share_results:
            extras.append("shared")
        if self.cancel_unneeded:
            extras.append("+cancel-unneeded")
        if self.backend_options:
            extras.append(f"options={dict(self.backend_options)!r}")
        suffix = (" " + " ".join(extras)) if extras else ""
        return f"<ExecutionConfig {self.code} backend={self.backend!r}{suffix}>"
