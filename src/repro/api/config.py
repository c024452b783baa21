"""One immutable configuration object for decision-flow execution.

:class:`ExecutionConfig` gathers every knob that was previously scattered
across ``Engine`` constructor kwargs (``halt_policy``, ``query_cache``),
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
]

HALT_POLICIES = ("cancel", "drain")

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
    engine: ``"batched"`` (the default: compiled flow plans + flat array
    state, built for large instance populations) or ``"reference"`` (the
    name-keyed paper engine; identical observable behavior).

    ``query_cache`` arms the per-service
    :class:`~repro.simdb.database.QueryShareCache`, the one cross-instance
    result sharing (the paper's §6 "overlapping data"): identical in-flight
    queries coalesce into one database dispatch and completed results
    memo-serve re-issues at zero cost (per shard; hit/miss/coalesce
    counters surface in ``summary()``).  Every service drains its DES
    calendar in same-instant pools, and on the batched engine the cache
    also arms cohorts (identical same-instant arrivals riding one
    representative); neither changes a trace.

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
    backend: str = "ideal"
    backend_options: Mapping[str, Any] = field(default_factory=dict)
    engine: str = "batched"
    shards: int = 1
    executor: str = "serial"
    query_cache: bool = False
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
        if not isinstance(self.query_cache, bool):
            raise ValueError(
                f"query_cache must be a bool, got {self.query_cache!r}"
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
        ``query_cache``, ``backend``, ``backend_options``) and strategy
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
        can write ``config.replace(permitted=50, query_cache=True)``
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
        if self.engine != "batched":
            extras.append(f"engine={self.engine}")
        if self.shards != 1 or self.executor != "serial":
            extras.append(f"shards={self.shards}x{self.executor}")
        if self.halt_policy != "cancel":
            extras.append(f"halt={self.halt_policy}")
        if self.query_cache:
            extras.append("query-cache")
        if self.observe:
            extras.append("observe")
        if self.cancel_unneeded:
            extras.append("+cancel-unneeded")
        if self.backend_options:
            extras.append(f"options={dict(self.backend_options)!r}")
        suffix = (" " + " ".join(extras)) if extras else ""
        return f"<ExecutionConfig {self.code} backend={self.backend!r}{suffix}>"
