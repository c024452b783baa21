"""repro — decision flows: cost-based optimization of data-intensive decision DAGs.

A faithful, self-contained reproduction of

    R. Hull, F. Llirbat, B. Kumar, G. Zhou, G. Dong, J. Su.
    "Optimization Techniques for Data-Intensive Decision Flows."
    ICDE 2000, pp. 281-292.

The package provides:

* :mod:`repro.core` — the decision-flow model (attributes, enabling
  conditions, tasks, modules, declarative snapshot semantics) and the
  optimizing execution engine (eager condition evaluation, forward and
  backward propagation, speculative execution, scheduling heuristics).
* :mod:`repro.simdb` — the simulated database substrate: a deterministic
  discrete-event kernel, multi-server FCFS service centers, the ideal and
  bounded-resource database servers, and the empirical Db profiler.
* :mod:`repro.workload` — the Table-1 schema-pattern generator.
* :mod:`repro.analysis` — the analytical throughput model (Equations 1-6),
  guideline maps, and strategy tuning.
* :mod:`repro.api` — the high-level entry point: :class:`ExecutionConfig`,
  the named-backend registry, and the multi-instance
  :class:`DecisionService` facade.
* :mod:`repro.bench` — experiment runners and reporting shared by the
  benchmark suite and the examples.
* :mod:`repro.oracle` — the reference engine and the per-unit database
  kernels the product is held to; ``repro.Engine`` loads it on first use.

Quickstart::

    from repro import DecisionService, ExecutionConfig, PatternParams, generate_pattern

    pattern = generate_pattern(PatternParams(nb_rows=4, pct_enabled=50))
    service = DecisionService(pattern.schema, ExecutionConfig.from_code("PCE0"))
    handle = service.submit(pattern.source_values)
    print(handle.result(), handle.metrics.work_units, handle.metrics.elapsed)

The one-shot helper :func:`run_once` wraps exactly that recipe for a
generated pattern on the ideal backend.
"""

from repro.core import (
    ALL_STRATEGY_CODES,
    And,
    Attribute,
    AttributeState,
    Comparison,
    CompleteSnapshot,
    Condition,
    BatchedEngine,
    CompiledPlan,
    DecisionFlowSchema,
    FALSE,
    InstanceMetrics,
    IsException,
    IsNull,
    Literal,
    Module,
    Not,
    Op,
    Or,
    QueryTask,
    Rule,
    RuleSetTask,
    Strategy,
    SynthesisTask,
    TRUE,
    UserPredicate,
    attr,
    check_against_snapshot,
    config_from_dict,
    config_to_dict,
    dumps_schema,
    dumps_strategy,
    evaluate_schema,
    expand_pattern,
    flatten,
    loads_schema,
    loads_strategy,
    query,
    rule_set,
    schema_from_dict,
    schema_to_dict,
    source_attribute,
    strategy_from_dict,
    strategy_to_dict,
    summarize,
    synthesize,
)
from repro.nulls import NULL, ExceptionValue, is_exception, is_null
from repro.simdb import (
    DbFunction,
    DbParams,
    IdealDatabase,
    ProfiledDatabase,
    QueryShareCache,
    Simulation,
    SimulatedDatabase,
    profile_database,
)
from repro.api import (
    Backend,
    DecisionService,
    ExecutionConfig,
    InstanceHandle,
    available_backends,
    create_backend,
    register_backend,
)
from repro.runtime import (
    ShardStats,
    ShardedDecisionService,
    ShardedInstanceHandle,
    create_service,
)
from repro.workload import PatternParams, GeneratedPattern, generate_pattern

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "Attribute",
    "source_attribute",
    "Condition",
    "Literal",
    "TRUE",
    "FALSE",
    "And",
    "Or",
    "Not",
    "Comparison",
    "IsNull",
    "IsException",
    "UserPredicate",
    "attr",
    "Op",
    "QueryTask",
    "SynthesisTask",
    "query",
    "synthesize",
    "Rule",
    "RuleSetTask",
    "rule_set",
    "Module",
    "flatten",
    "DecisionFlowSchema",
    "dumps_schema",
    "loads_schema",
    "schema_to_dict",
    "schema_from_dict",
    "dumps_strategy",
    "loads_strategy",
    "strategy_to_dict",
    "strategy_from_dict",
    "config_to_dict",
    "config_from_dict",
    "AttributeState",
    "CompleteSnapshot",
    "evaluate_schema",
    "check_against_snapshot",
    "NULL",
    "is_null",
    "ExceptionValue",
    "is_exception",
    # engine
    "Engine",
    "BatchedEngine",
    "CompiledPlan",
    "Strategy",
    "expand_pattern",
    "ALL_STRATEGY_CODES",
    "InstanceMetrics",
    "summarize",
    # substrate
    "Simulation",
    "IdealDatabase",
    "SimulatedDatabase",
    "ProfiledDatabase",
    "QueryShareCache",
    "DbParams",
    "DbFunction",
    "profile_database",
    # high-level api
    "DecisionService",
    "ExecutionConfig",
    "InstanceHandle",
    "Backend",
    "register_backend",
    "create_backend",
    "available_backends",
    # sharded runtime
    "ShardedDecisionService",
    "ShardedInstanceHandle",
    "ShardStats",
    "create_service",
    # workload
    "PatternParams",
    "GeneratedPattern",
    "generate_pattern",
    "run_once",
]


def run_once(pattern: GeneratedPattern, strategy: Strategy) -> InstanceMetrics:
    """Execute one instance of a generated pattern on a fresh ideal backend.

    Thin shim over the canonical :class:`repro.api.DecisionService` path,
    kept for backward compatibility with the original low-level API;
    returns the instance metrics (``work_units`` is the paper's Work,
    ``elapsed`` its TimeInUnits, since the ideal backend's unit duration
    is 1).
    """
    service = DecisionService(pattern.schema, ExecutionConfig(strategy=strategy))
    return service.submit(pattern.source_values).wait()


def __getattr__(name: str):
    if name == "Engine":  # the reference engine: the oracle loads on first use
        from repro.oracle import Engine

        return Engine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
