"""Core decision-flow model and execution engine."""

from repro.core.attribute import Attribute, source_attribute
from repro.core.conditions import (
    FALSE,
    TRUE,
    And,
    Condition,
    Literal,
    Not,
    Or,
    UNRESOLVED,
    conjoin,
    resolver_from_mapping,
)
from repro.core.batch_engine import BatchedEngine, BatchedInstance
from repro.core.engine import Engine
from repro.core.graph import DependencyGraph, EdgeKind
from repro.core.instance import InstanceRuntime
from repro.core.metrics import InstanceMetrics, MetricsSummary, summarize
from repro.core.plan import CompiledPlan, compile_condition
from repro.core.module import Module, flatten
from repro.core.predicates import (
    AttrRef,
    Comparison,
    IsException,
    IsNull,
    Op,
    UserPredicate,
    attr,
)
from repro.core.prequalifier import candidate_pool
from repro.core.propagation import EdgeTable, NeededTracker, edge_table
from repro.core.sharing import ResultShare, freeze
from repro.core.rules import CombiningPolicy, Rule, RuleSetTask, rule_set
from repro.core.scheduler import rank_key, select_for_launch
from repro.core.schema import DecisionFlowSchema
from repro.core.serialize import (
    SerializationError,
    config_from_dict,
    config_to_dict,
    dumps_schema,
    dumps_strategy,
    loads_schema,
    loads_strategy,
    schema_from_dict,
    schema_to_dict,
    strategy_from_dict,
    strategy_to_dict,
)
from repro.core.snapshot import CompleteSnapshot, check_against_snapshot, evaluate_schema
from repro.core.state import (
    AttributeCell,
    AttributeState,
    Enablement,
    Readiness,
    derive_state,
    legal_successors,
)
from repro.core.strategy import ALL_STRATEGY_CODES, Strategy, expand_pattern
from repro.core.tasks import QueryTask, SynthesisTask, Task, constant, query, synthesize
from repro.core.tri import Tri, from_bool, tri_all, tri_and, tri_any, tri_not, tri_or

__all__ = [
    "Attribute",
    "source_attribute",
    "Condition",
    "Literal",
    "TRUE",
    "FALSE",
    "And",
    "Or",
    "Not",
    "UNRESOLVED",
    "conjoin",
    "resolver_from_mapping",
    "Comparison",
    "IsNull",
    "IsException",
    "UserPredicate",
    "ResultShare",
    "freeze",
    "AttrRef",
    "attr",
    "Op",
    "Tri",
    "from_bool",
    "tri_and",
    "tri_or",
    "tri_not",
    "tri_all",
    "tri_any",
    "Task",
    "QueryTask",
    "SynthesisTask",
    "query",
    "synthesize",
    "constant",
    "Rule",
    "RuleSetTask",
    "rule_set",
    "CombiningPolicy",
    "DependencyGraph",
    "EdgeKind",
    "DecisionFlowSchema",
    "Module",
    "flatten",
    "SerializationError",
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
    "CompleteSnapshot",
    "evaluate_schema",
    "check_against_snapshot",
    "AttributeState",
    "AttributeCell",
    "Readiness",
    "Enablement",
    "derive_state",
    "legal_successors",
    "Strategy",
    "expand_pattern",
    "ALL_STRATEGY_CODES",
    "Engine",
    "BatchedEngine",
    "BatchedInstance",
    "CompiledPlan",
    "compile_condition",
    "EdgeTable",
    "edge_table",
    "InstanceRuntime",
    "InstanceMetrics",
    "MetricsSummary",
    "summarize",
    "NeededTracker",
    "candidate_pool",
    "select_for_launch",
    "rank_key",
]
