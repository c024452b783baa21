"""Declarative schema (de)serialization.

The execution architecture of Figure 2 keeps decision-flow schemas in a
repository; this module provides the storage format: a plain-dict (hence
JSON-able) encoding of schemas whose parts are declarative —

* all condition forms (literals, comparisons, null/exception tests,
  and/or/not; user predicates are code and therefore not serializable);
* query tasks whose result function is a :func:`~repro.core.tasks.constant`;
* rule-set synthesis tasks with constant contributions;

which covers every schema the workload generator produces, so generated
patterns can be persisted and reloaded bit-for-bit.  Tasks wrapping
arbitrary Python callables raise :class:`SerializationError` with a
pointer to what must be rewritten declaratively.

Beyond schemas, the module round-trips the two execution-recipe values —
:class:`~repro.core.strategy.Strategy` and
:class:`~repro.api.config.ExecutionConfig` — which is what lets the
sharded runtime ship complete shard workloads (schema + strategy +
config) to worker processes as plain dicts.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.attribute import Attribute
from repro.core.conditions import And, Condition, Literal, Not, Or
from repro.core.predicates import AttrRef, Comparison, IsException, IsNull, Op
from repro.core.rules import Rule, RuleSetTask
from repro.core.schema import DecisionFlowSchema
from repro.core.strategy import Strategy
from repro.core.tasks import QueryTask, SynthesisTask, Task, constant
from repro.values import SerializationError, decode, encode

__all__ = [
    "SerializationError",
    "condition_to_dict",
    "condition_from_dict",
    "task_to_dict",
    "task_from_dict",
    "schema_to_dict",
    "schema_from_dict",
    "dumps_schema",
    "loads_schema",
    "strategy_to_dict",
    "strategy_from_dict",
    "dumps_strategy",
    "loads_strategy",
    "config_to_dict",
    "config_from_dict",
]


# -- conditions ---------------------------------------------------------------

def condition_to_dict(condition: Condition) -> dict:
    if isinstance(condition, Literal):
        return {"kind": "literal", "value": condition.value}
    if isinstance(condition, Comparison):
        right: Any
        if isinstance(condition.right, AttrRef):
            right = {"$attr": condition.right.name}
        else:
            right = encode(condition.right)
        return {
            "kind": "comparison",
            "left": condition.left,
            "op": condition.op.name,
            "right": right,
        }
    if isinstance(condition, IsNull):
        return {"kind": "is_null", "name": condition.name}
    if isinstance(condition, IsException):
        return {"kind": "is_exception", "name": condition.name}
    if isinstance(condition, And):
        return {"kind": "and", "children": [condition_to_dict(c) for c in condition.children]}
    if isinstance(condition, Or):
        return {"kind": "or", "children": [condition_to_dict(c) for c in condition.children]}
    if isinstance(condition, Not):
        return {"kind": "not", "child": condition_to_dict(condition.child)}
    raise SerializationError(
        f"condition {condition!r} is not serializable (user predicates are code; "
        "rewrite them with comparisons/null-tests to persist the schema)"
    )


def condition_from_dict(data: dict) -> Condition:
    kind = data["kind"]
    if kind == "literal":
        return Literal(data["value"])
    if kind == "comparison":
        right = data["right"]
        if isinstance(right, dict) and "$attr" in right:
            right_value: object = AttrRef(right["$attr"])
        else:
            right_value = decode(right)
        return Comparison(data["left"], Op[data["op"]], right_value)
    if kind == "is_null":
        return IsNull(data["name"])
    if kind == "is_exception":
        return IsException(data["name"])
    if kind == "and":
        return And(*(condition_from_dict(c) for c in data["children"]))
    if kind == "or":
        return Or(*(condition_from_dict(c) for c in data["children"]))
    if kind == "not":
        return Not(condition_from_dict(data["child"]))
    raise SerializationError(f"unknown condition kind {kind!r}")


# -- tasks --------------------------------------------------------------------

def task_to_dict(task: Task) -> dict:
    if isinstance(task, QueryTask):
        payload = getattr(task.fn, "constant_value", _MISSING)
        if payload is _MISSING:
            raise SerializationError(
                f"query task {task.name!r} wraps an arbitrary function; only "
                "constant-result queries are serializable"
            )
        return {
            "kind": "query",
            "name": task.name,
            "inputs": list(task.inputs),
            "cost": task.cost,
            "description": task.description,
            "value": encode(payload),
        }
    if isinstance(task, RuleSetTask):
        rules = []
        for rule in task.rules:
            if callable(rule.contribution):
                raise SerializationError(
                    f"rule {rule.name!r} has a callable contribution; only "
                    "constant contributions are serializable"
                )
            rules.append(
                {
                    "name": rule.name,
                    "condition": condition_to_dict(rule.condition),
                    "contribution": encode(rule.contribution),
                }
            )
        return {
            "kind": "rule_set",
            "name": task.name,
            "inputs": list(task.inputs),
            "policy": task.policy_name,
            "default": encode(task.default),
            "rules": rules,
        }
    if isinstance(task, SynthesisTask):
        raise SerializationError(
            f"synthesis task {task.name!r} wraps an arbitrary function; use a "
            "rule set with constant contributions to persist it"
        )
    raise SerializationError(f"unknown task type {type(task).__name__}")


class _Missing:
    pass


_MISSING = _Missing()


def task_from_dict(data: dict) -> Task:
    kind = data["kind"]
    if kind == "query":
        return QueryTask(
            data["name"],
            tuple(data["inputs"]),
            constant(decode(data["value"])),
            data["cost"],
            data.get("description", ""),
        )
    if kind == "rule_set":
        rules = [
            Rule(
                r["name"],
                condition_from_dict(r["condition"]),
                decode(r["contribution"]),
            )
            for r in data["rules"]
        ]
        return RuleSetTask(
            data["name"],
            tuple(data["inputs"]),
            rules,
            data.get("policy", "collect"),
            decode(data.get("default", {"$null": True})),
        )
    raise SerializationError(f"unknown task kind {kind!r}")


# -- schemas ----------------------------------------------------------------------

_FORMAT_VERSION = 1


def schema_to_dict(schema: DecisionFlowSchema) -> dict:
    """Encode a schema as plain dicts (JSON-able)."""
    attributes = []
    for spec in schema:
        entry: dict[str, Any] = {"name": spec.name}
        if spec.is_target:
            entry["target"] = True
        if spec.doc:
            entry["doc"] = spec.doc
        if spec.task is not None:
            entry["task"] = task_to_dict(spec.task)
            entry["condition"] = condition_to_dict(spec.condition)
        attributes.append(entry)
    return {"format": _FORMAT_VERSION, "name": schema.name, "attributes": attributes}


def schema_from_dict(data: dict) -> DecisionFlowSchema:
    """Reconstruct a schema encoded by :func:`schema_to_dict`."""
    if data.get("format") != _FORMAT_VERSION:
        raise SerializationError(f"unsupported schema format: {data.get('format')!r}")
    attributes = []
    for entry in data["attributes"]:
        if "task" not in entry:
            attributes.append(Attribute(entry["name"], doc=entry.get("doc", "")))
            continue
        attributes.append(
            Attribute(
                entry["name"],
                task=task_from_dict(entry["task"]),
                condition=condition_from_dict(entry["condition"]),
                is_target=entry.get("target", False),
                doc=entry.get("doc", ""),
            )
        )
    return DecisionFlowSchema(attributes, name=data.get("name", "decision-flow"))


def dumps_schema(schema: DecisionFlowSchema, indent: int | None = 2) -> str:
    """Schema → JSON text."""
    return json.dumps(schema_to_dict(schema), indent=indent)


def loads_schema(text: str) -> DecisionFlowSchema:
    """JSON text → schema."""
    return schema_from_dict(json.loads(text))


# -- strategies ----------------------------------------------------------------


def strategy_to_dict(strategy: Strategy) -> dict:
    """Encode a strategy as a plain dict (JSON-able).

    The paper-style code carries the four section-5 options; the
    ``cancel_unneeded`` extension travels as its own flag.
    """
    if not isinstance(strategy, Strategy):
        raise SerializationError(f"expected a Strategy, got {strategy!r}")
    return {"code": strategy.code, "cancel_unneeded": strategy.cancel_unneeded}


def strategy_from_dict(data: dict) -> Strategy:
    """Reconstruct a strategy encoded by :func:`strategy_to_dict`."""
    try:
        code = data["code"]
    except (TypeError, KeyError):
        raise SerializationError(f"not a strategy encoding: {data!r}") from None
    return Strategy.parse(code, cancel_unneeded=bool(data.get("cancel_unneeded", False)))


def dumps_strategy(strategy: Strategy, indent: int | None = None) -> str:
    """Strategy → JSON text."""
    return json.dumps(strategy_to_dict(strategy), indent=indent)


def loads_strategy(text: str) -> Strategy:
    """JSON text → strategy."""
    return strategy_from_dict(json.loads(text))


# -- execution configs ---------------------------------------------------------
#
# ExecutionConfig lives one layer up in repro.api; importing it lazily keeps
# repro.core importable on its own while still giving the storage format a
# single home next to the schema codec it travels with.


def config_to_dict(config) -> dict:
    """Encode an :class:`~repro.api.config.ExecutionConfig` as plain dicts.

    Backend options must themselves be plain values (scalars and
    sequences); anything richer — a pre-built ``DbFunction``, a
    ``DbParams`` — raises :class:`SerializationError` naming the option,
    since a worker process must be able to rebuild the backend from the
    registry alone.
    """
    from repro.api.config import ExecutionConfig

    if not isinstance(config, ExecutionConfig):
        raise SerializationError(f"expected an ExecutionConfig, got {config!r}")
    options = {}
    for key, value in config.backend_options.items():
        try:
            options[key] = encode(value)
        except SerializationError:
            raise SerializationError(
                f"backend option {key!r} of backend {config.backend!r} holds "
                f"non-serializable value {value!r}; pass plain scalars (or let "
                "the backend factory rebuild it from them)"
            ) from None
    return {
        "strategy": strategy_to_dict(config.strategy),
        "halt_policy": config.halt_policy,
        "share_results": config.share_results,
        "backend": config.backend,
        "backend_options": options,
        "engine": config.engine,
        "shards": config.shards,
        "executor": config.executor,
        "dispatch": config.dispatch,
        "query_cache": config.query_cache,
        "cohorts": config.cohorts,
        "observe": config.observe,
    }


def config_from_dict(data: dict):
    """Reconstruct a config encoded by :func:`config_to_dict`."""
    from repro.api.config import ExecutionConfig

    try:
        strategy_data = data["strategy"]
    except (TypeError, KeyError):
        raise SerializationError(f"not a config encoding: {data!r}") from None
    # Older encodings carry the removed placement option; its default
    # ("hash") is how every fleet routes now, anything else would re-route.
    placement = data.get("placement", "hash")
    if placement != "hash":
        raise SerializationError(
            f"config encodes placement={placement!r}, a removed option: "
            "sharded services route every instance to its hash home shard"
        )
    return ExecutionConfig(
        strategy=strategy_from_dict(strategy_data),
        halt_policy=data.get("halt_policy", "cancel"),
        share_results=bool(data.get("share_results", False)),
        backend=data.get("backend", "ideal"),
        backend_options={
            key: decode(value)
            for key, value in data.get("backend_options", {}).items()
        },
        engine=data.get("engine", "reference"),
        shards=data.get("shards", 1),
        executor=data.get("executor", "serial"),
        dispatch=data.get("dispatch", "per-event"),
        query_cache=bool(data.get("query_cache", False)),
        cohorts=bool(data.get("cohorts", False)),
        observe=bool(data.get("observe", False)),
    )
