"""Flattened decision-flow schemas (the 4-tuple ⟨A, Source, Target, E⟩).

A flattened schema is the execution-level representation of a decision flow
(section 2): a set of attributes, the subsets of source and target
attributes, and an enabling condition per non-source attribute.  The schema
validates well-formedness on construction: unique names, every non-source
attribute has exactly one producing task, all references resolve, and the
dependency graph is acyclic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.core.attribute import Attribute
from repro.core.conditions import Literal
from repro.core.graph import DependencyGraph
from repro.errors import ExecutionError, SchemaError

__all__ = ["DecisionFlowSchema"]


class DecisionFlowSchema:
    """A validated, flattened decision-flow schema.

    Iteration and lookups are by attribute name; declaration order is
    preserved (and used for deterministic tie-breaking downstream).
    """

    def __init__(self, attributes: Iterable[Attribute], name: str = "decision-flow"):
        self.name = name
        self._attributes: dict[str, Attribute] = {}
        for spec in attributes:
            if spec.name in self._attributes:
                raise SchemaError(f"duplicate attribute name {spec.name!r}")
            self._attributes[spec.name] = spec
        if not self._attributes:
            raise SchemaError("schema must declare at least one attribute")

        self.source_names: tuple[str, ...] = tuple(
            n for n, a in self._attributes.items() if a.is_source
        )
        self.target_names: tuple[str, ...] = tuple(
            n for n, a in self._attributes.items() if a.is_target
        )
        self._validate_roles()
        self.graph = DependencyGraph(self._attributes)

    def _validate_roles(self) -> None:
        for name, spec in self._attributes.items():
            if spec.is_source:
                if spec.is_target:
                    raise SchemaError(
                        f"attribute {name!r} cannot be both source and target"
                    )
                if not (isinstance(spec.condition, Literal) and spec.condition.value):
                    raise SchemaError(
                        f"source attribute {name!r} must have the literal TRUE condition"
                    )
            elif spec.task is None:
                raise SchemaError(f"non-source attribute {name!r} has no task")
        if not self.target_names:
            raise SchemaError("schema must declare at least one target attribute")

    # -- mapping-style access -------------------------------------------------

    def __getitem__(self, name: str) -> Attribute:
        return self._attributes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._attributes

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes.values())

    def __len__(self) -> int:
        return len(self._attributes)

    @property
    def attributes(self) -> Mapping[str, Attribute]:
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._attributes)

    @property
    def non_source_names(self) -> tuple[str, ...]:
        return tuple(n for n in self._attributes if not self._attributes[n].is_source)

    @property
    def internal_names(self) -> tuple[str, ...]:
        """Attributes that are neither source nor target."""
        return tuple(
            n
            for n, a in self._attributes.items()
            if not a.is_source and not a.is_target
        )

    def check_sources(self, source_values: Mapping[str, object]) -> None:
        """Refuse a valuation that lacks a source attribute's value."""
        for name in self.source_names:
            if name not in source_values:
                missing = set(self.source_names) - set(source_values)
                raise ExecutionError(f"missing source values: {sorted(missing)}")

    # -- aggregates -----------------------------------------------------------

    def total_query_cost(self) -> int:
        """Sum of query costs over all attributes (upper bound on Work)."""
        return sum(spec.cost for spec in self)

    def query_names(self) -> tuple[str, ...]:
        return tuple(n for n, a in self._attributes.items() if a.task is not None and a.task.is_query)

    def describe(self) -> str:
        """Human-readable summary (for examples and docs)."""
        lines = [
            f"schema {self.name!r}: {len(self)} attributes "
            f"({len(self.source_names)} source, {len(self.internal_names)} internal, "
            f"{len(self.target_names)} target)",
            f"  queries: {len(self.query_names())}, total cost {self.total_query_cost()} units, "
            f"diameter {self.graph.diameter()} edges",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<DecisionFlowSchema {self.name!r} |A|={len(self)}>"
