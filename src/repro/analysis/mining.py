"""Snapshot reporting and mining (paper §2, "Declarative semantics").

    "Snapshots can provide a basis for reporting on the behavior of a
    decision flow.  In particular, a (possibly nested) relation can be
    formed, where each tuple is the snapshot of one execution ...  Manual
    and automated data mining techniques can be performed on this
    relation, to discover possible refinements to the decision flow."

:class:`SnapshotTable` is that relation: one record per executed instance,
holding each attribute's terminal state and value (or the fact that the
optimizer never evaluated it).  :func:`suggest_refinements` runs simple
mining passes over it and emits actionable findings:

* **always-enabled** — the enabling condition is (almost) never false:
  consider dropping the condition and its enabling edges;
* **never-enabled** — the attribute is (almost) never enabled: consider
  retiring it, or demoting its query's scheduling priority;
* **constant-value** — an enabled query (almost) always returns the same
  value: consider replacing the database dip with a constant or cache;
* **expensive-rarely-used** — a costly query whose value is rarely needed:
  a prime candidate for stronger gating or for the Cheapest heuristic's
  attention;
* **implied-enablement** — one attribute's enablement (almost) always
  implies another's; the flow's conditions may be refactorable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.schema import DecisionFlowSchema
from repro.core.state import AttributeState
from repro.bench.report import format_table

if TYPE_CHECKING:
    from repro.oracle import InstanceRuntime

__all__ = ["SnapshotRecord", "SnapshotTable", "Refinement", "suggest_refinements"]


def freeze(value: object) -> object:
    """A hashable grouping of *value* by ``==`` for the statistics of
    :meth:`SnapshotTable.value_counts` — no memo key (``1`` and ``True``
    group together; see :func:`repro.values.key`).  Containers convert
    recursively, unhashable leaves to their repr."""
    if isinstance(value, dict):
        return ("dict", tuple(sorted((k, freeze(v)) for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(freeze(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(freeze(v) for v in value))
    try:
        hash(value)
    except TypeError:
        return ("repr", repr(value))
    return value


@dataclass(frozen=True)
class SnapshotRecord:
    """One tuple of the snapshot relation: the outcome of one instance."""

    instance_id: str
    states: dict[str, AttributeState]
    values: dict[str, object]
    work_units: int
    elapsed: float


@dataclass
class SnapshotTable:
    """The snapshot relation of a decision flow across many executions."""

    schema: DecisionFlowSchema
    records: list[SnapshotRecord] = field(default_factory=list)

    @classmethod
    def collect(cls, schema: DecisionFlowSchema, instances: Iterable[InstanceRuntime]) -> "SnapshotTable":
        table = cls(schema)
        for instance in instances:
            table.add_instance(instance)
        return table

    def add_instance(self, instance: InstanceRuntime) -> None:
        if not instance.done:
            raise ValueError(f"instance {instance.instance_id} has not finished")
        self.records.append(
            SnapshotRecord(
                instance_id=instance.instance_id,
                states=instance.state_map(),
                values=instance.value_map(),
                work_units=instance.metrics.work_units,
                elapsed=instance.metrics.elapsed,
            )
        )

    def __len__(self) -> int:
        return len(self.records)

    # -- per-attribute statistics -------------------------------------------

    def observed_count(self, name: str) -> int:
        """Executions in which *name* reached a stable state."""
        return sum(1 for r in self.records if r.states[name].stable)

    def enabled_count(self, name: str) -> int:
        return sum(1 for r in self.records if r.states[name] is AttributeState.VALUE)

    def enabled_frequency(self, name: str) -> float:
        """P(enabled | observed) — None-safe: 0.0 when never observed."""
        observed = self.observed_count(name)
        return self.enabled_count(name) / observed if observed else 0.0

    def observed_frequency(self, name: str) -> float:
        return self.observed_count(name) / len(self.records) if self.records else 0.0

    def value_counts(self, name: str) -> Counter:
        """Distribution of (frozen) values when the attribute was enabled."""
        counts: Counter = Counter()
        for record in self.records:
            if record.states[name] is AttributeState.VALUE:
                counts[freeze(record.values[name])] += 1
        return counts

    def dominant_value_frequency(self, name: str) -> float:
        counts = self.value_counts(name)
        total = sum(counts.values())
        return max(counts.values()) / total if total else 0.0

    def mean_work(self) -> float:
        return sum(r.work_units for r in self.records) / len(self.records) if self.records else 0.0

    # -- rendering --------------------------------------------------------------

    def summary_rows(self) -> list[list[object]]:
        rows = []
        for name in self.schema.non_source_names:
            rows.append(
                [
                    name,
                    self.schema[name].cost,
                    self.observed_frequency(name),
                    self.enabled_frequency(name),
                    self.dominant_value_frequency(name),
                ]
            )
        return rows

    def render(self) -> str:
        header = (
            f"snapshot relation for {self.schema.name!r}: {len(self.records)} executions, "
            f"mean work {self.mean_work():.1f} units"
        )
        table = format_table(
            ["attribute", "cost", "observed", "enabled|obs", "dominant value"],
            self.summary_rows(),
            floatfmt=".2f",
        )
        return header + "\n" + table


@dataclass(frozen=True)
class Refinement:
    """One mining finding with a human-readable rationale."""

    kind: str
    attribute: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.attribute}: {self.detail}"


def suggest_refinements(
    table: SnapshotTable,
    always_threshold: float = 0.98,
    never_threshold: float = 0.02,
    constant_threshold: float = 0.98,
    expensive_cost: int = 4,
    rare_frequency: float = 0.2,
    implication_threshold: float = 0.99,
    min_support: int = 10,
) -> list[Refinement]:
    """Mine the snapshot relation for candidate flow refinements."""
    refinements: list[Refinement] = []
    if len(table.records) < min_support:
        return refinements
    schema = table.schema

    for name in schema.non_source_names:
        spec = schema[name]
        observed = table.observed_count(name)
        if observed < min_support:
            continue
        enabled_freq = table.enabled_frequency(name)
        has_condition = bool(spec.condition.refs())

        if has_condition and enabled_freq >= always_threshold:
            refinements.append(
                Refinement(
                    "always-enabled",
                    name,
                    f"condition true in {enabled_freq:.0%} of {observed} observations; "
                    "consider removing the condition (and its enabling edges)",
                )
            )
        if enabled_freq <= never_threshold:
            refinements.append(
                Refinement(
                    "never-enabled",
                    name,
                    f"enabled in only {enabled_freq:.0%} of {observed} observations; "
                    "consider retiring the attribute or demoting its priority",
                )
            )
        if spec.cost > 0 and table.enabled_count(name) >= min_support:
            dominant = table.dominant_value_frequency(name)
            if dominant >= constant_threshold:
                refinements.append(
                    Refinement(
                        "constant-value",
                        name,
                        f"query returned one value in {dominant:.0%} of enabled runs; "
                        "consider a cache or constant in place of the database dip",
                    )
                )
        if spec.cost >= expensive_cost and 0 < enabled_freq <= rare_frequency:
            refinements.append(
                Refinement(
                    "expensive-rarely-used",
                    name,
                    f"cost {spec.cost} units but enabled in only {enabled_freq:.0%}; "
                    "gate it behind cheaper conditions or schedule it last",
                )
            )

    refinements.extend(
        _implication_findings(table, implication_threshold, min_support)
    )
    return refinements


def _implication_findings(
    table: SnapshotTable, threshold: float, min_support: int
) -> list[Refinement]:
    """Pairwise enabled(a) ⇒ enabled(b) rules with high confidence."""
    findings: list[Refinement] = []
    names = [
        n
        for n in table.schema.internal_names
        if table.schema[n].condition.refs() and table.enabled_count(n) >= min_support
    ]
    for a in names:
        for b in names:
            if a == b:
                continue
            both = sum(
                1
                for record in table.records
                if record.states[a] is AttributeState.VALUE
                and record.states[b] is AttributeState.VALUE
            )
            support_a = table.enabled_count(a)
            confidence = both / support_a
            if confidence >= threshold:
                findings.append(
                    Refinement(
                        "implied-enablement",
                        a,
                        f"enabled({a}) implies enabled({b}) with {confidence:.0%} confidence "
                        f"over {support_a} runs; their conditions may be refactorable",
                    )
                )
    return findings
