"""Enabling-condition AST with Kleene (partial) evaluation.

Enabling conditions guard every non-source attribute of a decision flow
(section 2 of the paper).  The optimizer's *eager evaluation* (section 4)
evaluates conditions over partially known snapshots, so conditions evaluate
into the three-valued domain of :mod:`repro.core.tri`:

* a conjunction is FALSE as soon as one conjunct is FALSE;
* a disjunction is TRUE as soon as one disjunct is TRUE;
* otherwise, unresolved inputs leave the condition UNKNOWN.

A *resolver* is a callable mapping an attribute name to its stable value —
which may be the null value ⊥ for DISABLED attributes — or to the sentinel
:data:`UNRESOLVED` when the attribute is not yet stable.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.tri import Tri, from_bool, tri_not
from repro.nulls import NULL

__all__ = [
    "UNRESOLVED",
    "Resolver",
    "Condition",
    "Literal",
    "TRUE",
    "FALSE",
    "And",
    "Or",
    "Not",
    "resolver_from_mapping",
]


class _Unresolved:
    """Sentinel returned by resolvers for attributes that are not stable."""

    _instance: "_Unresolved | None" = None

    def __new__(cls) -> "_Unresolved":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNRESOLVED"

    def __reduce__(self):
        # Pickling must preserve the singleton property (fleet records
        # carry the sentinel over the pipe).
        return (_Unresolved, ())


#: Resolver result for attributes whose value is not yet known.
UNRESOLVED = _Unresolved()

#: Type of resolver callables.
Resolver = Callable[[str], object]


def resolver_from_mapping(values: Mapping[str, object]) -> Resolver:
    """Build a resolver from a mapping; missing keys resolve to UNRESOLVED."""

    def resolve(name: str) -> object:
        return values.get(name, UNRESOLVED)

    return resolve


class Condition:
    """Abstract base class of enabling-condition nodes."""

    __slots__ = ()

    def refs(self) -> frozenset[str]:
        """Names of all attributes this condition reads."""
        raise NotImplementedError

    def eval_tri(self, resolve: Resolver) -> Tri:
        """Evaluate under partial information (Kleene semantics)."""
        raise NotImplementedError

    def eval_bool(self, resolve: Resolver) -> bool:
        """Evaluate under complete information; raises if still UNKNOWN."""
        result = self.eval_tri(resolve)
        if not result.known:
            missing = sorted(
                name for name in self.refs() if resolve(name) is UNRESOLVED
            )
            raise ValueError(
                f"condition {self} is undetermined; unresolved inputs: {missing}"
            )
        return result is Tri.TRUE

    # Conditions are immutable value objects; subclasses define _key().
    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def __and__(self, other: "Condition") -> "Condition":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return Or(self, other)

    def __invert__(self) -> "Condition":
        return Not(self)


class Literal(Condition):
    """A constant condition (used e.g. for always-enabled attributes)."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = bool(value)

    def refs(self) -> frozenset[str]:
        return frozenset()

    def eval_tri(self, resolve: Resolver) -> Tri:
        return from_bool(self.value)

    def _key(self) -> tuple:
        return (self.value,)

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


#: The always-true condition.
TRUE = Literal(True)
#: The always-false condition.
FALSE = Literal(False)


def _flatten(kind: type, children: Iterable[Condition]) -> tuple[Condition, ...]:
    """Flatten nested connectives of the same kind ((a∧b)∧c → a∧b∧c)."""
    out: list[Condition] = []
    for child in children:
        if not isinstance(child, Condition):
            raise TypeError(f"expected Condition, got {child!r}")
        if type(child) is kind:
            out.extend(child.children)  # type: ignore[attr-defined]
        else:
            out.append(child)
    return tuple(out)


class And(Condition):
    """Kleene conjunction of sub-conditions (TRUE on zero children)."""

    __slots__ = ("children",)

    def __init__(self, *children: Condition):
        self.children = _flatten(And, children)

    def refs(self) -> frozenset[str]:
        return frozenset().union(*(c.refs() for c in self.children)) if self.children else frozenset()

    def eval_tri(self, resolve: Resolver) -> Tri:
        unknown = False
        for child in self.children:
            result = child.eval_tri(resolve)
            if result is Tri.FALSE:
                return Tri.FALSE
            if result is Tri.UNKNOWN:
                unknown = True
        return Tri.UNKNOWN if unknown else Tri.TRUE

    def _key(self) -> tuple:
        return self.children

    def __repr__(self) -> str:
        return "(" + " and ".join(map(repr, self.children)) + ")" if self.children else "TRUE"


class Or(Condition):
    """Kleene disjunction of sub-conditions (FALSE on zero children)."""

    __slots__ = ("children",)

    def __init__(self, *children: Condition):
        self.children = _flatten(Or, children)

    def refs(self) -> frozenset[str]:
        return frozenset().union(*(c.refs() for c in self.children)) if self.children else frozenset()

    def eval_tri(self, resolve: Resolver) -> Tri:
        unknown = False
        for child in self.children:
            result = child.eval_tri(resolve)
            if result is Tri.TRUE:
                return Tri.TRUE
            if result is Tri.UNKNOWN:
                unknown = True
        return Tri.UNKNOWN if unknown else Tri.FALSE

    def _key(self) -> tuple:
        return self.children

    def __repr__(self) -> str:
        return "(" + " or ".join(map(repr, self.children)) + ")" if self.children else "FALSE"


class Not(Condition):
    """Kleene negation."""

    __slots__ = ("child",)

    def __init__(self, child: Condition):
        if not isinstance(child, Condition):
            raise TypeError(f"expected Condition, got {child!r}")
        self.child = child

    def refs(self) -> frozenset[str]:
        return self.child.refs()

    def eval_tri(self, resolve: Resolver) -> Tri:
        return tri_not(self.child.eval_tri(resolve))

    def _key(self) -> tuple:
        return (self.child,)

    def __repr__(self) -> str:
        return f"(not {self.child!r})"


def conjoin(a: Condition, b: Condition) -> Condition:
    """AND two conditions, simplifying literal TRUE/FALSE operands.

    Used by module flattening (section 2): the enabling condition of a
    module is "anded" into the condition of each task inside it.
    """
    if isinstance(a, Literal):
        return b if a.value else FALSE
    if isinstance(b, Literal):
        return a if b.value else FALSE
    return And(a, b)


__all__.append("conjoin")
