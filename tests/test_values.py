"""The one value layer (:mod:`repro.values`), asked of every reuse tier.

Each row holds values the reference engine without sharing tells apart
(``t = str(s)``).  Submitted in turn, spaced or all at one instant, every
stack with a reuse tier armed must answer what that engine answers; the
same rows pin :func:`key`'s partition, the launch memo's inlined probe
and the encoder's round trip.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from decimal import Decimal
from enum import IntEnum

import pytest

from repro import Attribute, BatchedEngine, DecisionFlowSchema, IdealDatabase, Simulation, Strategy
from repro.api import DecisionService, ExecutionConfig
from repro.nulls import NULL, ExceptionValue
from repro.values import SCALARS, SerializationError, decode, encode, key, share_key
from tests._support import q

P = namedtuple("P", "x y")


class Level(IntEnum):
    HIGH = 1


class Box:
    """An unhashable user object: no key."""

    __hash__ = None

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Box) and other.value == self.value

    def __repr__(self):
        return f"Box({self.value})"


NAN = math.nan

ROWS = {
    "decimal-zero": [Decimal("0"), Decimal("-0")],
    "complex-zero": [complex(0, 0), complex(0, -0.0)],
    "decimal-exponent": [Decimal("1.0"), Decimal("1.00")],
    "tuple-list": [(1, 2), [1, 2]],
    "tuple-namedtuple": [(1, 2), P(1, 2)],
    "frozenset-set": [frozenset({1}), {1}],
    "dict-order": [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
    "set-order": [{8, 16}, {16, 8}],
    "int-bool-float": [1, True, 1.0],
    "float-zero": [0.0, -0.0],
    "null-exception": [NULL, ExceptionValue("boom")],
    "nan": [NAN, float("nan")],
    "intenum": [Level.HIGH, 1],
    "unhashable": [Box(1), Box(1)],
}

STACKS = {
    "reference-share": dict(engine="reference", share_results=True),
    "batched-cache": dict(engine="batched", query_cache=True),
    "batched-cache-cohorts": dict(engine="batched", query_cache=True, cohorts=True),
    # the benchmark's fast stack
    "fast": dict(engine="batched", dispatch="pooled", query_cache=True, cohorts=True),
}

VALUES = [value for row in ROWS.values() for value in row]


def str_schema() -> DecisionFlowSchema:
    task = q("t", inputs=("s",), fn=lambda values: str(values["s"]))
    return DecisionFlowSchema([Attribute("s"), Attribute("t", task=task, is_target=True)], name="str")


def run(values, spaced, **config) -> list:
    service = DecisionService(str_schema(), ExecutionConfig.from_code("PSE100", **config))
    handles = [
        service.submit({"s": value}, at=float(at) if spaced else 0.0)
        for at, value in enumerate(values * 2)
    ]
    service.run()
    return [(h.value("t"), repr(h.value("s"))) for h in handles]


@pytest.mark.parametrize("spaced", [True, False], ids=["spaced", "one-instant"])
@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("row", ROWS)
def test_every_tier_answers_what_the_reference_answers(row, stack, spaced):
    values = ROWS[row]
    assert run(values, spaced, **STACKS[stack]) == run(values, spaced, engine="reference")


def same(a: object, b: object) -> bool:
    return a is b or (type(a) is type(b) and a == b and repr(a) == repr(b))


def test_key_partitions_the_table():
    for a in VALUES:
        if isinstance(a, Box):
            assert key(a) is None and share_key("q", {"s": a, "u": 1}) is None
            continue
        assert isinstance(hash(key(a)), int)
        for b in VALUES:
            if not isinstance(b, Box):
                assert (key(a) == key(b)) == same(a, b), (a, b)


def test_containers_key_by_class_and_order():
    assert key({1: "a", "b": 2}) != key({"b": 2, 1: "a"})
    assert key((1, [-0.0])) != key((1, [0.0]))
    assert key([Box(1)]) is None and key({"k": Box(1)}) is None
    assert share_key("q", {"a": 1, "b": 2}) != share_key("q", {"b": 2, "a": 1})
    assert share_key("q1", {"a": 1}) != share_key("q2", {"a": 1})


def test_the_launch_probe_partitions_what_it_files_as_key_does():
    """The launch memo's inlined probe, pinned to :func:`key` on every
    row: a value finds another's entry iff the two share a key, a value
    of no filed class finds none, and the entry's cache key is
    :func:`share_key`'s."""
    plan = BatchedEngine(
        str_schema(), Strategy.parse("PSE100"), IdealDatabase(Simulation()), query_cache=True
    ).plan
    s, t = plan.index["s"], plan.index["t"]
    task = plan.tasks[t]

    def entry(value):
        sv = [None] * plan.n
        sv[s] = value
        return plan.launch_entry(t, sv)

    entries = [entry(value) for value in VALUES]
    for a, found in zip(VALUES, entries):
        assert (found is None) == (type(a) not in SCALARS), a
        if found is not None:
            assert found[0] == share_key(task.name, {"s": a}) + (task.cost,)
            assert found[1] == str(a)
    for a, found_a in zip(VALUES, entries):
        for b, found_b in zip(VALUES, entries):
            if found_a is not None and found_b is not None:
                assert (found_a is found_b) == (key(a) == key(b)), (a, b)


def test_encode_round_trips_every_encodable_row():
    """A sequence comes back as a tuple; what the encoder never accepted
    still raises."""
    for value in VALUES:
        try:
            encoded = encode(value)
        except SerializationError:
            assert isinstance(value, (Decimal, complex, set, frozenset, dict, Box)), value
            continue
        want = tuple(value) if isinstance(value, (list, tuple)) else value
        assert key(decode(encoded)) == key(want), value
    assert encode(ExceptionValue("boom")) == {"$exc": "boom"}
    assert decode(json.loads(json.dumps(encode((ExceptionValue(""), NULL))))) == (
        ExceptionValue(""),
        NULL,
    )
