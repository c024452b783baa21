"""Cross-instance query-result sharing ("overlapping data", paper §6).

The paper's conclusions raise "how to optimize when several decision flows
will be executed based on overlapping data, whether queries from one or
several decision flows should be clustered to reduce overall database
access time".  This module implements the natural first step: a shared
result table keyed by (task name, input values).  Under the paper's
fixed-data assumption a query's result is a pure function of its inputs
for the duration of an instance, so

* a query already **answered** for the same inputs is served from the
  table at zero database cost;
* a query currently **in flight** for the same inputs is joined — the
  second instance waits for the first's completion instead of issuing a
  duplicate;
* **failed** queries are not cached (the next instance retries).

Keys are :func:`repro.values.share_key`: only inputs no task or condition
can tell apart share a result, and a query with a refused input (no key)
is never shared.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["UNSET", "freeze", "ResultShare"]


class _Unset:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNSET"


#: Sentinel distinct from any cached value (including None and ⊥).
UNSET = _Unset()


def freeze(value: object) -> object:
    """A hashable grouping of *value* by ``==`` for the statistics of
    :meth:`repro.analysis.mining.SnapshotTable.value_counts` — no memo key
    (``1`` and ``True`` group together; see :func:`repro.values.key`).
    Containers convert recursively, unhashable leaves to their repr."""
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


class ResultShare:
    """The shared result table plus the pending-waiter registry."""

    def __init__(self):
        self._cache: dict[tuple, object] = {}
        self._waiters: dict[tuple, list[Callable[[object], None]]] = {}
        self.hits = 0
        self.joins = 0
        self.publishes = 0

    def get(self, key: tuple) -> object:
        """Cached value for *key*, or UNSET."""
        if key in self._cache:
            self.hits += 1
            return self._cache[key]
        return UNSET

    def is_pending(self, key: tuple) -> bool:
        return key in self._waiters

    def mark_pending(self, key: tuple) -> None:
        if key in self._waiters:
            raise ValueError(f"key already pending: {key!r}")
        self._waiters[key] = []

    def join(self, key: tuple, deliver: Callable[[object], None]) -> None:
        """Register a callback for when the pending query resolves."""
        self._waiters[key].append(deliver)
        self.joins += 1

    def waiter_count(self, key: tuple) -> int:
        return len(self._waiters.get(key, ()))

    def publish(self, key: tuple, value: object, cache: bool = True) -> int:
        """Resolve a pending key: optionally cache, then notify waiters.

        Returns the number of waiters notified.  ``cache=False`` is used
        for failed queries, so later instances retry instead of inheriting
        the failure forever.
        """
        waiters = self._waiters.pop(key, [])
        if cache:
            self._cache[key] = value
            self.publishes += 1
        for deliver in waiters:
            deliver(value)
        return len(waiters)

    def abandon(self, key: tuple) -> list[Callable[[object], None]]:
        """Drop a pending key without resolving it (issuer cancelled).

        Returns the stranded waiters so the caller can reissue the query
        on their behalf.
        """
        return self._waiters.pop(key, [])

    def __repr__(self) -> str:
        return (
            f"<ResultShare cached={len(self._cache)} pending={len(self._waiters)} "
            f"hits={self.hits} joins={self.joins}>"
        )
