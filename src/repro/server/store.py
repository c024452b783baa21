"""SQLite persistence for the decision-service daemon.

A :class:`RunStore` keeps one row per finished decision-flow instance —
the source valuation, the decision (stable attribute) values, the final
metrics snapshot, wall-clock timestamps, and the hash of the
:class:`~repro.api.config.ExecutionConfig` that produced it — so a
restarted daemon answers ``GET /instances/<id>`` for work completed
before the restart.

Everything is stdlib ``sqlite3``.  One connection is shared across the
daemon's threads behind a lock (the drain loop writes whole epochs in
one transaction; HTTP handler threads only read), which keeps the store
safe under ``ThreadingHTTPServer`` without per-thread connections.
On-disk stores open in WAL journal mode with a busy timeout, so an
*external* connection — another process inspecting the store, or a
concurrent reader in tests — sees consistent snapshots instead of
``database is locked`` errors while an epoch commit is in flight.

:meth:`RunStore.record_many` takes raw values and is the one place a row
is encoded: ``source_json``, ``values_json`` and ``metrics_json`` hold the
bytes ``json.dumps(..., sort_keys=True)`` gives.  A ``row_version`` 2 value
column holds :func:`repro.values.encode_row`'s form (the top-level ⊥ names
as one sorted list); a NULL version marks a version-1 row, written as
:func:`repro.values.encode_values` gives.  :meth:`RunStore.get` reads both
as the ``encode_values`` dict with sorted keys, which
:func:`repro.values.decode_values` turns back into the engine's values.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
from pathlib import Path
from typing import Iterable, Mapping

from repro.core.serialize import SerializationError, config_to_dict
from repro.values import decode_row, encode_row

__all__ = ["RunStore", "config_hash"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    instance_id    TEXT PRIMARY KEY,
    schema_name    TEXT NOT NULL,
    status         TEXT NOT NULL,
    submitted_wall REAL NOT NULL,
    started_wall   REAL,
    completed_wall REAL,
    source_json    TEXT NOT NULL,
    values_json    TEXT,
    metrics_json   TEXT,
    config_hash    TEXT NOT NULL,
    row_version    INTEGER
);
"""

#: Columns added after the first released schema, applied by ALTER TABLE
#: when an existing store predates them.  Additions only — SQLite cannot
#: drop or retype columns in place, and additive migration keeps old
#: daemons able to open new stores (they select by name, not position),
#: though they read a version-2 value column in its row form.
_MIGRATIONS = (("started_wall", "REAL"), ("row_version", "INTEGER"))

ROW_VERSION = 2


def config_hash(config) -> str:
    """A short stable digest of an ExecutionConfig, for run records.

    Serializable configs hash their canonical plain-dict encoding;
    configs carrying rich (non-declarative) backend options fall back to
    ``repr``, which is stable within a process line but not guaranteed
    across releases — good enough to flag "this record was produced
    under a different recipe".
    """
    try:
        payload = json.dumps(config_to_dict(config), sort_keys=True)
    except SerializationError:
        payload = repr(config)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


#: The one row encoder: the very encoder ``json.dumps(obj, sort_keys=True)``
#: builds per call, built once.
_encode_json = json.JSONEncoder(sort_keys=True).encode


def _values_json(values: Mapping[str, object] | None) -> str | None:
    return None if values is None else _encode_json(encode_row(values))


def _values_from(text: str | None, version: int | None) -> dict | None:
    data = None if text is None else json.loads(text)
    return data if data is None or version is None else decode_row(data)


class RunStore:
    """Durable run records keyed by instance id.

    ``path`` is a filesystem path (created on first open) or
    ``":memory:"`` for tests.  All methods are thread-safe; writes are
    batched per call and committed immediately, so a graceful shutdown
    only needs :meth:`close`.
    """

    #: How long a connection waits on a competing writer before raising
    #: ``sqlite3.OperationalError: database is locked`` (milliseconds).
    BUSY_TIMEOUT_MS = 5_000

    def __init__(self, path: str | Path):
        self.path = str(path)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            # WAL lets an external reader (another process tailing the
            # store, or a second daemon pointed at the same file by
            # mistake) see consistent snapshots while the drain loop is
            # mid-commit; in-memory stores only support the default
            # journal, so take whatever mode sqlite grants.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(f"PRAGMA busy_timeout={self.BUSY_TIMEOUT_MS}")
            self._conn.execute(_SCHEMA)
            present = {
                row["name"]
                for row in self._conn.execute("PRAGMA table_info(runs)")
            }
            for column, column_type in _MIGRATIONS:
                if column not in present:
                    self._conn.execute(
                        f"ALTER TABLE runs ADD COLUMN {column} {column_type}"
                    )
            self._conn.commit()
        self._closed = False

    @property
    def journal_mode(self) -> str:
        """The journal mode sqlite actually granted (``wal`` on disk)."""
        with self._lock:
            self._ensure_open()
            (mode,) = self._conn.execute("PRAGMA journal_mode").fetchone()
        return str(mode).lower()

    # -- writing --------------------------------------------------------------

    def record_many(self, records: Iterable[Mapping[str, object]]) -> int:
        """Persist finished run records (one epoch's completions) atomically.

        Each record is a plain dict with keys ``instance_id``,
        ``schema_name``, ``status``, ``submitted_wall``, ``started_wall``
        (optional — legacy writers omit it), ``completed_wall``,
        ``source`` (raw values), ``values`` (raw values or None),
        ``metrics`` (plain dict or None), and ``config_hash``; it encodes
        the values itself.  Returns the number of rows written.
        """
        rows = [
            (
                record["instance_id"],
                record["schema_name"],
                record["status"],
                record["submitted_wall"],
                record.get("started_wall"),
                record.get("completed_wall"),
                _values_json(record.get("source") or {}),
                _values_json(record.get("values")),
                None
                if record.get("metrics") is None
                else _encode_json(record["metrics"]),
                record["config_hash"],
                ROW_VERSION,
            )
            for record in records
        ]
        if not rows:
            return 0
        with self._lock:
            self._ensure_open()
            # Explicit column list: migrated stores carry started_wall at
            # a different ordinal position than freshly created ones.
            self._conn.executemany(
                "INSERT OR REPLACE INTO runs ("
                "instance_id, schema_name, status, submitted_wall, "
                "started_wall, completed_wall, source_json, values_json, "
                "metrics_json, config_hash, row_version) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
            self._conn.commit()
        return len(rows)

    def record(self, record: Mapping[str, object]) -> None:
        """Persist one finished run record."""
        self.record_many([record])

    # -- reading --------------------------------------------------------------

    def get(self, instance_id: str) -> dict | None:
        """The stored record for *instance_id*, or None.

        ``source``/``values`` come back as
        :func:`~repro.values.encode_values` writes them, keys sorted, from
        a row of either version, and ``metrics`` as the stored plain dict.
        """
        with self._lock:
            self._ensure_open()
            row = self._conn.execute(
                "SELECT * FROM runs WHERE instance_id = ?", (instance_id,)
            ).fetchone()
        if row is None:
            return None
        return {
            "instance_id": row["instance_id"],
            "schema_name": row["schema_name"],
            "status": row["status"],
            "submitted_wall": row["submitted_wall"],
            "started_wall": row["started_wall"],
            "completed_wall": row["completed_wall"],
            "source": _values_from(row["source_json"], row["row_version"]),
            "values": _values_from(row["values_json"], row["row_version"]),
            "metrics": None if row["metrics_json"] is None else json.loads(row["metrics_json"]),
            "config_hash": row["config_hash"],
        }

    def count(self) -> int:
        """Stored run records."""
        with self._lock:
            self._ensure_open()
            (count,) = self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(count)

    def instance_ids(self) -> list[str]:
        """Every stored instance id (insertion-order agnostic, sorted)."""
        with self._lock:
            self._ensure_open()
            rows = self._conn.execute(
                "SELECT instance_id FROM runs ORDER BY instance_id"
            ).fetchall()
        return [row["instance_id"] for row in rows]

    def latencies(self, limit: int = 1000) -> list[float]:
        """Submit→decide wall latencies of the most recent completed runs.

        Used to seed the daemon's decision-latency histogram across a
        restart, so ``/metrics`` percentiles do not start cold.  Rows
        written by pre-migration daemons (NULL ``started_wall``) still
        qualify — latency only needs the submit and complete stamps.
        """
        with self._lock:
            self._ensure_open()
            rows = self._conn.execute(
                "SELECT completed_wall - submitted_wall AS latency FROM runs "
                "WHERE completed_wall IS NOT NULL "
                "ORDER BY completed_wall DESC LIMIT ?",
                (int(limit),),
            ).fetchall()
        return [float(row["latency"]) for row in rows]

    def next_sequence(self, prefix: str = "srv-") -> int:
        """One past the largest numeric suffix among ``<prefix><n>`` ids.

        A restarted daemon resumes its id sequence from here so fresh
        submissions can never collide with persisted records.  The
        prefix is matched exactly — case and all, ``_`` and ``%`` being
        ordinary characters — so no other prefix's ids are counted and
        none of this one's are missed.
        """
        with self._lock:
            self._ensure_open()
            (largest,) = self._conn.execute(
                "SELECT MAX(CAST(substr(instance_id, ?) AS INTEGER)) "
                "FROM runs WHERE substr(instance_id, 1, ?) = ?",
                (len(prefix) + 1, len(prefix), prefix),  # substr() is 1-indexed
            ).fetchone()
        return int(largest or 0) + 1

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Commit and close; further use raises."""
        with self._lock:
            if self._closed:
                return
            self._conn.commit()
            self._conn.close()
            self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"RunStore {self.path!r} is closed")

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<RunStore {self.path!r} {state}>"
