"""SQLite run-record persistence (repro.server.store)."""

import enum
import json
import math
import sqlite3

import pytest

from repro import ExecutionConfig, NULL
from repro.nulls import ExceptionValue
from repro.server import RunStore, config_hash, decode_values, encode_values
from repro.values import decode_row, encode_row


def make_record(instance_id="srv-1", status="done", **overrides):
    record = {
        "instance_id": instance_id,
        "schema_name": "pattern-7",
        "status": status,
        "submitted_wall": 100.0,
        "completed_wall": 100.25,
        "source": {"src": 3},
        "values": {"d": 1, "gap": NULL, "pair": (1, 2)},
        "metrics": {"work_units": 12, "queries_launched": 4},
        "config_hash": "deadbeefdeadbeef",
    }
    record.update(overrides)
    return record


class Level(enum.IntEnum):
    HIGH = 2


def value_table() -> dict:
    """One value of every kind the row encodings treat apart."""
    return {
        "null": NULL,
        "true": True,
        "false": False,
        "int": 1,
        "float": 1.0,
        "negative_zero": -0.0,
        "nan": math.nan,
        "inf": math.inf,
        "empty": "",
        "none": None,
        "nested": (1, (NULL, "x"), ()),
        "enum": Level.HIGH,
    }


def insert_v1_row(path, record):
    """Write *record* the way a store before ``row_version`` did: each value
    column as ``json.dumps(encode_values(...), sort_keys=True)``, no version."""
    conn = sqlite3.connect(path)
    conn.execute(
        "INSERT INTO runs (instance_id, schema_name, status, submitted_wall, "
        "started_wall, completed_wall, source_json, values_json, "
        "metrics_json, config_hash) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (
            record["instance_id"], record["schema_name"], record["status"],
            record["submitted_wall"], record.get("started_wall"),
            record["completed_wall"],
            json.dumps(encode_values(record["source"]), sort_keys=True),
            json.dumps(encode_values(record["values"]), sort_keys=True),
            json.dumps(record["metrics"], sort_keys=True),
            record["config_hash"],
        ),
    )
    conn.commit()
    conn.close()


class TestRoundTrip:
    def test_record_then_get(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.record(make_record())
            stored = store.get("srv-1")
        assert stored["instance_id"] == "srv-1"
        assert stored["status"] == "done"
        assert stored["schema_name"] == "pattern-7"
        assert stored["submitted_wall"] == 100.0
        assert stored["completed_wall"] == 100.25
        assert stored["metrics"] == {"work_units": 12, "queries_launched": 4}
        assert stored["config_hash"] == "deadbeefdeadbeef"

    def test_nulls_and_tuples_survive(self, tmp_path):
        """⊥ and tuple values come back exactly via the value encoding."""
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.record(make_record())
            stored = store.get("srv-1")
        decoded = decode_values(stored["values"])
        assert decoded["gap"] is NULL
        assert decoded["pair"] == (1, 2)
        assert decoded["d"] == 1
        assert decode_values(stored["source"]) == {"src": 3}

    def test_missing_values_and_metrics_stay_none(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.record(make_record(status="stalled", values=None, metrics=None))
            stored = store.get("srv-1")
        assert stored["values"] is None
        assert stored["metrics"] is None

    def test_get_unknown_id_is_none(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            assert store.get("srv-404") is None

    def test_record_many_counts_and_replaces(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            written = store.record_many(
                [make_record("srv-1"), make_record("srv-2")]
            )
            assert written == 2
            assert store.record_many([]) == 0
            # Same primary key overwrites (INSERT OR REPLACE).
            store.record(make_record("srv-1", status="failed"))
            assert store.count() == 2
            assert store.get("srv-1")["status"] == "failed"

    def test_instance_ids_sorted(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.record_many([make_record("srv-2"), make_record("srv-1")])
            assert store.instance_ids() == ["srv-1", "srv-2"]


class TestNextSequence:
    def test_empty_store_starts_at_one(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            assert store.next_sequence() == 1

    def test_resumes_past_largest_suffix(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.record_many(
                [make_record("srv-3"), make_record("srv-11"), make_record("srv-2")]
            )
            assert store.next_sequence() == 12

    def test_other_prefixes_ignored(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.record_many([make_record("srv-5"), make_record("job-99")])
            assert store.next_sequence("srv-") == 6
            assert store.next_sequence("job-") == 100

    def test_underscore_in_prefix_is_literal(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.record_many(
                [make_record(i) for i in ("job_a-1", "job_a-2", "job_a-7")]
                + [make_record("jobxa-40")]  # what a LIKE `_` would match
            )
            assert store.next_sequence("job_a-") == 8
            assert store.next_sequence("jobxa-") == 41

    def test_percent_in_prefix_is_literal(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.record_many([make_record("q%-4"), make_record("qq-90")])
            assert store.next_sequence("q%-") == 5
            assert store.next_sequence("q-") == 1

    def test_prefix_case_is_exact(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.record_many([make_record("Job-3"), make_record("job-12")])
            assert store.next_sequence("Job-") == 4
            assert store.next_sequence("job-") == 13
            assert store.next_sequence("JOB-") == 1


class TestLifecycle:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        with RunStore(path) as store:
            store.record(make_record())
        with RunStore(path) as reopened:
            assert reopened.count() == 1
            assert reopened.get("srv-1")["status"] == "done"

    def test_close_is_idempotent_then_use_raises(self, tmp_path):
        store = RunStore(tmp_path / "runs.sqlite")
        store.close()
        store.close()  # second close is a no-op
        with pytest.raises(RuntimeError, match="closed"):
            store.count()
        with pytest.raises(RuntimeError, match="closed"):
            store.record(make_record())

    def test_repr_reflects_state(self, tmp_path):
        store = RunStore(tmp_path / "runs.sqlite")
        assert "open" in repr(store)
        store.close()
        assert "closed" in repr(store)


class TestWalConcurrency:
    def test_on_disk_store_opens_in_wal_mode(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            assert store.journal_mode == "wal"

    def test_external_reader_sees_snapshots_during_write_burst(self, tmp_path):
        """A second connection reads consistent counts while the store
        commits epoch batches — WAL + busy_timeout means no ``database
        is locked`` in either direction."""
        import sqlite3
        import threading

        path = tmp_path / "runs.sqlite"
        epochs, per_epoch = 20, 25
        errors: list[BaseException] = []
        counts: list[int] = []
        done = threading.Event()

        def read_loop():
            reader = sqlite3.connect(path, timeout=5.0)
            try:
                while not done.is_set():
                    (count,) = reader.execute("SELECT COUNT(*) FROM runs").fetchone()
                    counts.append(count)
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)
            finally:
                reader.close()

        with RunStore(path) as store:
            thread = threading.Thread(target=read_loop)
            thread.start()
            try:
                for epoch in range(epochs):
                    store.record_many(
                        make_record(instance_id=f"srv-{epoch * per_epoch + i}")
                        for i in range(per_epoch)
                    )
            finally:
                done.set()
                thread.join(30.0)
            assert not errors, errors
            assert store.count() == epochs * per_epoch
        # Every observed count is a committed-batch boundary: WAL readers
        # never see a half-applied epoch.
        assert all(count % per_epoch == 0 for count in counts), sorted(set(counts))[:5]
        assert counts, "reader thread never got a snapshot"


class TestConfigHash:
    def test_short_stable_hex(self):
        config = ExecutionConfig.from_code("PSE80")
        digest = config_hash(config)
        assert len(digest) == 16
        int(digest, 16)  # hex
        assert digest == config_hash(ExecutionConfig.from_code("PSE80"))

    def test_different_recipes_differ(self):
        plain = config_hash(ExecutionConfig.from_code("PSE80"))
        cached = config_hash(
            ExecutionConfig.from_code("PSE80", query_cache=True)
        )
        other_code = config_hash(ExecutionConfig.from_code("PCE0"))
        assert len({plain, cached, other_code}) == 3

    def test_rich_backend_options_fall_back_to_repr(self):
        # A non-declarative option defeats config_to_dict; the repr
        # fallback must still produce a digest rather than raise.
        config = ExecutionConfig.from_code(
            "PCE0", backend_options={"fn": object()}
        )
        digest = config_hash(config)
        assert len(digest) == 16


class TestValueCodec:
    def test_encode_decode_inverse(self):
        values = {"a": 1, "b": NULL, "c": (2, NULL), "d": "text"}
        assert decode_values(encode_values(values)) == values

    def test_none_passes_through(self):
        assert encode_values(None) is None
        assert decode_values(None) is None


class TestSchemaMigration:
    LEGACY_SCHEMA = """
        CREATE TABLE runs (
            instance_id TEXT PRIMARY KEY,
            schema_name TEXT NOT NULL,
            status TEXT NOT NULL,
            submitted_wall REAL NOT NULL,
            completed_wall REAL,
            source_json TEXT NOT NULL,
            values_json TEXT,
            metrics_json TEXT,
            config_hash TEXT NOT NULL
        )
    """

    def _make_legacy_db(self, path):
        """A database from before the started_wall column existed."""
        import json
        import sqlite3

        conn = sqlite3.connect(path)
        conn.execute(self.LEGACY_SCHEMA)
        conn.execute(
            "INSERT INTO runs VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            ("srv-legacy", "pattern-7", "done", 100.0, 100.25,
             json.dumps(encode_values({"src": 3})), None, None,
             "deadbeefdeadbeef"),
        )
        conn.commit()
        conn.close()

    def _row_versions(self, path):
        conn = sqlite3.connect(path)
        versions = dict(conn.execute("SELECT instance_id, row_version FROM runs"))
        conn.close()
        return versions

    def test_legacy_db_gains_started_wall(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        self._make_legacy_db(path)
        with RunStore(path) as store:
            stored = store.get("srv-legacy")
            assert stored["status"] == "done"
            assert stored["started_wall"] is None
            assert stored["source"] == {"src": 3}
            # New writes carry the column; old rows stay NULL-tolerant.
            store.record(make_record("srv-new", started_wall=100.1))
            assert store.get("srv-new")["started_wall"] == 100.1
            assert store.get("srv-legacy")["started_wall"] is None
            assert store.count() == 2
        # The legacy row stays version 1 (NULL); the new one is version 2.
        assert self._row_versions(path) == {"srv-legacy": None, "srv-new": 2}

    def test_legacy_db_gains_error(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        self._make_legacy_db(path)
        with RunStore(path) as store:
            assert store.get("srv-legacy")["error"] is None
            store.record(make_record("srv-failed", status="failed", error="ExecutionError: x"))
            assert store.get("srv-failed")["error"] == "ExecutionError: x"
            assert store.get("srv-failed")["status"] == "failed"

    def test_migration_preserves_wal_mode(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        self._make_legacy_db(path)
        with RunStore(path) as store:
            (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
            assert mode == "wal"

    def test_migration_is_idempotent_across_reopens(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        self._make_legacy_db(path)
        for reopen in range(3):
            with RunStore(path) as store:
                assert store.get("srv-legacy")["started_wall"] is None
                assert store.get("srv-legacy")["source"] == {"src": 3}
                columns = [
                    row["name"] for row in store._conn.execute("PRAGMA table_info(runs)")
                ]
                store.record(make_record(f"srv-{reopen}"))
            assert columns.count("started_wall") == columns.count("row_version") == 1
        assert self._row_versions(path) == {
            "srv-legacy": None, "srv-0": 2, "srv-1": 2, "srv-2": 2,
        }


class TestTimestampsAndLatencies:
    def test_started_wall_round_trips(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.record(make_record(started_wall=100.05))
            stored = store.get("srv-1")
        assert stored["started_wall"] == 100.05
        assert stored["submitted_wall"] <= stored["started_wall"]
        assert stored["started_wall"] <= stored["completed_wall"]

    def test_absent_started_wall_defaults_to_none(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.record(make_record())
            assert store.get("srv-1")["started_wall"] is None

    def test_latencies_are_completed_minus_submitted(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.record_many(
                [
                    make_record("srv-1", completed_wall=100.25),
                    make_record("srv-2", completed_wall=100.5, started_wall=100.1),
                    make_record("srv-3", status="stalled", completed_wall=None),
                ]
            )
            latencies = store.latencies()
        # Incomplete rows are excluded; NULL started_wall rows still count.
        assert sorted(latencies) == [pytest.approx(0.25), pytest.approx(0.5)]

    def test_latencies_respect_limit_and_recency(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.record_many(
                [
                    make_record(f"srv-{i}", completed_wall=100.0 + i)
                    for i in range(1, 6)
                ]
            )
            newest_two = store.latencies(limit=2)
        assert newest_two == [pytest.approx(5.0), pytest.approx(4.0)]


class TestEncodingIsUnchanged:
    """The row and value encodings are pinned as equalities with the
    general rules they short-cut, so a faster encoder cannot move a byte."""

    def test_encode_values_equals_the_per_value_rule(self):
        from repro.values import encode

        table = value_table()
        encoded = encode_values(table)
        expected = {name: encode(value) for name, value in table.items()}
        assert list(encoded) == list(expected)
        for name, value in expected.items():
            assert repr(encoded[name]) == repr(value), name
            assert type(encoded[name]) is type(value), name

    def test_unserializable_value_still_raises(self):
        from repro.core.serialize import SerializationError

        with pytest.raises(SerializationError, match="not serializable"):
            encode_values({"a": 1, "bad": object()})

    def test_stored_columns_equal_json_dumps_sort_keys(self, tmp_path):
        record = make_record(
            values={"z": NULL, "a": (1.5, NULL), "m": -0.0, "n": math.inf},
            metrics={"work_units": 12, "finish_time": None, "instance_id": "srv-1"},
        )
        path = tmp_path / "runs.sqlite"
        with RunStore(path) as store:
            store.record(record)
        conn = sqlite3.connect(path)
        row = conn.execute(
            "SELECT source_json, values_json, metrics_json FROM runs"
        ).fetchone()
        conn.close()
        assert row == (
            json.dumps(encode_row(record["source"]), sort_keys=True),
            json.dumps(encode_row(record["values"]), sort_keys=True),
            json.dumps(record["metrics"], sort_keys=True),
        )

    def test_rows_written_the_old_way_read_back_identically(self, tmp_path):
        """A row inserted with ``json.dumps(encode_values(...),
        sort_keys=True)`` per column — the version-1 encoding, before the
        shared encoder — and the same record written by ``record_many``
        read back equal through get()."""
        path = tmp_path / "runs.sqlite"
        RunStore(path).close()  # create the current schema
        old = make_record("srv-old", started_wall=100.1)
        insert_v1_row(path, old)
        with RunStore(path) as store:
            store.record(dict(old, instance_id="srv-new"))
            from_old = store.get("srv-old")
            from_new = store.get("srv-new")
        assert dict(from_old, instance_id="srv-new") == from_new
        assert decode_values(from_old["values"]) == {"d": 1, "gap": NULL, "pair": (1, 2)}


class TestRowFormatV2:
    """Version-2 rows keep top-level ⊥ as one sorted name list and read
    back exactly as version-1 rows of the same record do."""

    def table(self):
        return dict(value_table(), failed=ExceptionValue("boom"), also_null=NULL)

    def test_value_table_round_trips_like_v1(self, tmp_path):
        table = self.table()
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.record_many([make_record(values=table)])
            stored = store.get("srv-1")
        v1 = json.loads(json.dumps(encode_values(table), sort_keys=True))
        assert json.dumps(stored["values"]) == json.dumps(v1)
        decoded, expected = decode_values(stored["values"]), decode_values(v1)
        assert list(decoded) == list(expected) == sorted(table)
        for name, value in expected.items():
            assert repr(decoded[name]) == repr(value), name
            assert type(decoded[name]) is type(value), name
        assert decoded["null"] is decoded["also_null"] is NULL
        assert decoded["failed"] == ExceptionValue("boom")

    def test_get_of_v1_and_v2_rows_are_equal_dicts(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        table = {k: v for k, v in self.table().items() if k != "nan"}
        record = make_record("srv-v1", values=table, source={"s": NULL, "a": 2})
        with RunStore(path) as store:
            insert_v1_row(path, record)
            store.record(dict(record, instance_id="srv-v2"))
            from_v1, from_v2 = store.get("srv-v1"), store.get("srv-v2")
        assert dict(from_v1, instance_id="srv-v2") == from_v2
        for column in ("source", "values"):
            assert list(from_v1[column]) == list(from_v2[column]), column
        assert decode_values(from_v2["values"]) == table
        assert decode_values(from_v2["source"]) == {"s": NULL, "a": 2}

    def test_nulls_leave_the_value_dict(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        values = {"z": NULL, "b": 1, "a": NULL, "t": (NULL, 2)}
        with RunStore(path) as store:
            store.record(make_record(values=values))
        conn = sqlite3.connect(path)
        (text, version), = conn.execute("SELECT values_json, row_version FROM runs")
        conn.close()
        assert version == 2
        assert json.loads(text) == [
            ["a", "z"], {"b": 1, "t": {"$seq": [{"$null": True}, 2]}},
        ]


class TestRowCodec:
    def test_decode_row_expands_to_the_sorted_v1_dict(self):
        values = dict(value_table(), **{"$null": NULL, "": 0, "[]": NULL})
        del values["nan"]
        row = json.loads(json.dumps(encode_row(values), sort_keys=True))
        v1 = json.loads(json.dumps(encode_values(values), sort_keys=True))
        assert decode_row(row) == v1
        assert list(decode_row(row)) == list(v1)
        assert row[0] == ["$null", "[]", "null"]

    def test_empty_and_null_free_mappings(self):
        assert encode_row({}) == [[], {}]
        assert decode_row([[], {}]) == {}
        assert encode_row({"a": 1, "b": (NULL,)}) == [[], {"a": 1, "b": {"$seq": [{"$null": True}]}}]

    def test_each_null_decodes_to_its_own_dict(self):
        decoded = decode_row([["a", "b"], {}])
        assert decoded == {"a": {"$null": True}, "b": {"$null": True}}
        assert decoded["a"] is not decoded["b"]

    def test_unserializable_value_still_raises(self):
        from repro.core.serialize import SerializationError

        with pytest.raises(SerializationError, match="not serializable"):
            encode_row({"a": NULL, "bad": object()})
