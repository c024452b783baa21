"""The HTTP/JSON transport in front of the daemon (repro.server.http).

Port-free and deterministic: every server binds port 0 (the OS hands out
an ephemeral port) and is talked to over the loopback with stdlib
``http.client``.  Waits are event-driven (``wait_idle``), never sleeps.
"""

import http.client
import json
import socket
import statistics
import threading
import time

import pytest

from repro import ExecutionConfig, PatternParams, generate_pattern
from repro.core.metrics import MetricsSummary
from repro.server import ServerDaemon, start_http_server

WAIT = 30.0


@pytest.fixture(scope="module")
def pattern():
    return generate_pattern(PatternParams(nb_nodes=16, nb_rows=3, pct_enabled=50, seed=3))


@pytest.fixture
def stack(pattern):
    """(daemon, server) on an ephemeral port, torn down in order."""
    daemon = ServerDaemon(
        pattern.schema, "PSE80", default_values=pattern.source_values
    )
    server, thread = start_http_server(daemon)
    yield daemon, server
    server.shutdown()
    server.server_close()
    thread.join(WAIT)
    daemon.shutdown()


def request(server, method, path, body=None):
    """One request → (status, headers, parsed-JSON body)."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=WAIT)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), json.loads(raw)
    finally:
        conn.close()


def submit_and_wait(daemon, server, body):
    status, _, payload = request(server, "POST", "/instances", body)
    assert status == 202, payload
    assert daemon.wait_idle(WAIT)
    return payload["accepted"]


class TestHealthz:
    def test_ok_with_queue_depth(self, stack):
        daemon, server = stack
        status, _, payload = request(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["queue_depth"] == 0
        assert payload["uptime"] >= 0


class TestInstances:
    def test_empty_body_uses_default_values(self, stack):
        daemon, server = stack
        (instance_id,) = submit_and_wait(daemon, server, {})
        status, _, payload = request(server, "GET", f"/instances/{instance_id}")
        assert status == 200
        assert payload["status"] == "done"
        assert payload["origin"] == "live"
        assert payload["values"]
        assert payload["latency"] >= 0

    def test_explicit_values_accepted(self, stack, pattern):
        daemon, server = stack
        (instance_id,) = submit_and_wait(
            daemon, server, {"values": dict(pattern.source_values)}
        )
        _, _, payload = request(server, "GET", f"/instances/{instance_id}")
        assert payload["status"] == "done"

    def test_batch_returns_one_id_per_entry(self, stack, pattern):
        daemon, server = stack
        ids = submit_and_wait(
            daemon,
            server,
            {"batch": [None, {}, {"values": dict(pattern.source_values)}]},
        )
        assert len(set(ids)) == 3
        for instance_id in ids:
            _, _, payload = request(server, "GET", f"/instances/{instance_id}")
            assert payload["status"] == "done"

    def test_unknown_id_is_404_json(self, stack):
        _, server = stack
        status, _, payload = request(server, "GET", "/instances/srv-404")
        assert status == 404
        assert payload["error"]["id"] == "srv-404"

    def test_unknown_endpoint_is_404(self, stack):
        _, server = stack
        for method, path in (("GET", "/nope"), ("POST", "/nope")):
            status, _, payload = request(server, method, path)
            assert status == 404
            assert "no such endpoint" in payload["error"]["message"]


class TestBadRequests:
    def test_malformed_json_is_400(self, stack):
        _, server = stack
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=WAIT)
        try:
            conn.request("POST", "/instances", body="{not json")
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert "bad request" in payload["error"]["message"]
        finally:
            conn.close()

    def test_non_object_body_is_400(self, stack):
        _, server = stack
        status, _, _ = request(server, "POST", "/instances", body=[1, 2])
        assert status == 400

    def test_empty_batch_is_400(self, stack):
        _, server = stack
        status, _, payload = request(server, "POST", "/instances", {"batch": []})
        assert status == 400
        assert "non-empty" in payload["error"]["message"]

    def test_scalar_values_is_400(self, stack):
        _, server = stack
        status, _, _ = request(server, "POST", "/instances", {"values": 7})
        assert status == 400


class TestKeepAlive:
    def test_reused_connection_round_trips_without_the_delayed_ack_stall(
        self, stack
    ):
        """Head and body in two sends cost a reused connection the kernel's
        fixed 40 ms delayed ACK per request, whatever the host's speed."""
        daemon, server = stack
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=WAIT)
        try:
            def round_trip(method, path, body=None):
                started = time.perf_counter()
                conn.request(method, path, body=body)
                response = conn.getresponse()
                payload = json.loads(response.read())
                return response.status, payload, time.perf_counter() - started

            posts = [round_trip("POST", "/instances", body="{}") for _ in range(50)]
            assert all(status == 202 for status, _, _ in posts)
            assert daemon.wait_idle(WAIT)
            ids = [payload["accepted"][0] for _, payload, _ in posts]
            gets = [round_trip("GET", f"/instances/{i}") for i in ids]
            assert all(
                status == 200 and payload["status"] == "done"
                for status, payload, _ in gets
            )
        finally:
            conn.close()
        assert statistics.median(rtt for _, _, rtt in posts) < 0.020
        assert statistics.median(rtt for _, _, rtt in gets) < 0.020

    def test_serving_socket_has_nodelay_set(self, stack):
        _, server = stack
        accepted = []
        process_request = server.process_request
        server.process_request = lambda request, address: (
            accepted.append(request),
            process_request(request, address),
        )
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=WAIT)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
            # Keep-alive: the handler still serves on the accepted socket.
            (serving,) = accepted
            assert serving.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            conn.close()


    def test_headerless_http09_request_still_gets_its_body(self, stack):
        """HTTP/0.9 has no response head; the one-send path must cope."""
        _, server = stack
        with socket.create_connection(("127.0.0.1", server.port), timeout=WAIT) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        assert json.loads(raw)["status"] == "ok"


class TestRefusedBodies:
    """A body refused unread must not be parsed as the next request."""

    @pytest.mark.parametrize(
        "framing, sent_body",
        [
            (b"Content-Length: -1", b""),
            (b"Content-Length: 67108864", b'{"values": {}}'),
            (b"Content-Length: soon", b"{}"),
            (b"Transfer-Encoding: chunked", b"2\r\n{}\r\n0\r\n\r\n"),
        ],
        ids=["negative", "over-limit", "malformed", "chunked"],
    )
    def test_unreadable_body_is_a_json_400_and_closes(
        self, stack, framing, sent_body
    ):
        _, server = stack
        with socket.create_connection(("127.0.0.1", server.port), timeout=WAIT) as sock:
            sock.sendall(
                b"POST /instances HTTP/1.1\r\nHost: test\r\n"
                + framing + b"\r\n\r\n" + sent_body
                + b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
            )
            raw = b""
            while chunk := sock.recv(65536):  # until the server hangs up
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        # Exactly one response: the bytes after the refused head were
        # neither read as a body nor answered as a request.
        assert raw.count(b"HTTP/1.1 ") == 1
        assert "bad request" in json.loads(body)["error"]["message"]
        status, _, payload = request(server, "GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_unread_body_on_an_unknown_endpoint_closes_too(self, stack):
        _, server = stack
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=WAIT)
        try:
            conn.request("POST", "/nope", body="{}")
            response = conn.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            assert "no such endpoint" in json.loads(response.read())["error"]["message"]
        finally:
            conn.close()


class TestBackpressure:
    def test_429_with_retry_after_when_queue_full(self, pattern):
        daemon = ServerDaemon(
            pattern.schema,
            "PSE80",
            default_values=pattern.source_values,
            high_water=4,
        )
        server, thread = start_http_server(daemon)
        try:
            # Stall the drain loop so the queue genuinely fills.
            daemon._take_batch = lambda: []
            import time as _time

            _time.sleep(0.05)
            status, _, _ = request(
                server, "POST", "/instances", {"batch": [None] * 4}
            )
            assert status == 202
            status, headers, payload = request(
                server, "POST", "/instances", {"batch": [None] * 2}
            )
            assert status == 429
            assert payload["error"]["message"] == "queue full"
            assert payload["error"]["rejected"] == 2
            assert payload["retry_after"] > 0
            assert int(headers["Retry-After"]) >= 1
        finally:
            del daemon.__dict__["_take_batch"]
            daemon._wake.set()
            server.shutdown()
            server.server_close()
            thread.join(WAIT)
            assert daemon.shutdown()

    def test_503_while_shutting_down(self, pattern):
        daemon = ServerDaemon(
            pattern.schema, "PSE80", default_values=pattern.source_values
        )
        server, thread = start_http_server(daemon)
        try:
            assert daemon.shutdown()
            status, _, payload = request(server, "POST", "/instances", {})
            assert status == 503
            assert payload["error"]["message"] == "shutting down"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(WAIT)


class TestMetricsEndpoint:
    def test_metrics_json_round_trips_to_the_summary(self, stack):
        """summary → /metrics JSON → MetricsSummary equals the original."""
        daemon, server = stack
        submit_and_wait(daemon, server, {"batch": [None] * 5})
        status, _, payload = request(server, "GET", "/metrics")
        assert status == 200
        parsed = MetricsSummary.from_dict(payload["summary"])
        assert parsed == daemon.summary()
        assert parsed.count == 5
        assert payload["server"]["completed"] == 5
        assert payload["config"]["hash"] == daemon.config_digest

    def test_sharded_metrics_sum_query_cache_counters(self, pattern):
        """Across shards the query_cache_* fields are fleet sums."""
        config = ExecutionConfig.from_code("PSE80", shards=2, query_cache=True)
        daemon = ServerDaemon(
            pattern.schema, config, default_values=pattern.source_values
        )
        server, thread = start_http_server(daemon)
        try:
            submit_and_wait(daemon, server, {"batch": [None] * 8})
            _, _, payload = request(server, "GET", "/metrics")
            parsed = MetricsSummary.from_dict(payload["summary"])
            assert parsed == daemon.summary()
            assert parsed.count == 8
            # The sharded facade sums (never averages) the cache counters;
            # the wire value must equal the sum over the shard services.
            shard_summaries = list(daemon.service._executor.shard_summaries())
            for field in (
                "query_cache_hits",
                "query_cache_misses",
                "query_cache_coalesced",
            ):
                total = sum(getattr(s, field) for s in shard_summaries)
                assert getattr(parsed, field) == total, field
            assert parsed.query_cache_misses > 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(WAIT)
            daemon.shutdown()


class TestEventsEndpoint:
    def test_replay_streams_ndjson_with_typed_events(self, stack):
        daemon, server = stack
        ids = submit_and_wait(daemon, server, {"batch": [None] * 2})
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=WAIT)
        try:
            conn.request("GET", "/events?replay=1&limit=2")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            lines = response.read().decode().strip().splitlines()
        finally:
            conn.close()
        assert len(lines) == 2
        events = [json.loads(line) for line in lines]
        assert all(
            e["type"] == "instance_complete" and e["instance_id"] in ids
            for e in events
        )

    def test_bad_limit_is_400(self, stack):
        _, server = stack
        status, _, _ = request(server, "GET", "/events?limit=soon")
        assert status == 400

    def test_headers_arrive_before_any_event(self, stack):
        """The stream's head is sent on its own, not held for a body."""
        daemon, server = stack
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5.0)
        try:
            conn.request("GET", "/events")
            response = conn.getresponse()  # times out if the head is held
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            assert not daemon._history  # nothing was published
        finally:
            conn.close()


class TestRestart:
    def test_old_handles_resolve_after_restart(self, pattern, tmp_path):
        db = str(tmp_path / "runs.sqlite")

        daemon = ServerDaemon(
            pattern.schema, "PSE80", db=db, default_values=pattern.source_values
        )
        server, thread = start_http_server(daemon)
        try:
            ids = submit_and_wait(daemon, server, {"batch": [None] * 4})
        finally:
            server.shutdown()
            server.server_close()
            thread.join(WAIT)
            assert daemon.shutdown()

        restarted = ServerDaemon(
            pattern.schema, "PSE80", db=db, default_values=pattern.source_values
        )
        server2, thread2 = start_http_server(restarted)
        try:
            for instance_id in ids:
                status, _, payload = request(
                    server2, "GET", f"/instances/{instance_id}"
                )
                assert status == 200
                assert payload["status"] == "done"
                assert payload["origin"] == "store"
        finally:
            server2.shutdown()
            server2.server_close()
            thread2.join(WAIT)
            restarted.shutdown()

    #: The runs table as it was before the ``row_version`` column.
    SCHEMA_BEFORE_ROW_VERSION = """
        CREATE TABLE runs (
            instance_id TEXT PRIMARY KEY, schema_name TEXT NOT NULL,
            status TEXT NOT NULL, submitted_wall REAL NOT NULL,
            started_wall REAL, completed_wall REAL, source_json TEXT NOT NULL,
            values_json TEXT, metrics_json TEXT, config_hash TEXT NOT NULL
        )
    """

    def test_store_from_before_row_version_serves_mixed(self, pattern, tmp_path):
        """A store written before ``row_version`` — its schema, every value
        column as ``json.dumps(encode_values(...), sort_keys=True)`` —
        opens under the daemon: each old id answers GET with the payload
        it gave before, new rows are version 2, and a restart over the
        mixed file resolves both kinds."""
        import sqlite3

        # The old rows: a store-less daemon's records, written the old way.
        live = ServerDaemon(pattern.schema, "PSE80", default_values=pattern.source_values)
        (src,) = pattern.source_values
        old_ids = live.submit_many([None, {src: pattern.source_values[src] + 1}]).accepted
        assert live.wait_idle(WAIT)
        payloads = [live.get(instance_id) for instance_id in old_ids]
        live.shutdown()
        db = tmp_path / "runs.sqlite"
        conn = sqlite3.connect(db)
        conn.execute(self.SCHEMA_BEFORE_ROW_VERSION)
        expected = {}
        for p in payloads:
            columns = [json.dumps(p[k], sort_keys=True) for k in ("source", "values", "metrics")]
            conn.execute(
                "INSERT INTO runs VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (p["id"], p["schema"], p["status"], p["submitted_at"],
                 p["started_at"], p["completed_at"], *columns, p["config_hash"]),
            )
            source, values, metrics = map(json.loads, columns)
            expected[p["id"]] = dict(
                p, source=source, values=values, metrics=metrics, origin="store"
            )
        conn.commit()
        conn.close()

        def served(batch, known=()):
            daemon = ServerDaemon(
                pattern.schema, "PSE80", db=str(db), default_values=pattern.source_values
            )
            server, thread = start_http_server(daemon)
            try:
                fresh = submit_and_wait(daemon, server, {"batch": [None] * batch})
                return fresh, {
                    instance_id: request(server, "GET", f"/instances/{instance_id}")[2]
                    for instance_id in [*expected, *known, *fresh]
                }
            finally:
                server.shutdown()
                server.server_close()
                thread.join(WAIT)
                assert daemon.shutdown()

        new_ids, first = served(2)
        restarted_ids, second = served(1, new_ids)
        for instance_id, want in expected.items():
            for got in (first[instance_id], second[instance_id]):
                assert got == want
                assert list(got["values"]) == list(want["values"])
        for instance_id in new_ids:
            assert second[instance_id] == first[instance_id]
            assert first[instance_id]["values"] == expected[old_ids[0]]["values"]
            assert list(first[instance_id]["values"]) == list(expected[old_ids[0]]["values"])
        conn = sqlite3.connect(db)
        versions = dict(conn.execute("SELECT instance_id, row_version FROM runs"))
        conn.close()
        assert versions == {
            **dict.fromkeys(old_ids), **dict.fromkeys([*new_ids, *restarted_ids], 2)
        }


class TestHealthzLiveness:
    def test_wedged_drain_loop_is_503(self, pattern):
        daemon = ServerDaemon(
            pattern.schema,
            "PSE80",
            default_values=pattern.source_values,
            stall_after=0.05,
        )
        server, thread = start_http_server(daemon)
        gate = threading.Event()
        try:
            status, _, payload = request(server, "GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"
            # Wedge the loop mid-iteration: it blocks inside _take_batch
            # and stops heartbeating while admitted work queues up.
            daemon._take_batch = lambda: ([], gate.wait(WAIT))[0]
            daemon._wake.set()
            time.sleep(0.2)
            request(server, "POST", "/instances", {})
            status, _, payload = request(server, "GET", "/healthz")
            assert status == 503
            assert payload["status"] == "wedged"
            assert payload["ok"] is False
            assert payload["drain_alive"] is True
        finally:
            gate.set()
            del daemon.__dict__["_take_batch"]
            daemon._wake.set()
            server.shutdown()
            server.server_close()
            thread.join(WAIT)
            daemon.shutdown()


class TestPrometheusEndpoint:
    def test_text_exposition_with_stage_histograms(self, stack):
        daemon, server = stack
        submit_and_wait(daemon, server, {"batch": [None] * 2})
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=WAIT)
        try:
            conn.request("GET", "/metrics?format=prometheus")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/plain; version=0.0.4"
            )
            body = response.read().decode()
        finally:
            conn.close()
        lines = body.splitlines()
        # Valid exposition: every non-comment line is "name{labels} value".
        for line in lines:
            assert line
            if line.startswith("#"):
                assert line.startswith("# TYPE ")
                continue
            name_part, _, value_part = line.rpartition(" ")
            assert name_part and float(value_part) is not None
        assert "# TYPE repro_stage_seconds histogram" in lines
        assert any(
            line.startswith("repro_stage_seconds_bucket")
            and 'stage="decision"' in line
            and 'le="+Inf"' in line
            for line in lines
        )
        assert "repro_server_completed 2" in lines

    def test_unknown_format_is_400(self, stack):
        _, server = stack
        status, _, payload = request(server, "GET", "/metrics?format=xml")
        assert status == 400
        assert payload["error"]["format"] == "xml"


class TestTraceEndpoint:
    def test_disarmed_trace_is_valid_and_unarmed(self, stack):
        daemon, server = stack
        submit_and_wait(daemon, server, {})
        status, _, payload = request(server, "GET", "/trace")
        assert status == 200
        assert payload["metadata"]["armed"] is False
        assert all(e["ph"] == "M" for e in payload["traceEvents"])

    def test_armed_trace_carries_daemon_and_engine_spans(self, pattern):
        config = ExecutionConfig.from_code("PSE80", observe=True)
        daemon = ServerDaemon(
            pattern.schema, config, default_values=pattern.source_values
        )
        server, thread = start_http_server(daemon)
        try:
            submit_and_wait(daemon, server, {"batch": [None] * 2})
            status, _, payload = request(server, "GET", "/trace")
            assert status == 200
            assert payload["metadata"]["armed"] is True
            names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
            assert "daemon.epoch" in names
            assert "engine.round" in names
        finally:
            server.shutdown()
            server.server_close()
            thread.join(WAIT)
            daemon.shutdown()


class TestEventStreamUnderLoad:
    def test_concurrent_submissions_reach_a_streaming_client(self, stack):
        """An /events client receives every completion while submissions
        arrive concurrently from multiple threads."""
        daemon, server = stack
        expected = 9
        received: list[dict] = []

        def stream():
            # Each instance also emits launch/query_done events, so read
            # until all completions have arrived rather than counting lines.
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=WAIT
            )
            try:
                conn.request("GET", "/events")
                response = conn.getresponse()
                done = 0
                while done < expected:
                    line = response.fp.readline()
                    event = json.loads(line)
                    received.append(event)
                    done += event["type"] == "instance_complete"
            finally:
                conn.close()

        reader = threading.Thread(target=stream)
        reader.start()
        time.sleep(0.1)  # let the subscription attach before submitting

        def submit_batch():
            status, _, _ = request(server, "POST", "/instances", {"batch": [None] * 3})
            assert status == 202

        writers = [threading.Thread(target=submit_batch) for _ in range(3)]
        for w in writers:
            w.start()
        for w in writers:
            w.join(WAIT)
        assert daemon.wait_idle(WAIT)
        reader.join(WAIT)
        assert not reader.is_alive()
        completions = [e for e in received if e["type"] == "instance_complete"]
        assert len(completions) == expected
        assert len({e["instance_id"] for e in completions}) == expected
        # Once the client hangs up, the next publish drops the broken
        # pipe and the subscription is released.
        deadline = time.monotonic() + WAIT
        while daemon._subscribers and time.monotonic() < deadline:
            submit_and_wait(daemon, server, {})
            time.sleep(0.02)
        assert daemon._subscribers == []

    def test_mid_stream_disconnect_releases_the_subscription(self, stack):
        """A client that vanishes mid-stream must not leak its handler
        thread or its fan-out queue."""
        daemon, server = stack
        threads_before = threading.active_count()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=WAIT)
        conn.request("GET", "/events")
        conn.getresponse()  # headers arrive; the stream is now live
        deadline = time.monotonic() + WAIT
        while not daemon._subscribers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(daemon._subscribers) == 1
        conn.close()  # hang up without reading anything
        # The handler notices on its next poll/write and unsubscribes.
        submit_and_wait(daemon, server, {"batch": [None] * 2})
        deadline = time.monotonic() + WAIT
        while daemon._subscribers and time.monotonic() < deadline:
            submit_and_wait(daemon, server, {})
            time.sleep(0.02)
        assert daemon._subscribers == []
        deadline = time.monotonic() + WAIT
        while threading.active_count() > threads_before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert threading.active_count() <= threads_before
        assert daemon.server_stats()["events_dropped"] == 0
