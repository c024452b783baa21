"""HTTP/JSON transport for the decision-service daemon (stdlib only).

A thin :class:`ThreadingHTTPServer` front on a
:class:`~repro.server.daemon.ServerDaemon`.  Handler threads never touch
the engine — they enqueue submissions through the daemon's admission
controller and read from its record map / SQLite store, so the drain
loop stays the only engine owner.

Keep-alive clients are first-class.  Every fixed-length response leaves
as one ``send`` (status line, headers and body together) on a socket with
``TCP_NODELAY`` set, so a reused connection answers as fast as a fresh
one; written as two sends, Nagle held the body until the client's
delayed ACK of the headers, 40 ms on every request after a connection's
first.  ``GET /events`` is the one streamed response: its headers go out
before the first event and every NDJSON line is its own send.  A request
whose body is refused unread closes its connection, because the unread
bytes would otherwise be parsed as the next request.

Endpoints::

    POST /instances        {"values": {...}} or {"batch": [{...}, ...]}
                           202 {"accepted": [ids], "queue_depth": n}
                           429 + Retry-After when past the high-water mark
                           503 while shutting down
    GET  /instances/<id>   status/values/metrics payload; 404 if unknown;
                           resolves restarts via the SQLite store
    GET  /events           NDJSON stream of typed observer events
                           (?limit=N closes after N, ?replay=1 prepends
                           the retained history)
    GET  /metrics          summary() + daemon counters + stage latency
                           digests + config identity (JSON);
                           ?format=prometheus serves the text exposition
    GET  /trace            Chrome-trace JSON (flight recorder; empty but
                           valid when the daemon runs without --observe)
    GET  /healthz          drain-loop liveness: 200 while the loop
                           heartbeats, 503 once it is wedged or dead

``create_server`` binds (port 0 → ephemeral, how the tests stay
port-free); ``start_http_server`` also spins the serve loop on a
background thread and returns ``(server, thread)``.
"""

from __future__ import annotations

import io
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from queue import Empty
from urllib.parse import parse_qs, urlsplit

from repro.server.daemon import ServerDaemon

__all__ = ["DecisionServer", "DecisionRequestHandler", "create_server", "start_http_server"]

_MAX_BODY = 8 * 1024 * 1024


class DecisionServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the daemon for its handler threads."""

    daemon_threads = True
    allow_reuse_address = True
    #: socketserver's default of 5 overflows under a burst of fresh
    #: connections, and each dropped SYN costs its client a 1 s retransmit.
    request_queue_size = 128

    def __init__(self, address, daemon: ServerDaemon, *, quiet: bool = True):
        self.decision_daemon = daemon
        self.quiet = quiet
        super().__init__(address, DecisionRequestHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]


class DecisionRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-server/1.0"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    @property
    def daemon(self) -> ServerDaemon:
        return self.server.decision_daemon

    # -- plumbing -------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict | None = None,
    ) -> None:
        """One fixed-length response, written to the socket in one send."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        # end_headers() writes the head straight to the unbuffered socket
        # file, which would leave the body to a second send; catch the
        # head in memory so both leave together.
        socket_file, self.wfile = self.wfile, io.BytesIO()
        try:
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = socket_file
        self.wfile.write(head + body)

    def _send_json(
        self, status: int, payload: dict, *, headers: dict | None = None
    ) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        self._send_body(status, body, "application/json", headers)

    def _send_error_json(self, status: int, message: str, **extra) -> None:
        self._send_json(status, {"error": {"message": message, **extra}})

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _leave_body_unread(self) -> None:
        """Close after this response when the request carries a body.

        Bytes left on a keep-alive stream would be parsed as the next
        request line.
        """
        if self.headers.get("Content-Length") or self.headers.get("Transfer-Encoding"):
            self.close_connection = True

    def _read_body(self) -> dict:
        try:
            if self.headers.get("Transfer-Encoding"):
                raise ValueError("Transfer-Encoding is not supported; send Content-Length")
            length = int(self.headers.get("Content-Length") or 0)
            if length < 0:
                raise ValueError(f"negative Content-Length ({length})")
            if length > _MAX_BODY:
                raise ValueError(f"request body too large ({length} bytes)")
        except ValueError:
            self.close_connection = True  # the body stays unread
            raise
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._leave_body_unread()
        url = urlsplit(self.path)
        if url.path == "/healthz":
            ok, payload = self.daemon.health()
            self._send_json(200 if ok else 503, payload)
        elif url.path == "/metrics":
            fmt = parse_qs(url.query).get("format", ["json"])[0]
            if fmt == "prometheus":
                self._send_text(
                    200,
                    self.daemon.prometheus_payload(),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            elif fmt == "json":
                self._send_json(200, self.daemon.metrics_payload())
            else:
                self._send_error_json(
                    400, f"unknown metrics format {fmt!r}", format=fmt
                )
        elif url.path == "/trace":
            self._send_json(200, self.daemon.trace_payload())
        elif url.path.startswith("/instances/"):
            instance_id = url.path[len("/instances/"):]
            payload = self.daemon.get(instance_id)
            if payload is None:
                self._send_error_json(
                    404, f"unknown instance id {instance_id!r}", id=instance_id
                )
            else:
                self._send_json(200, payload)
        elif url.path == "/events":
            self._stream_events(parse_qs(url.query))
        else:
            self._send_error_json(404, f"no such endpoint: {url.path}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlsplit(self.path)
        if url.path != "/instances":
            self._leave_body_unread()
            self._send_error_json(404, f"no such endpoint: {url.path}")
            return
        try:
            body = self._read_body()
            batch = self._parse_submission(body)
        except (ValueError, json.JSONDecodeError) as error:
            self._send_error_json(400, f"bad request: {error}")
            return
        result = self.daemon.submit_many(batch)
        if result.ok:
            self._send_json(
                202,
                {"accepted": list(result.accepted), "queue_depth": result.queue_depth},
            )
        elif result.reason == "queue full":
            retry = result.retry_after or 1.0
            self._send_json(
                429,
                {
                    "error": {"message": "queue full", "rejected": result.rejected},
                    "retry_after": retry,
                    "queue_depth": result.queue_depth,
                },
                headers={"Retry-After": str(max(1, round(retry)))},
            )
        else:
            self._send_error_json(503, result.reason or "unavailable")

    @staticmethod
    def _parse_submission(body: dict) -> list[dict | None]:
        """Normalize a POST body into a list of source valuations.

        ``{}`` → one instance with the daemon's default values;
        ``{"values": {...}}`` → one instance; ``{"batch": [...]}`` → many,
        each entry either a bare valuation object or ``{"values": ...}``.
        """
        if "batch" in body:
            entries = body["batch"]
            if not isinstance(entries, list) or not entries:
                raise ValueError("'batch' must be a non-empty list")
            batch = []
            for entry in entries:
                if entry is None:
                    batch.append(None)
                elif not isinstance(entry, dict):
                    raise ValueError("batch entries must be objects")
                elif "values" in entry:
                    batch.append(entry["values"])
                else:
                    batch.append(entry or None)
            return batch
        values = body.get("values")
        if values is not None and not isinstance(values, dict):
            raise ValueError("'values' must be an object")
        return [values]

    def _stream_events(self, query: dict) -> None:
        try:
            limit = int(query["limit"][0]) if "limit" in query else None
        except ValueError:
            self._send_error_json(400, "limit must be an integer")
            return
        replay = query.get("replay", ["0"])[0] in ("1", "true", "yes")
        subscriber = self.daemon.subscribe_events(replay=replay)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        # No Content-Length: the stream ends when the connection closes.
        self.send_header("Connection", "close")
        self.end_headers()
        sent = 0
        try:
            while limit is None or sent < limit:
                try:
                    payload = subscriber.get(timeout=0.25)
                except Empty:
                    if self.daemon.stopping and self.daemon.is_idle():
                        break
                    continue
                if payload is None:  # shutdown sentinel
                    break
                self.wfile.write((json.dumps(payload) + "\n").encode("utf-8"))
                self.wfile.flush()
                sent += 1
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up but the subscription
        finally:
            self.daemon.unsubscribe_events(subscriber)
            self.close_connection = True


def create_server(
    daemon: ServerDaemon,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quiet: bool = True,
) -> DecisionServer:
    """Bind a :class:`DecisionServer` (``port=0`` → ephemeral port)."""
    return DecisionServer((host, port), daemon, quiet=quiet)


def start_http_server(
    daemon: ServerDaemon,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quiet: bool = True,
) -> tuple[DecisionServer, threading.Thread]:
    """Bind and serve on a background thread; returns ``(server, thread)``.

    The in-process transport tests, the CI smoke step, and the load
    benchmark all use this: bind port 0, talk to
    ``http://127.0.0.1:<server.port>``, then ``server.shutdown()`` +
    ``thread.join()`` + ``daemon.shutdown()``.
    """
    server = create_server(daemon, host, port, quiet=quiet)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-server-http",
        daemon=True,
    )
    thread.start()
    return server, thread
