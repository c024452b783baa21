"""Open-loop HTTP load generator and the server process it drives.

The generator is this process: one sender thread per persistent
HTTP/1.1 connection, pulling requests off a shared Poisson schedule and
sending each at its due time whether or not earlier ones were answered.
Latencies are timed from the *due* time, so a stall charges the
requests queued behind it.  A rung stops sending when its window
closes; requests still unsent then were never offered and count as
misses.  The server under test is a separate process
(``perf/serve_entry.py``).
"""

from __future__ import annotations

import bisect
import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import stack
from workloads import GET, POST, RUNG_GRACE_S, Op, Rung

_HOST = "127.0.0.1"
_JSON = {"Content-Type": "application/json"}
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException, ValueError)


class Server:
    """The server process under test; a context manager that always
    leaves no process behind."""

    def __init__(self, db_path, observe: bool = False):
        self.spawned = time.time()
        command = [sys.executable, str(stack.PERF_DIR / "serve_entry.py"), str(db_path)]
        self._process = subprocess.Popen(
            command + (["--observe"] if observe else []),
            stdout=subprocess.PIPE, text=True, env=stack.child_env(),
            cwd=str(stack.ROOT),
        )
        self.pid = self._process.pid
        self.closing: dict | None = None
        banner = self._process.stdout.readline()
        if not banner:
            self._process.wait()
            raise RuntimeError(f"server exited with {self._process.returncode} before listening")
        self.port = json.loads(banner)["port"]

    def stop(self, timeout: float = 60.0) -> bool:
        """SIGINT, wait for the graceful shutdown; True if it was clean."""
        if self._process.poll() is None:
            self._process.send_signal(signal.SIGINT)
        try:
            output, _ = self._process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.communicate()
            return False
        lines = output.strip().splitlines()
        if lines:
            self.closing = json.loads(lines[-1])
        return self._process.returncode == 0

    @property
    def host_samples(self) -> list:
        """The host samples the stopped server took inside its own process."""
        return (self.closing or {}).get("host_samples", [])

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._process.poll() is None:
            self._process.kill()
        self._process.communicate()


def request(port: int, method: str, path: str, body: dict | None = None):
    """One control-plane request on a fresh connection: (status, json)."""
    connection = http.client.HTTPConnection(_HOST, port, timeout=30.0)
    try:
        payload = None if body is None else json.dumps(body).encode()
        connection.request(method, path, body=payload, headers=_JSON if payload else {})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def decide_one(port: int, source: str, value: float, timeout: float = 30.0) -> str:
    """POST one instance and wait until it is decided; returns its id."""
    status, reply = request(port, POST, "/instances", {"values": {source: value}})
    if status != 202:
        raise RuntimeError(f"warm-up instance was not accepted: {status} {reply}")
    instance_id = reply["accepted"][0]
    wait_decided(port, [instance_id], timeout)
    return instance_id


def wait_decided(port: int, instance_ids, timeout: float) -> bool:
    """Poll until every id is past ``queued``/``running`` or *timeout*.

    The daemon drains its queue first-in first-out, so once the last
    id a connection was given is decided, everything before it is.
    """
    deadline = time.time() + timeout
    for instance_id in instance_ids:
        while True:
            status, reply = request(port, GET, f"/instances/{instance_id}")
            if status == 200 and reply["status"] not in ("queued", "running"):
                break
            if time.time() >= deadline:
                return False
            time.sleep(0.01)
    return True


@dataclass
class Sent:
    """One request that went out, as the client saw it."""

    op: Op
    rung: int
    due: float                # wall clock
    start: float
    end: float
    status: int               # 0: transport error
    request_bytes: int = 0
    response_bytes: int = 0
    ids: tuple = ()           # POST: accepted instance ids
    read_id: str = ""         # GET: the id asked for
    reply: dict = field(default_factory=dict)


@dataclass
class RungWindow:
    rung: Rung
    start: float
    end: float                # the sending window closes here
    server_cpu_s: float = 0.0     # CPU the server's process tree used meanwhile
    metrics: dict | None = None   # GET /metrics once the rung drained (traced)


class Ladder:
    """Runs the rungs of a serve plan over persistent connections."""

    def __init__(self, server: Server, source: str, senders: int, tracer, first_id: str):
        self._port = server.port
        self._server_pid = server.pid
        self._source = source
        self._senders = senders
        self._tracer = tracer
        self._lock = threading.Lock()
        self._connections: list = [None] * senders
        self._last_accepted = [None] * senders
        self._accept_times: list[float] = [0.0]
        self._accept_ids: list[str] = [first_id]
        self.sent: list[Sent] = []
        self.windows: list[RungWindow] = []

    def run(self, plan: list[Rung], fetch_metrics: bool) -> None:
        try:
            for index, rung in enumerate(plan):
                self._run_rung(index, rung, fetch_metrics)
        finally:
            for connection in self._connections:
                if connection is not None:
                    connection.close()

    def _run_rung(self, index: int, rung: Rung, fetch_metrics: bool) -> None:
        bodies = [self._encode(op) for op in rung.ops]
        cursor = iter(range(len(rung.ops)))
        with self._tracer.span(f"rung.{rung.rate:g}") as span:
            cpu_before = stack.tree_usage(self._server_pid)[0]
            window = RungWindow(rung, time.time(), 0.0)
            window.end = window.start + rung.seconds
            threads = [
                threading.Thread(
                    target=self._send_loop,
                    args=(slot, index, rung, bodies, cursor, window, span),
                    name=f"perf-sender-{slot}",
                )
                for slot in range(self._senders)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # The schedule may run out before the window does.
            time.sleep(max(0.0, window.end - time.time()))
            window.server_cpu_s = stack.tree_usage(self._server_pid)[0] - cpu_before
            with self._tracer.span("drain.wait"):
                last = [i for i in self._last_accepted if i is not None]
                wait_decided(self._port, last, RUNG_GRACE_S)
            if fetch_metrics:
                with self._tracer.span("http.metrics"):
                    window.metrics = request(self._port, GET, "/metrics")[1]
        self.windows.append(window)

    def _encode(self, op: Op) -> bytes | None:
        if op.kind == GET:
            return None
        if len(op.values) == 1:
            body = {"values": {self._source: op.values[0]}}
        else:
            body = {"batch": [{self._source: value} for value in op.values]}
        return json.dumps(body).encode()

    def _send_loop(self, slot, index, rung, bodies, cursor, window, span) -> None:
        while True:
            with self._lock:
                position = next(cursor, None)
            if position is None:
                return
            op = rung.ops[position]
            due = window.start + op.due
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            if time.time() >= window.end:
                continue  # the window closed first: never offered
            name = "http.post" if op.kind == POST else "http.get"
            with self._tracer.span(name, parent=span):
                sent = self._send(slot, index, op, due, bodies[position])
            with self._lock:
                self.sent.append(sent)
                if sent.ids:
                    self._last_accepted[slot] = sent.ids[-1]
                    self._accept_times.append(sent.end)
                    self._accept_ids.append(sent.ids[-1])

    def _readable_id(self, now: float) -> str:
        """The id accepted most recently at least a second ago."""
        with self._lock:
            position = bisect.bisect_right(self._accept_times, now - 1.0)
            return self._accept_ids[max(0, position - 1)]

    def _send(self, slot: int, index: int, op: Op, due: float, body) -> Sent:
        start = time.time()
        read_id = self._readable_id(start) if op.kind == GET else ""
        path = f"/instances/{read_id}" if read_id else "/instances"
        status, raw = 0, b""
        try:
            if self._connections[slot] is None:
                self._connections[slot] = http.client.HTTPConnection(
                    _HOST, self._port, timeout=30.0
                )
            connection = self._connections[slot]
            connection.request(op.kind, path, body=body, headers=_JSON if body else {})
            response = connection.getresponse()
            raw = response.read()
            status = response.status
            reply = json.loads(raw)
        except _TRANSPORT_ERRORS:
            status, reply = 0, {}
            if self._connections[slot] is not None:
                self._connections[slot].close()
                self._connections[slot] = None
        return Sent(
            op, index, due, start, time.time(), status,
            request_bytes=len(body or b""), response_bytes=len(raw),
            ids=tuple(reply.get("accepted", ())) if status == 202 else (),
            read_id=read_id, reply=reply if op.kind == GET else {},
        )
