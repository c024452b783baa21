"""repro.server — the streaming decision-service daemon.

The open-system front half of the reproduction: a
:class:`~repro.server.daemon.ServerDaemon` wraps a plain or sharded
:class:`~repro.api.service.DecisionService` with admission control
(bounded arrival queue, backpressure with drain-rate-derived retry
hints), a drain loop that advances the DES clock against wall-time
arrivals, and SQLite persistence of completed run records
(:class:`~repro.server.store.RunStore`) so restarts keep serving
finished work.  :mod:`repro.server.http` exposes it over HTTP/JSON with
nothing beyond the stdlib; ``python -m repro serve`` is the CLI wiring.
"""

from repro.server.daemon import ServerDaemon, SubmitResult, STATUSES
from repro.server.http import (
    DecisionRequestHandler,
    DecisionServer,
    create_server,
    start_http_server,
)
from repro.server.store import RunStore, config_hash
from repro.values import decode_values, encode_values

__all__ = [
    "ServerDaemon",
    "SubmitResult",
    "STATUSES",
    "RunStore",
    "config_hash",
    "encode_values",
    "decode_values",
    "DecisionServer",
    "DecisionRequestHandler",
    "create_server",
    "start_http_server",
]
