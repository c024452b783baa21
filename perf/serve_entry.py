"""The server under test: the same ``ServerDaemon`` + ``start_http_server``
pair ``python -m repro serve`` builds, on the fast stack.

    python perf/serve_entry.py <sqlite path> [--observe]

Prints one JSON line with the bound port once it listens, runs until
SIGINT, then shuts down gracefully (drain, flush the store) and prints
the closing counters and its host-speed samples.
"""

from __future__ import annotations

import json
import signal
import sys
import threading

import hostspeed
import stack


def main(argv: list[str]) -> int:
    # Host speed is sampled inside this process, where the work happens;
    # the samples go home with the closing counters.
    sampler = hostspeed.Sampler()
    sampler.start()
    from repro.server import ServerDaemon, start_http_server

    db_path, observe = argv[0], "--observe" in argv[1:]
    # A parent that ignores SIGINT (a shell's background job) hands that
    # down, and Python then installs no handler: ask for it explicitly.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    flow = stack.pattern()
    daemon = ServerDaemon(
        flow.schema,
        stack.fast_config(observe=observe),
        db=db_path,
        high_water=stack.HIGH_WATER,
        default_values=flow.source_values,
    )
    server, thread = start_http_server(daemon)
    print(json.dumps({"port": server.port}), flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10.0)
        drained = daemon.shutdown()
        sampler.stop()
        closing = {"drained": drained, "host_samples": sampler.samples, **daemon.server_stats()}
        print(json.dumps(closing), flush=True)
    return 0 if drained else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
