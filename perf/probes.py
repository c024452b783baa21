"""Direct drives: one layer exercised through its public surface with
the layers around it bypassed.  Traced runs only; each probe returns
per-layer metrics by name.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import time

import stack
from stats import median
from workloads import Scale, warmup_values


def connection_rtts(port: int, source: str, seed, scale: Scale) -> dict:
    """Sequential single-instance POSTs: one reused keep-alive connection
    against a fresh connection per request."""
    values = warmup_values(f"{seed}:rtt", 2 * scale.probe_posts)
    results = {}
    for name, reuse in (("http.reused_conn_rtt_ms", True), ("http.fresh_conn_rtt_ms", False)):
        connection, rtts, deadline = None, [], time.perf_counter() + scale.probe_seconds
        for count in range(scale.probe_posts):
            if count >= 20 and time.perf_counter() > deadline:
                break
            body = json.dumps({"values": {source: values.pop()}}).encode()
            started = time.perf_counter()
            if connection is None:
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
            connection.request("POST", "/instances", body=body,
                               headers={"Content-Type": "application/json"})
            connection.getresponse().read()
            if not reuse:
                connection.close()
                connection = None
            rtts.append((time.perf_counter() - started) * 1e3)
        if connection is not None:
            connection.close()
        results[name] = median(rtts)
    return results


def simdb_query_costs(seed, scale: Scale) -> dict:
    """Wall time per query of each database kernel alone: an open stream
    of cost-1..5 queries through ``create_backend(name)``, no engine."""
    from repro.api import create_backend

    results = {}
    # Spacing keeps the multiprogramming level modest on either clock.
    for name, spacing in (("ideal", 1.0), ("profiled", 20.0)):
        rng = random.Random(f"{seed}:simdb:{name}")
        backend = create_backend(name)
        simulation, database = backend.simulation, backend.database
        for index in range(scale.probe_queries):
            cost = rng.randint(1, 5)
            simulation.schedule_at(
                index * spacing, lambda cost=cost: database.submit(cost, _ignore)
            )
        started = time.perf_counter()
        simulation.run()
        elapsed = time.perf_counter() - started
        results[f"simdb.{name}_us_per_query"] = elapsed * 1e6 / scale.probe_queries
    return results


def _ignore(units: int, completed: bool) -> None:
    pass


def daemon_inproc_drain(seed, scale: Scale, tmp_dir) -> dict:
    """``ServerDaemon.submit_many`` -> ``wait_idle`` in this process: the
    serve_burst daemon without transport or process boundary."""
    from repro.server import ServerDaemon

    flow = stack.pattern()
    source = flow.schema.source_names[0]
    values = warmup_values(f"{seed}:inproc", scale.probe_records + 32)
    daemon = ServerDaemon(
        flow.schema, stack.fast_config(), db=str(tmp_dir / "inproc.sqlite"),
        high_water=stack.HIGH_WATER, default_values=flow.source_values,
    )
    try:
        daemon.submit_many([{source: values.pop()} for _ in range(32)])
        daemon.wait_idle(60.0)
        started = time.perf_counter()
        while values:
            batch = [{source: values.pop()} for _ in range(min(32, len(values)))]
            while not daemon.submit_many(batch).ok:
                daemon.wait_idle(60.0)
        daemon.wait_idle(60.0)
        elapsed = time.perf_counter() - started
    finally:
        daemon.shutdown()
    return {"daemon.inproc_drain_inst_s": scale.probe_records / elapsed}


def store_costs(scale: Scale, tmp_dir) -> dict:
    """``RunStore.record_many`` in batches of 64, then ``get`` of each."""
    from repro.server import RunStore

    path = tmp_dir / "store-probe.sqlite"
    values = {f"n{index}": index for index in range(66)}
    records = [
        {
            "instance_id": f"probe-{index}", "schema_name": "probe", "status": "done",
            "submitted_wall": 0.0, "started_wall": 0.0, "completed_wall": 0.0,
            "source": {"src": float(index)}, "values": values,
            "metrics": {"work_units": 7}, "config_hash": "probe",
        }
        for index in range(scale.probe_records)
    ]
    with RunStore(path) as store:
        started = time.perf_counter()
        for low in range(0, len(records), 64):
            store.record_many(records[low:low + 64])
        write_s = time.perf_counter() - started
        started = time.perf_counter()
        for record in records:
            store.get(record["instance_id"])
        read_s = time.perf_counter() - started
    return {
        "store.write_us_per_record": write_s * 1e6 / len(records),
        "store.read_us_per_record": read_s * 1e6 / len(records),
        "store.db_bytes_per_record": os.path.getsize(path) / len(records),
    }
