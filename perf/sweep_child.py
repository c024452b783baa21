"""One repetition of a sweep or fleet workload, in a fresh process.

Plan, start-state and select memos are per-process caches that drift
across repetitions in a long-lived process, so the harness starts this
script once per repetition: set-up (imports, pattern, warm-up), one
timed region over the fixed instance count, then verification against
the oracle the parent computed.  The result is one JSON line on stdout.

    python perf/sweep_child.py '<json spec>'
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time

import hostspeed
import stack
import workloads
from stats import percentile, ratio
from spans import Tracer, self_shares


def _safe(read):
    """A counter read through a public surface; None once it is gone."""
    try:
        return read()
    except (AttributeError, KeyError, TypeError, IndexError):
        return None


def _cpu_seconds() -> float:
    """CPU of this process (fine-grained) plus its live descendants."""
    return time.process_time() + stack.tree_usage(os.getpid(), include_root=False)[0]


def _value_map(handle) -> dict:
    instance = getattr(handle, "instance", None)
    return instance.value_map() if instance is not None else handle.value_map()


def _verify(handles, results, values, oracle, targets) -> int:
    """Instances whose decision equals the oracle's.

    Every instance's target values are compared; the full map of stable
    attribute values is compared on a fixed-stride sample.
    """
    stride = max(1, len(handles) // 256)
    correct = 0
    for index, (handle, result, value) in enumerate(zip(handles, results, values)):
        expected = oracle[value]
        ok = result == {name: expected[name] for name in targets}
        if ok and index % stride == 0:
            ok = all(expected[name] == got for name, got in _value_map(handle).items())
        correct += ok
    return correct


def _service_counters(service, n: int) -> dict:
    """The counters the program publishes, by per-layer metric name."""
    summary = _safe(service.summary)
    dispatch = _safe(service.dispatch_stats) or {}
    counters = {
        "core.cohort_hits": _safe(lambda: summary.cohort_hits),
        "core.cohort_splits": _safe(lambda: summary.cohort_splits),
        "core.queries_launched": _safe(
            lambda: round(summary.mean_queries_launched * summary.count)
        ),
        "simdb.cache_hits": _safe(lambda: summary.query_cache_hits),
        "simdb.cache_misses": _safe(lambda: summary.query_cache_misses),
        "simdb.cache_coalesced": _safe(lambda: summary.query_cache_coalesced),
        "simdb.pooled_batches": dispatch.get("pooled_batches"),
        "simdb.events_executed": _safe(lambda: service.backend.simulation.events_executed),
        "simdb.db_units": _safe(lambda: service.database.total_units),
    }
    if counters["simdb.db_units"] is None:  # the sharded facade sums its shards
        counters["simdb.db_units"] = _safe(lambda: service.total_units)
    counters["core.cohort_capture"] = ratio(counters["core.cohort_hits"], n)
    counters["simdb.events_per_inst"] = ratio(counters["simdb.events_executed"], n)
    lookups = (counters["simdb.cache_hits"] or 0) + (counters["simdb.cache_misses"] or 0)
    counters["simdb.cache_hit_ratio"] = ratio(counters["simdb.cache_hits"], lookups)
    counters["simdb.pooled_events_per_batch"] = ratio(
        dispatch.get("pooled_events"), dispatch.get("pooled_batches")
    )
    return counters


def _armed_counters(service) -> dict:
    snapshot = _safe(service.observability)
    return {
        "core.scheduling_rounds": stack.registry_value(
            snapshot, "counters", "engine_scheduling_rounds"
        ),
        "obs.spans_recorded": _safe(lambda: len(service.chrome_trace()["traceEvents"])),
    }


def _warm_up(service, source: str, values) -> None:
    base = service.now
    handles = [
        service.submit({source: value}, at=base + 1.0 + index)
        for index, value in enumerate(values)
    ]
    service.run()
    for handle in handles:
        handle.result()


def _timed_sweep(service, payloads, tracer) -> dict:
    """Submit everything, run the clock dry, read every handle out."""
    submit, base = service.submit, service.now
    clock = time.perf_counter
    began, cpu0, t0 = time.time(), _cpu_seconds(), clock()
    with tracer.span("timed"):
        with tracer.span("api.submit"):
            handles = [submit(values, at=base + at) for at, values in payloads]
        t1 = clock()
        with tracer.span("api.run"):
            service.run()
        t2 = clock()
        with tracer.span("api.readout"):
            results = [handle.result() for handle in handles]
    t3, cpu1 = clock(), _cpu_seconds()
    return {
        "handles": handles, "results": results, "window": (began, time.time()),
        "wall": t3 - t0, "cpu": cpu1 - cpu0,
        "submit": t1 - t0, "run": t2 - t1, "readout": t3 - t2,
    }


def _timed_rounds(service, payloads, rounds: int, tracer) -> dict:
    """The population as *rounds* of submit -> run -> read out."""
    per_round = len(payloads) // rounds
    handles, results = [], []
    submit_s = run_s = readout_s = 0.0
    clock = time.perf_counter
    began, cpu0, t0 = time.time(), _cpu_seconds(), clock()
    with tracer.span("timed"):
        for index in range(rounds):
            batch = payloads[index * per_round:(index + 1) * per_round]
            with tracer.span("runtime.round"):
                # Each round starts one tick after the fleet's clock.
                a, base = clock(), service.now + 1.0 - batch[0][0]
                with tracer.span("runtime.submit"):
                    fresh = [service.submit(values, at=base + at) for at, values in batch]
                b = clock()
                with tracer.span("runtime.run"):
                    service.run()
                c = clock()
                with tracer.span("runtime.readout"):
                    results.extend(handle.result() for handle in fresh)
                d = clock()
            handles.extend(fresh)
            submit_s, run_s, readout_s = submit_s + b - a, run_s + c - b, readout_s + d - c
    t1, cpu1 = clock(), _cpu_seconds()
    return {
        "handles": handles, "results": results, "window": (began, time.time()),
        "wall": t1 - t0, "cpu": cpu1 - cpu0,
        "submit": submit_s, "run": run_s, "readout": readout_s,
    }


def _set_up(workload, spec: dict, scale, fleet: bool, tracer, layer: dict):
    """Everything before the timed region: pattern, inputs, the measured
    service, and the warm-up.  Returns (flow, items, payloads, service)."""
    from repro.api import DecisionService
    from repro.runtime import create_service

    with tracer.span("setup"):
        flow = stack.pattern()
        source = flow.schema.source_names[0]
        with tracer.span("workload.generate"):
            started = time.perf_counter()
            items = workloads.sweep_items(workload, spec["seed"], scale)
            payloads = [(at, {source: value}) for at, value in items]
            warm = workloads.warmup_values(spec["seed"], scale.warmup)
            layer["workload.generate_s"] = time.perf_counter() - started
        layer["workload.distinct_valuations"] = len({value for _, value in items})
        extra = {"backend": workload.backend, "observe": spec["armed"]}
        if fleet:
            extra.update(shards=2, executor="process")
        config = stack.fast_config(**extra)
        with tracer.span("api.construct"):
            started = time.perf_counter()
            if fleet:
                # The fleet forks on its first round, so it is warmed
                # up itself; a sweep warms the process-wide memos on a
                # throw-away service and is measured on a fresh one.
                service = create_service(flow.schema, config)
                _warm_up(service, source, warm[:1])
                layer["runtime.fleet_spawn_s"] = time.perf_counter() - started
            else:
                service = DecisionService(flow.schema, config)
                layer["api.construct_s"] = time.perf_counter() - started
        with tracer.span("api.warmup"):
            if fleet:
                _warm_up(service, source, warm[1:])
            else:
                _warm_up(DecisionService(flow.schema, config), source, warm)
    return flow, items, payloads, service


def _fleet_metrics(service, timed: dict, n: int, workload, spec: dict, scale, source: str) -> dict:
    per_shard = _safe(lambda: [s.instances for s in service.stats()]) or []
    summary = _safe(service.summary)
    rtts = []
    for value in workloads.warmup_values(f"{spec['seed']}:rtt", scale.rtt_rounds):
        started = time.perf_counter()
        _warm_up(service, source, [value])
        rtts.append((time.perf_counter() - started) * 1e3)
    return {
        "runtime.submit_us_per_inst": timed["submit"] * 1e6 / n,
        "runtime.run_s_per_round": timed["run"] / workload.rounds,
        "runtime.shard_skew": ratio(
            max(per_shard, default=None), sum(per_shard) / max(1, len(per_shard))
        ),
        "runtime.l2_hits": _safe(lambda: summary.query_cache_l2_hits),
        "runtime.l2_promotions": _safe(lambda: summary.query_cache_l2_promotions),
        "runtime.workers_alive": _safe(
            lambda: sum(w["alive"] for w in service.worker_health()["workers"])
        ),
        "runtime.round_rtt_ms": percentile(rtts, 50),
    }


def run(spec: dict) -> dict:
    workload = workloads.BY_NAME[spec["workload"]]
    scale = workloads.SMOKE if spec["smoke"] else workloads.FULL
    fleet = workload.kind == "fleet" and spec["variant"] != "single"
    tracer = Tracer(workload.name, spec["rep"], enabled=spec["traced"])
    layer: dict = {}
    if not fleet:
        # Single-threaded: on one CPU, whose steal counter is then its own.
        stack.pin_to_current_cpu()
    sampler = hostspeed.Sampler()
    sampler.start()

    flow, items, payloads, service = _set_up(workload, spec, scale, fleet, tracer, layer)
    setup_done, setup_cpu = time.time(), _cpu_seconds()
    setup = {
        "raw": setup_done - spec["spawned"],
        "nominal": hostspeed.nominal(sampler.samples, spec["spawned"], setup_done, setup_cpu),
    }
    if workload.kind == "fleet":
        timed = _timed_rounds(service, payloads, workload.rounds, tracer)
    else:
        timed = _timed_sweep(service, payloads, tracer)
    sampler.stop()
    n = len(payloads)
    peak_rss_mb = stack.tree_usage(os.getpid())[1]
    # CPU of the system under test: the harness's own sampler taken out.
    busy = timed["cpu"] - hostspeed.sampler_cpu(sampler.samples, *timed["window"])
    speed = hostspeed.speed(sampler.samples, *timed["window"])
    stolen = hostspeed.stolen(sampler.samples, *timed["window"])
    stolen_share = stolen / timed["wall"]
    layer["bench.host_speed"], layer["bench.stolen_share"] = speed, stolen_share

    counters = _service_counters(service, n)
    layer.update(counters)
    layer["core.us_per_launch"] = ratio(timed["run"] * 1e6, counters["core.queries_launched"])
    if fleet:
        layer.update(_fleet_metrics(
            service, timed, n, workload, spec, scale, flow.schema.source_names[0]
        ))
    else:
        for phase in ("submit", "run", "readout"):
            layer[f"api.{phase}_us_per_inst"] = timed[phase] * 1e6 / n
    if spec["armed"]:
        layer.update(_armed_counters(service))
    if spec["traced"]:
        shares = self_shares(tracer.spans, "timed")
        for phase in ("submit", "run", "readout"):
            layer[f"api.{phase}_share"] = shares.get(f"api.{phase}", shares.get(f"runtime.{phase}"))

    with tracer.span("bench.verify"):
        started = time.perf_counter()
        with open(spec["oracle"], "rb") as stream:
            oracle = pickle.load(stream)  # written by the parent harness
        correct = _verify(
            timed["handles"], timed["results"], [value for _, value in items],
            oracle, flow.schema.target_names,
        )
        verify_s = time.perf_counter() - started
    if fleet:
        service.close()

    # Every timing is reported as an undisturbed host would clock it
    # (stolen time out, the CPU-busy part -- all of it, on a sweep -- at
    # nominal speed); the clock's own readings are kept under "raw".
    wall = hostspeed.rescale(timed["wall"], busy, speed, stolen)
    return {
        "n": n, "correct": correct, "verify_s": verify_s,
        "wall_s": wall,
        "e2e": {
            "setup_s": setup["nominal"],
            "throughput_inst_s": correct / wall,
            "cpu_s_per_kinst": busy * speed / (n / 1000.0),
            "peak_rss_mb": peak_rss_mb,
        },
        "raw": {
            "setup_s": setup["raw"], "throughput_inst_s": correct / timed["wall"],
            "cpu_s_per_kinst": busy / (n / 1000.0),
            "host_speed": speed, "stolen_share": stolen_share,
        },
        "layer": layer,
        # Must repeat exactly across repetitions of one seed.
        "counters": {k: v for k, v in counters.items() if isinstance(v, int)},
        "spans": tracer.spans,
    }


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
