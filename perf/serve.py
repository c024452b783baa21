"""The serve workloads: one ladder against a fresh server process, then
the durability and oracle check on the ``RunStore`` file it left.

Every accepted id must be in the store as ``done`` with oracle-equal
values after the server was stopped with SIGINT.  A decision latency
runs from the request's due time to the moment the client could first
read the decision: the later of the store's ``completed_wall`` stamp and
the POST response that carried the instance's id.
"""

from __future__ import annotations

import time

import hostspeed
import probes
import stack
from loadgen import Ladder, Sent, Server, decide_one
from spans import Tracer, self_shares
from stats import median, percentile, ratio, tail_percentile
from workloads import DEADLINE_S, GET, POST, Scale, Workload, serve_plan, warmup_values


#: Instants per quarter of a rung at which the backlog is sampled.
_BACKLOG_SAMPLES = 16


def _matches(encoded: dict | None, expected: dict, targets) -> bool:
    """Stored stable values equal the oracle's, and every target is there."""
    from repro.server import decode_values

    if encoded is None:
        return False
    values = decode_values(encoded)
    return all(name in values for name in targets) and all(
        expected[name] == got for name, got in values.items()
    )


def _ms(seconds):
    return None if seconds is None else seconds * 1e3


def _scaled(value, speed: float):
    return None if value is None else value * speed


class _Instance:
    """One instance a POST carried, joined with its store record."""

    __slots__ = ("rung", "due", "valuation", "completed", "readable", "ok")

    def __init__(self, rung, due, valuation, completed, known, ok):
        self.rung, self.due, self.valuation = rung, due, valuation
        self.completed, self.ok = completed, ok
        # A client can read a decision once it is made *and* the POST's
        # response has told it which id to ask for.
        self.readable = None if completed is None else max(completed, known)


def _join_store(sent: list[Sent], db_path, flow, first: tuple):
    """(instances accepted, correct GETs) checked against store and oracle."""
    from repro.server import RunStore

    posts = [s for s in sent if s.op.kind == POST and s.status == 202]
    valuation_of = {first[0]: first[1]}
    for post in posts:
        valuation_of.update(zip(post.ids, post.op.values))
    reads = [s for s in sent if s.op.kind == GET]
    needed = {v for post in posts for v in post.op.values}
    needed.update(valuation_of[r.read_id] for r in reads if r.read_id in valuation_of)
    oracle = stack.oracle_values(flow, needed)
    targets = flow.schema.target_names

    instances = []
    with RunStore(db_path) as store:
        for post in posts:
            for instance_id, valuation in zip(post.ids, post.op.values):
                record = store.get(instance_id)
                done = record is not None and record["status"] == "done"
                ok = done and _matches(record["values"], oracle[valuation], targets)
                instances.append(_Instance(
                    post.rung, post.due, valuation,
                    record["completed_wall"] if done else None, post.end, ok,
                ))
    good_reads = 0
    for read in reads:
        reply = read.reply
        ok = read.status == 200 and reply.get("id") == read.read_id
        if ok and reply.get("status") == "done":
            ok = _matches(reply.get("values"), oracle[valuation_of[read.read_id]], targets)
        good_reads += ok
    return instances, good_reads


def _rung_rows(ladder: Ladder, instances: list[_Instance], batch: int) -> list[dict]:
    """Per rung: what was offered, what came back, and whether it kept up."""
    rows = []
    for index, window in enumerate(ladder.windows):
        rung = window.rung
        sent = [s for s in ladder.sent if s.rung == index]
        posts = [s for s in sent if s.op.kind == POST]
        mine = [i for i in instances if i.rung == index]
        scheduled = sum(len(op.values) for op in rung.ops)
        refused = sum(len(s.op.values) for s in posts if s.status == 429)
        dropped = [(s.end, len(s.op.values)) for s in posts if s.status != 202]
        latencies = [i.readable - i.due for i in mine if i.readable is not None]
        in_time = sum(1 for latency in latencies if latency <= DEADLINE_S)

        def backlog(at: float) -> int:
            due = sum(len(op.values) for op in rung.ops if window.start + op.due <= at)
            decided = sum(1 for i in mine if i.completed is not None and i.completed <= at)
            return due - decided - sum(count for end, count in dropped if end <= at)

        # The backlog at one instant is mostly what happens to be in
        # flight, so the rung's last quarter is compared with the one
        # before it, each as the mean over evenly spaced instants.
        quarter = (window.end - window.start) / 4

        def mean_backlog(start: float) -> float:
            return sum(
                backlog(start + quarter * (k + 0.5) / _BACKLOG_SAMPLES)
                for k in range(_BACKLOG_SAMPLES)
            ) / _BACKLOG_SAMPLES

        growth = round(mean_backlog(window.end - quarter) - mean_backlog(window.end - 2 * quarter))
        kept_up = growth <= max(2 * batch, 0.05 * scheduled)
        completions = sum(
            1 for i in instances
            if i.completed is not None and window.start <= i.completed <= window.end
        )
        lags = [s.start - s.due for s in sent]
        rows.append({
            "rate": rung.rate, "seconds": rung.seconds, "reference": rung.reference,
            "scheduled": scheduled, "sent": sum(len(s.op.values) for s in posts),
            "accepted": len(mine), "refused": refused,
            "unsent_requests": len(rung.ops) - len(sent),
            "in_time": in_time, "backlog_growth": growth,
            "ok": scheduled > 0 and in_time >= 0.95 * scheduled and kept_up,
            "completions": completions, "server_cpu_s": window.server_cpu_s,
            "window": (window.start, window.end),
            "latencies": latencies,
            "lag_p50_ms": _ms(percentile(lags, 50)), "lag_max_ms": _ms(max(lags, default=None)),
            "status": {code: sum(1 for s in sent if s.status == code)
                       for code in sorted({s.status for s in sent})},
            "metrics": window.metrics,
        })
    return rows


def _max_rate_ok(rows: list[dict]) -> float:
    best = 0.0
    for row in rows:
        if not row["ok"]:
            break
        best = row["rate"]
    return best


def _stage(metrics: dict, stage: str, key: str):
    try:
        return metrics["stages"][stage][key] * 1e3
    except (KeyError, TypeError):
        return None


def _layer_metrics(ladder: Ladder, rows: list[dict], tail_q: float) -> dict:
    """Per-layer numbers of a traced ladder: client-observed HTTP, and the
    daemon's own ``GET /metrics`` as of the last rung."""
    posts = [s for s in ladder.sent if s.op.kind == POST and s.status]
    reads = [s for s in ladder.sent if s.op.kind == GET and s.status]
    reference_reads = [s for s in reads if ladder.windows[s.rung].rung.reference]
    post_rtts = [s.end - s.start for s in posts]
    statuses = [s.status for s in ladder.sent]
    metrics = rows[-1]["metrics"] or {}
    server, summary = metrics.get("server", {}), metrics.get("summary", {})
    dispatch = metrics.get("dispatch", {})
    decided = server.get("completed")
    offered = (server.get("accepted") or 0) + (server.get("rejected") or 0)
    lookups = (summary.get("query_cache_hits") or 0) + (summary.get("query_cache_misses") or 0)
    registry = metrics.get("observability")
    launches = stack.registry_value(registry, "counters", "engine_queries_launched")
    events = stack.registry_value(registry, "gauges", "sim_events_executed")
    epochs_ms = _stage(metrics, "epoch", "mean")  # mean per epoch
    return {
        "http.post_rtt_p50_ms": _ms(percentile(post_rtts, 50)),
        "http.post_rtt_tail_ms": _ms(percentile(post_rtts, tail_q)),
        "http.get_rtt_p50_ms": _ms(percentile([s.end - s.start for s in reads], 50)),
        "http.read_p50_ms": _ms(percentile([s.end - s.due for s in reference_reads], 50)),
        "http.request_bytes": median([s.request_bytes for s in posts]),
        "http.response_bytes": median([s.response_bytes for s in posts]),
        "http.status_202": statuses.count(202),
        "http.status_429": statuses.count(429),
        "http.status_other": sum(1 for code in statuses if code not in (200, 202, 429)),
        "daemon.admit_p50_ms": _stage(metrics, "admit", "p50"),
        "daemon.queue_wait_p50_ms": _stage(metrics, "queue_wait", "p50"),
        "daemon.queue_wait_p99_ms": _stage(metrics, "queue_wait", "p99"),
        "daemon.epoch_p50_ms": _stage(metrics, "epoch", "p50"),
        "daemon.epoch_p99_ms": _stage(metrics, "epoch", "p99"),
        "daemon.decision_p50_ms": _stage(metrics, "decision", "p50"),
        "daemon.epochs": server.get("epochs"),
        "daemon.batch_per_epoch": ratio(decided, server.get("epochs")),
        "daemon.peak_queue_depth": server.get("peak_queue_depth"),
        "daemon.refused_share": ratio(server.get("rejected"), offered),
        "daemon.drain_rate_ewma": server.get("drain_rate"),
        "store.persisted": server.get("persisted"),
        "core.cohort_hits": summary.get("cohort_hits"),
        "core.cohort_splits": summary.get("cohort_splits"),
        "core.cohort_capture": ratio(summary.get("cohort_hits"), decided),
        "core.scheduling_rounds": stack.registry_value(
            registry, "counters", "engine_scheduling_rounds"
        ),
        "core.queries_launched": launches,
        # Epoch time stands in for run time: the daemon publishes no other.
        "core.us_per_launch": ratio(
            None if epochs_ms is None else epochs_ms * 1e3 * (server.get("epochs") or 0), launches
        ),
        "simdb.events_executed": events,
        "simdb.events_per_inst": ratio(events, decided),
        "simdb.db_units": stack.registry_value(registry, "gauges", "db_total_units"),
        "simdb.cache_hits": summary.get("query_cache_hits"),
        "simdb.cache_misses": summary.get("query_cache_misses"),
        "simdb.cache_coalesced": summary.get("query_cache_coalesced"),
        "simdb.cache_hit_ratio": ratio(summary.get("query_cache_hits"), lookups),
        "simdb.pooled_batches": dispatch.get("pooled_batches"),
        "simdb.pooled_events_per_batch": ratio(
            dispatch.get("pooled_events"), dispatch.get("pooled_batches")
        ),
    }


def _timed_start(db_path, source: str, warm: float, observe: bool = False):
    """A started, warmed-up server and when its warm-up instance was decided."""
    server = Server(db_path, observe=observe)
    try:
        first_id = decide_one(server.port, source, warm)
    except BaseException:
        server.__exit__()
        raise
    return server, first_id, time.time()


def _setup_sample(server: Server, ready: float, cpu_s: float) -> tuple[float, float]:
    """A stopped server's set-up time: (as clocked, rescaled)."""
    return (
        ready - server.spawned,
        hostspeed.nominal(server.host_samples, server.spawned, ready, cpu_s),
    )


def _window_factor(server: Server, row: dict) -> float:
    """What a timing taken inside a rung's window is multiplied by."""
    start, end = row["window"]
    return hostspeed.nominal(server.host_samples, start, end, row["server_cpu_s"]) / (end - start)


def _ladder(workload: Workload, seed, seconds: float, scale: Scale, traced: bool,
            extra_starts: int, rep: str, tmp_dir) -> dict:
    """Start a server, warm it up, run the ladder, stop it, check the store."""
    flow = stack.pattern()
    source = flow.schema.source_names[0]
    tracer = Tracer(workload.name, rep, enabled=traced)
    warm = warmup_values(seed, 1)[0]
    layer: dict = {}

    setups = []   # (seconds as clocked, rescaled) per server start
    # A sweep run sets up once per repetition; a serve run has one ladder,
    # so throw-away starts give its set-up time a median to report.
    for sample in range(extra_starts):
        server, _, ready = _timed_start(tmp_dir / f"setup-{rep}-{sample}.sqlite", source, warm)
        with server:
            cpu_s = stack.tree_usage(server.pid)[0]
            server.stop()
        setups.append(_setup_sample(server, ready, cpu_s))

    started = time.perf_counter()
    plan = serve_plan(workload, seed, seconds)
    layer["workload.generate_s"] = time.perf_counter() - started
    layer["workload.distinct_valuations"] = sum(len(op.values) for rung in plan for op in rung.ops)
    db_path = tmp_dir / f"{workload.name}-{rep}.sqlite"
    with tracer.span("setup"):
        server, first_id, ready = _timed_start(db_path, source, warm, observe=traced)
    with server:
        cpu0, _ = stack.tree_usage(server.pid)
        ladder = Ladder(server, source, stack.senders(), tracer, first_id)
        with tracer.span("ladder"):
            ladder.run(plan, fetch_metrics=traced)
        cpu1, peak_rss_mb = stack.tree_usage(server.pid)
        ladder_end = time.time()
        if traced:
            with tracer.span("probe.connections"):
                layer.update(probes.connection_rtts(server.port, source, seed, scale))
        clean = server.stop()
    setups.append(_setup_sample(server, ready, cpu0))

    started = time.perf_counter()
    with tracer.span("bench.verify"):
        instances, good_reads = _join_store(ladder.sent, db_path, flow, (first_id, warm))
    verify_s = time.perf_counter() - started

    rows = _rung_rows(ladder, instances, workload.batch)
    reference, top = rows[0], rows[-1]
    posts = [s for s in ladder.sent if s.op.kind == POST]
    reads = [s for s in ladder.sent if s.op.kind == GET]
    decided = sum(1 for i in instances if i.completed is not None)
    # The instances of one POST share their fate, so POSTs are the
    # samples; their expected number, so that every seed reports the
    # same percentile.
    post_share = 1.0 - 1.0 / workload.read_every if workload.read_every else 1.0
    tail_q = tail_percentile(plan[0].rate / workload.batch * plan[0].seconds * post_share)
    p50 = _ms(percentile(reference["latencies"], 50))
    tail = _ms(percentile(reference["latencies"], tail_q))
    server_cpu_s = cpu1 - cpu0 - hostspeed.sampler_cpu(server.host_samples, ready, ladder_end)
    cpu_s_per_kinst = ratio(server_cpu_s, decided / 1000.0)
    read_latencies = [s.end - s.due for s in reads if s.rung == 0 and s.status == 200]
    # Timings are rescaled to the nominal host speed of their own
    # window, by the share of it the server was CPU-busy; the readings
    # as the clock gave them are kept under "raw".
    ladder_speed = hostspeed.speed(server.host_samples, ready, ladder_end)
    reference_factor = _window_factor(server, reference)
    top_wall = plan[-1].seconds * _window_factor(server, top)
    stolen_share = hostspeed.stolen(server.host_samples, ready, ladder_end) / (ladder_end - ready)
    layer["bench.host_speed"] = ladder_speed
    layer["bench.stolen_share"] = stolen_share
    if traced:
        layer.update(_layer_metrics(ladder, rows, tail_q))
        layer["obs.spans_recorded"] = len(tracer.spans)
    return {
        "clean_shutdown": clean, "lost": sum(1 for i in instances if i.completed is None),
        "attempted": sum(len(s.op.values) for s in posts) + len(reads),
        "refused": sum(row["refused"] for row in rows),
        "correct": sum(1 for i in instances if i.ok) + good_reads,
        "verify_s": verify_s,
        "e2e": {
            "setup_s": median(rescaled for _, rescaled in setups),
            "throughput_inst_s": top["completions"] / top_wall,
            "cpu_s_per_kinst": _scaled(cpu_s_per_kinst, ladder_speed),
            "peak_rss_mb": peak_rss_mb,
        },
        "raw": {
            "setup_s": median(clocked for clocked, _ in setups),
            "throughput_inst_s": top["completions"] / plan[-1].seconds,
            "cpu_s_per_kinst": cpu_s_per_kinst,
            "host_speed": ladder_speed, "stolen_share": stolen_share,
        },
        "extra": {
            "decision_p50_ms": _scaled(p50, reference_factor),
            "decision_tail_ms": _scaled(tail, reference_factor),
            "max_rate_ok": _max_rate_ok(rows),
            "read_p50_ms": _ms(percentile(read_latencies, 50)),
        },
        "tail_percentile": tail_q,
        "tail_samples": sum(1 for s in posts if s.rung == 0 and s.status == 202),
        "n": sum(row["scheduled"] for row in rows),
        "rungs": [{k: v for k, v in row.items() if k not in ("latencies", "metrics", "window")}
                  for row in rows],
        "generator_lag_ms": (reference["lag_p50_ms"], reference["lag_max_ms"]),
        "layer": layer, "spans": tracer.spans,
        "shares": self_shares(tracer.spans, "ladder") if traced else {},
    }


def run(workload: Workload, seed, seconds: float, scale: Scale, mode: str, tmp_dir) -> dict:
    """One run: *mode* is ``untraced``, ``traced`` or ``smoke``.

    A traced run spends half its time on an untraced ladder, so the
    end-to-end numbers and the tracing overhead come from the same run;
    a smoke run has only the traced ladder.
    """
    if mode == "untraced":
        plain = _ladder(workload, seed, seconds, scale, False, scale.extra_starts, "u", tmp_dir)
        return {**plain, "layer": None}
    if mode == "smoke":
        parts = [_ladder(workload, seed, seconds, scale, True, 0, "t", tmp_dir)]
    else:
        parts = [
            _ladder(workload, seed, seconds / 2, scale, False, 0, "u", tmp_dir),
            _ladder(workload, seed, seconds / 2, scale, True, 0, "t", tmp_dir),
        ]
    plain, traced = parts[0], parts[-1]
    layer = dict(traced["layer"])
    layer["bench.trace_overhead_ratio"] = ratio(
        plain["e2e"]["throughput_inst_s"], traced["e2e"]["throughput_inst_s"]
    )
    layer["bench.generator_lag_p50_ms"], layer["bench.generator_lag_max_ms"] = (
        traced["generator_lag_ms"]
    )
    layer["bench.verify_s"] = traced["verify_s"]
    # What a user sees comes from the untraced ladder, like the rung rows.
    layer["serve.max_rate_ok"] = plain["extra"]["max_rate_ok"]
    layer["bench.decision_p50_ms"] = plain["extra"]["decision_p50_ms"]
    layer["bench.decision_tail_ms"] = plain["extra"]["decision_tail_ms"]
    if workload.batch > 1:
        layer.update(probes.daemon_inproc_drain(seed, scale, tmp_dir))
        layer.update(probes.store_costs(scale, tmp_dir))
    return {
        **plain,
        "clean_shutdown": all(part["clean_shutdown"] for part in parts),
        **{key: sum(part[key] for part in parts)
           for key in ("lost", "attempted", "refused", "correct")},
        "layer": layer, "spans": traced["spans"], "shares": traced["shares"],
    }
