"""Command-line entry point: paper experiments and ad-hoc simulations.

Usage::

    python -m repro list                 # show available experiments
    python -m repro run fig5a            # run one experiment, print it
    python -m repro run all --seeds 4    # run everything
    python -m repro run fig9a --out results/ --json

    python -m repro simulate --code PSE80 --backend bounded --rate 10 \\
        --instances 200                  # drive a DecisionService directly
    python -m repro simulate --code PSE80 --instances 10000 \\
        --shards 4 --executor process    # persistent shard-worker fleet

    python -m repro serve --port 8080 --code PSE80 --query-cache \\
        --dispatch pooled --db runs.sqlite   # streaming daemon (HTTP/JSON)

Each experiment prints its table (and an ASCII shape chart) and, with
``--out``, also writes it to ``<out>/<figure_id>.txt``.  ``--json``
switches to machine-readable output (and ``.json`` files with ``--out``).

``simulate`` runs a Table-1 workload pattern through the high-level
:class:`repro.api.DecisionService` on any registered backend, either as a
closed loop (``--concurrency``) or an open Poisson stream (``--rate``);
``--shards N`` partitions the population across the sharded runtime
(``--executor process`` keeps one long-lived worker process per shard;
instances route to their stable hash home shard, and each shard's
``--query-cache`` is its own).

``serve`` exposes the same workload as a long-running HTTP/JSON daemon
(:mod:`repro.server`): streaming submissions with admission control and
backpressure, NDJSON event streaming, a metrics endpoint, and SQLite
persistence of completed runs (``--db``).  Ctrl-C shuts it down
gracefully (drain, flush, exit code 130).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench import figures

#: name → (callable accepting seeds, takes_seeds)
EXPERIMENTS: dict[str, tuple] = {
    "table1": (figures.table1, False),
    "fig5a": (figures.fig5a, True),
    "fig5b": (figures.fig5b, True),
    "fig6a": (figures.fig6a, True),
    "fig6b": (figures.fig6b, True),
    "fig7a": (figures.fig7a, True),
    "fig7b": (figures.fig7b, True),
    "fig8a": (figures.fig8a, True),
    "fig8b": (figures.fig8b, True),
    "fig9a": (figures.fig9a, False),
    "fig9b": (figures.fig9b, True),
    "ablation-halt": (figures.ablation_halt_policy, True),
    "ablation-cancel": (figures.ablation_cancel_unneeded, True),
    "ablation-profile": (figures.ablation_profile_mode, True),
    "ablation-sharing": (figures.ablation_sharing, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the evaluation of Hull et al., ICDE 2000.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run.add_argument(
        "--seeds", type=int, default=6, help="pattern seeds to average over (default 6)"
    )
    run.add_argument(
        "--out", type=Path, default=None, help="directory to write <figure_id>.txt files"
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of rendered tables",
    )

    simulate = sub.add_parser(
        "simulate", help="run a generated workload through the repro.api DecisionService"
    )
    _add_workload_arguments(simulate)
    simulate.add_argument(
        "--instances", type=int, default=25, help="instances to run (default 25)"
    )
    simulate.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open system: Poisson arrivals per second (1s = 1000 clock ticks); "
        "omit for a closed loop",
    )
    simulate.add_argument(
        "--concurrency",
        type=int,
        default=1,
        help="closed system: instances kept in flight (default 1; ignored with --rate)",
    )
    simulate.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="write the run's flight-recorder spans as Chrome-trace JSON "
        "(loadable in about:tracing / Perfetto; implies --observe)",
    )
    simulate.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    serve = sub.add_parser(
        "serve",
        help="run the streaming decision-service daemon (HTTP/JSON over stdlib)",
    )
    _add_workload_arguments(serve)
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port (default 8080; 0 = ephemeral)"
    )
    serve.add_argument(
        "--db",
        type=Path,
        default=None,
        help="SQLite path for completed run records (restarts keep serving "
        "finished work); omit to run without persistence",
    )
    serve.add_argument(
        "--high-water",
        type=int,
        default=256,
        help="arrival-queue bound: past it, POST /instances gets 429 with a "
        "Retry-After derived from the observed drain rate (default 256)",
    )
    serve.add_argument(
        "--stall-after",
        type=float,
        default=None,
        help="heartbeat age (wall seconds) past which GET /healthz reports "
        "the drain loop wedged with a 503 (default 30)",
    )
    serve.add_argument(
        "--ticks-per-second",
        type=float,
        default=1000.0,
        help="wall-to-DES clock scale: simulated ticks per wall second "
        "(default 1000, the ms-clock convention)",
    )
    serve.add_argument(
        "--json", action="store_true", help="emit the startup banner as JSON"
    )
    return parser


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``simulate`` and ``serve``: pattern + execution recipe."""
    parser.add_argument(
        "--code", default="PCE0", help="strategy code, e.g. PSE80 (default PCE0)"
    )
    parser.add_argument(
        "--backend",
        default="ideal",
        help="registered backend name: ideal, bounded, profiled (default ideal)",
    )
    parser.add_argument("--nb-rows", type=int, default=4, help="pattern rows (default 4)")
    parser.add_argument(
        "--nb-nodes", type=int, default=64, help="pattern internal nodes (default 64)"
    )
    parser.add_argument(
        "--pct-enabled", type=float, default=50.0, help="%% enabled nodes (default 50)"
    )
    parser.add_argument(
        "--pattern-seed", type=int, default=0, help="workload generator seed (default 0)"
    )
    parser.add_argument(
        "--engine",
        choices=("reference", "batched"),
        default="reference",
        help="execution engine: the name-keyed reference engine (default) or "
        "the compiled-plan batched engine (identical results; faster on "
        "multi-instance sweeps, required for --cohorts to take effect)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="hash-partition instances across N independent engine+DES shards "
        "(default 1 = a plain DecisionService)",
    )
    parser.add_argument(
        "--executor",
        choices=("serial", "process"),
        default="serial",
        help="how to drive the shards: in-process ('serial', deterministic "
        "default) or one long-lived worker process per shard ('process'; "
        "identical results, incremental — 'serve' streams its drain epochs "
        "to the persistent fleet)",
    )
    parser.add_argument(
        "--halt", choices=("cancel", "drain"), default="cancel", help="halt policy"
    )
    parser.add_argument(
        "--dispatch",
        choices=("per-event", "pooled"),
        default="per-event",
        help="DES drain mode: step one event at a time ('per-event', the "
        "reference) or consume same-instant event pools in one pass "
        "('pooled'; identical results — pays off on pool-heavy sweeps, "
        "best combined with --query-cache)",
    )
    parser.add_argument(
        "--query-cache",
        action="store_true",
        help="coalesce identical in-flight queries into one database dispatch "
        "and memo-serve repeated ones (per shard; counters in the summary)",
    )
    parser.add_argument(
        "--cohorts",
        action="store_true",
        help="dedupe whole instances on the batched engine: same-instant "
        "submissions from one start valuation run once, the rest riding "
        "the first one's cached queries (identical results; needs "
        "--query-cache, inert without; the summary counts joins as hits "
        "and members that had to leave a cohort early as splits)",
    )
    parser.add_argument(
        "--share", action="store_true", help="share query results across instances"
    )
    parser.add_argument(
        "--observe",
        action="store_true",
        help="arm the repro.obs layer: per-phase span tracing plus a "
        "mergeable metrics registry (counters/gauges/latency histograms); "
        "identical results, small constant overhead",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="backend/arrival seed (default 0)"
    )


def _slug(figure_id: str) -> str:
    return figure_id.lower().replace(" ", "_").replace("(", "").replace(")", "")


def run_experiment(name: str, seeds: int, out: Path | None, as_json: bool = False) -> None:
    fn, takes_seeds = EXPERIMENTS[name]
    result = fn(tuple(range(seeds))) if takes_seeds else fn()
    text = result.render_json() if as_json else result.render()
    print(text)
    print()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        extension = "json" if as_json else "txt"
        (out / f"{_slug(result.figure_id)}.{extension}").write_text(text + "\n")


def _build_workload(args: argparse.Namespace):
    """The (pattern, config) pair shared by ``simulate`` and ``serve``."""
    from repro.api import ExecutionConfig
    from repro.workload.generator import generate_pattern
    from repro.workload.params import PatternParams

    params = PatternParams(
        nb_nodes=args.nb_nodes,
        nb_rows=args.nb_rows,
        pct_enabled=args.pct_enabled,
        seed=args.pattern_seed,
    )
    pattern = generate_pattern(params)
    config = ExecutionConfig.from_code(
        args.code,
        halt_policy=args.halt,
        share_results=args.share,
        backend=args.backend,
        engine=args.engine,
        shards=args.shards,
        executor=args.executor,
        dispatch=args.dispatch,
        query_cache=args.query_cache,
        cohorts=args.cohorts,
        # --trace needs the recorder armed even without an explicit --observe.
        observe=args.observe or getattr(args, "trace", None) is not None,
        # Every built-in backend accepts a seed; third-party factories may
        # not, so only forward it where it is known to be understood.
        backend_options=(
            {"seed": args.seed}
            if args.backend in ("ideal", "bounded", "profiled")
            else {}
        ),
    )
    return pattern, config


def run_simulate(args: argparse.Namespace) -> int:
    from repro.runtime import ShardedDecisionService, create_service
    from repro.simdb.rng import derive_rng

    pattern, config = _build_workload(args)
    service = create_service(pattern.schema, config)

    if args.rate is not None:
        arrival_rng = derive_rng(args.seed, "simulate-arrivals", args.code, args.rate)
        arrival_time, arrivals = 0.0, []
        for _ in range(args.instances):
            arrival_time += arrival_rng.expovariate(args.rate / 1000.0)
            arrivals.append(arrival_time)
        service.submit_stream(arrivals, values=pattern.source_values)
        mode = f"open @ {args.rate:g}/s"
    else:
        service.run_closed(
            args.instances, concurrency=args.concurrency, values=pattern.source_values
        )
        mode = f"closed x{args.concurrency}"

    summary = service.summary()
    sharded = isinstance(service, ShardedDecisionService)
    if sharded:
        time_unit = service.time_unit()
        mean_gmpl = service.mean_gmpl()
        mode = f"{mode} [{config.shards} shards, {config.executor}]"
    else:
        time_unit = service.backend.time_unit
        mean_gmpl = service.database.mean_gmpl()
    payload = {
        "schema": pattern.schema.name,
        "strategy": config.code,
        "backend": config.backend,
        "engine": config.engine,
        "time_unit": time_unit,
        "mode": mode,
        "shards": config.shards,
        "executor": config.executor,
        "instances": summary.count,
        "mean_work": summary.mean_work,
        "mean_elapsed": summary.mean_elapsed,
        "mean_queries_launched": summary.mean_queries_launched,
        "total_work": summary.total_work,
        "sim_time": service.now,
        "mean_gmpl": mean_gmpl,
        "dispatch": config.dispatch,
        "query_cache": config.query_cache,
        "query_cache_hits": summary.query_cache_hits,
        "query_cache_misses": summary.query_cache_misses,
        "query_cache_coalesced": summary.query_cache_coalesced,
        "cohorts": config.cohorts,
        "cohort_hits": summary.cohort_hits,
        "cohort_splits": summary.cohort_splits,
        **service.dispatch_stats(),
        "observe": config.observe,
    }
    if config.observe:
        payload["observability"] = service.observability()
    if args.trace is not None:
        args.trace.parent.mkdir(parents=True, exist_ok=True)
        trace = service.chrome_trace()
        args.trace.write_text(json.dumps(trace) + "\n")
        payload["trace"] = {
            "path": str(args.trace),
            "events": len(trace["traceEvents"]),
        }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{payload['schema']}: {payload['instances']} instances under "
            f"{payload['strategy']} on {payload['backend']} ({mode})"
        )
        print(
            f"  mean Work = {payload['mean_work']:.1f} units   "
            f"mean response = {payload['mean_elapsed']:.1f} {time_unit}"
        )
        print(
            f"  total work = {payload['total_work']} units   "
            f"sim time = {payload['sim_time']:.1f}   mean Gmpl = {payload['mean_gmpl']:.2f}"
        )
        if config.query_cache:
            print(
                f"  query cache: {payload['query_cache_hits']} hits   "
                f"{payload['query_cache_misses']} misses   "
                f"{payload['query_cache_coalesced']} coalesced"
            )
        if config.cohorts:
            print(
                f"  cohorts: {payload['cohort_hits']} hits   "
                f"{payload['cohort_splits']} splits"
            )
        if config.dispatch == "pooled":
            print(
                f"  pooled dispatch: {payload['pooled_batches']} batches   "
                f"{payload['pooled_events']} events"
            )
        if args.trace is not None:
            print(
                f"  trace: {payload['trace']['events']} events -> "
                f"{payload['trace']['path']}"
            )
    if sharded:
        service.close()  # shut persistent shard workers down, if any
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: daemon + HTTP front, until interrupted."""
    from repro.server import ServerDaemon, create_server

    pattern, config = _build_workload(args)
    extra = {} if args.stall_after is None else {"stall_after": args.stall_after}
    daemon = ServerDaemon(
        pattern.schema,
        config,
        db=None if args.db is None else str(args.db),
        high_water=args.high_water,
        default_values=pattern.source_values,
        ticks_per_second=args.ticks_per_second,
        **extra,
    )
    server = create_server(daemon, args.host, args.port)
    banner = {
        "serving": pattern.schema.name,
        "url": f"http://{args.host}:{server.port}",
        "strategy": config.code,
        "backend": config.backend,
        "shards": config.shards,
        "executor": config.executor,
        "high_water": args.high_water,
        "db": None if args.db is None else str(args.db),
        "config_hash": daemon.config_digest,
    }
    if args.json:
        print(json.dumps(banner), flush=True)
    else:
        persistence = banner["db"] or "none (in-memory records only)"
        print(
            f"serving {banner['serving']} at {banner['url']} "
            f"({config.code} on {config.backend}, {config.shards} shard(s), "
            f"{config.executor} executor)\n"
            f"  persistence: {persistence}\n"
            f"  queue high-water mark: {args.high_water}  "
            f"config hash: {daemon.config_digest}\n"
            "  endpoints: POST /instances | GET /instances/<id> | "
            "GET /events | GET /metrics[?format=prometheus] | "
            "GET /trace | GET /healthz",
            flush=True,
        )
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        # Graceful exit on SIGINT (KeyboardInterrupt propagates to main):
        # stop accepting, drain every accepted instance, flush the store.
        server.shutdown()
        server.server_close()
        daemon.shutdown()
        stats = daemon.server_stats()
        closing = {
            "accepted": stats["accepted"],
            "completed": stats["completed"],
            "rejected": stats["rejected"],
            "persisted": stats["persisted"],
        }
        if args.json:
            print(json.dumps({"shutdown": closing}), flush=True)
        else:
            print(
                f"shut down cleanly: {closing['completed']}/{closing['accepted']} "
                f"accepted instances completed, {closing['persisted']} persisted, "
                f"{closing['rejected']} rejected",
                flush=True,
            )
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, (fn, _) in EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<{width}}  {doc}")
        return 0
    if args.command == "simulate":
        return run_simulate(args)
    if args.command == "serve":
        return run_serve(args)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        run_experiment(name, args.seeds, args.out, as_json=args.json)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except KeyboardInterrupt:
        # Long-running subcommands (serve, big simulates) are interrupted
        # with Ctrl-C in normal operation; exit with the conventional
        # 128+SIGINT code instead of a traceback.
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as error:
        # Machine-readable mode promises machine-readable failures too.
        if getattr(args, "json", False):
            print(
                json.dumps(
                    {"error": {"type": type(error).__name__, "message": str(error)}}
                )
            )
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
