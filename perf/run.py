"""The repo's benchmark: seven named workloads against the fast stack,
every decision checked against the declarative oracle, every metric
printed by name with its unit.

    python perf/run.py [--workload W] [--seed S] [--trace] [--runs K]
                       [--smoke] [--out FILE]

Without ``--workload`` all seven run.  End-to-end metrics come from
untraced runs; ``--trace`` makes the run a traced one, which prints the
per-layer metrics and writes the spans to ``perf/out/trace_<W>.json``.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the verdict and the
counts cover every workload run, the metrics are the last one's.  The
exit code is non-zero if any workload was not correct.

The benchmark driver appends ``--seconds <run_seconds> --trace <0|1>``
to the command in ``BENCHMARK.json``, which is why ``--trace`` takes an
optional value and ``--seconds`` exists; run length is otherwise the
constant ``run_seconds`` declared there, and ``compare.py`` refuses two
files made with different lengths.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import stack

if not stack.SRC.is_dir():
    sys.exit(f"perf/run.py: the program under test is missing: no {stack.SRC}")
stack.add_src_to_path()

import probes  # noqa: E402 - needs src/ on the path
import serve  # noqa: E402
from spans import self_shares  # noqa: E402
from stats import median, quartiles  # noqa: E402
from workloads import BY_NAME, FULL, SMOKE, WORKLOADS, Scale, Workload, sweep_items  # noqa: E402

DEFAULT_SEED = 11
#: Ceiling on fresh-process repetitions of one run.
MAX_REPS = 7
#: Layer metrics read from the program's registry, armed repetition only.
ARMED_ONLY = ("core.scheduling_rounds", "obs.spans_recorded")
_CHILD_TIMEOUT_S = 170.0


def load_declaration() -> dict:
    return json.loads((stack.ROOT / "BENCHMARK.json").read_text())


# -- sweeps and the fleet: repetitions in fresh child processes ---------------


def _child(workload: Workload, seed, scale: Scale, oracle_path, rep: str,
           traced: bool = False, armed: bool = False, variant: str = "fast") -> dict:
    """One repetition: *traced* records harness spans, *armed* runs the
    program with ``observe=True`` so its registry can be read."""
    spec = {
        "workload": workload.name, "seed": seed, "smoke": scale is SMOKE,
        "traced": traced, "armed": armed, "variant": variant, "rep": rep,
        "oracle": str(oracle_path), "spawned": time.time(),
    }
    done = subprocess.run(
        [sys.executable, str(stack.PERF_DIR / "sweep_child.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=_CHILD_TIMEOUT_S,
        env=stack.child_env(), cwd=str(stack.ROOT),
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload.name} repetition {rep} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _write_oracle(workload: Workload, seed, scale: Scale, path) -> float:
    """The oracle's values per distinct valuation, for the children."""
    started = time.perf_counter()
    oracle = stack.oracle_values(
        stack.pattern(), (value for _, value in sweep_items(workload, seed, scale))
    )
    with open(path, "wb") as stream:
        pickle.dump(oracle, stream)
    return time.perf_counter() - started


def run_sweep(workload: Workload, seed, seconds: float, scale: Scale, mode: str, tmp_dir) -> dict:
    started = time.perf_counter()
    oracle_path = tmp_dir / "oracle.pickle"
    oracle_s = _write_oracle(workload, seed, scale, oracle_path)
    children = []  # every repetition of this run; each one is verified

    def child(rep: str, **options) -> dict:
        children.append(_child(workload, seed, scale, oracle_path, rep, **options))
        return children[-1]

    traced, layer = None, None
    if mode == "untraced":
        # At least ``min_reps`` repetitions, and more while another one
        # as long as the last still fits in *seconds*.
        plain = []
        while len(plain) < MAX_REPS:
            rep_started = time.perf_counter()
            plain.append(child(f"u{len(plain)}"))
            now = time.perf_counter()
            if len(plain) >= scale.min_reps and (now - started) + (now - rep_started) > seconds:
                break
    else:
        # End-to-end numbers come from an untraced repetition, layer
        # timings from one with harness spans only, and the program's
        # own registry from a third with ``observe=True``, whose cost
        # must not leak into the timings.  A smoke run folds all three
        # into one.
        smoke = mode == "smoke"
        plain = [] if smoke else [child("u0")]
        traced = child("t0", traced=True, armed=smoke)
        armed = traced if smoke else child("a0", armed=True)
        plain = plain or [traced]
        layer = dict(traced["layer"])
        layer.update({name: armed["layer"].get(name) for name in ARMED_ONLY})
        layer["bench.trace_overhead_ratio"] = traced["wall_s"] / plain[0]["wall_s"]
        layer["obs.armed_throughput_ratio"] = (
            armed["e2e"]["throughput_inst_s"] / plain[0]["e2e"]["throughput_inst_s"]
        )
        layer["bench.verify_s"] = oracle_s + traced["verify_s"]
        if workload.kind == "fleet":
            single = child("s0", variant="single")
            layer["runtime.speedup_vs_single"] = (
                plain[0]["e2e"]["throughput_inst_s"] / single["e2e"]["throughput_inst_s"]
            )
        if workload.backend == "profiled":
            layer.update(probes.simdb_query_costs(seed, scale))
    # The simulated database and the cache and cohort layers are
    # deterministic: on a sweep their counters repeat exactly.
    repeatable = workload.kind != "sweep" or all(
        rep["counters"] == plain[0]["counters"] for rep in plain
    )
    medians = {
        kind: {name: median(rep[kind][name] for rep in plain) for name in plain[0][kind]}
        for kind in ("e2e", "raw")
    }
    samples = {name: [rep["e2e"][name] for rep in plain] for name in plain[0]["e2e"]}
    return {
        "n": plain[0]["n"],
        "attempted": sum(rep["n"] for rep in children),
        "correct": sum(rep["correct"] for rep in children),
        "refused": 0,
        "counters_repeat": repeatable,
        "reps": len(plain),
        **medians,
        "e2e_reps": samples,
        "extra": {},
        "layer": layer,
        "spans": traced["spans"] if traced else [],
        "shares": self_shares(traced["spans"], "timed") if traced else {},
    }


# -- one run of one workload ---------------------------------------------------


def run_workload(workload: Workload, seed, seconds: float, scale: Scale, mode: str) -> dict:
    stack.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=stack.OUT_DIR, prefix="tmp-") as tmp:
        runner = serve.run if workload.kind == "serve" else run_sweep
        result = runner(workload, seed, seconds, scale, mode, Path(tmp))
    failed = result["attempted"] - result["correct"] - result["refused"]
    result.update({
        "workload": workload.name, "seed": seed, "seconds": seconds, "mode": mode,
        "failed": failed,
        "ok": failed == 0
        and result.get("counters_repeat", True)
        and result.get("clean_shutdown", True)
        and result.get("lost", 0) == 0
        and all(value is not None for value in result["e2e"].values()),
    })
    result["extra"]["failed_share"] = failed / max(1, result["attempted"])
    if result["layer"] is not None:
        result["layer"]["bench.failed_share"] = result["extra"]["failed_share"]
    return result


def result_line(results: list[dict], declaration: dict, traced: bool) -> str:
    """The driver's result object.  The verdict and the counts cover
    every workload run; the metrics are the last one's: every declared
    end-to-end metric, or with ``--trace 1`` every per-layer one, a
    number each (a layer the workload does not touch reads 0)."""
    last = results[-1]
    if traced:
        declared, values = declaration["per_layer"], last["layer"]
    else:
        declared, values = declaration["end_to_end"], last["e2e"]
    metrics = {}
    for metric in declared:
        value = values.get(metric["name"])
        metrics[metric["name"]] = {"value": 0 if value is None else value, "unit": metric["unit"]}
    return json.dumps({
        "correct": all(result["ok"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    })


# -- printing ------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_result(result: dict, declaration: dict) -> None:
    units = {m["name"]: m["unit"] for m in declaration["end_to_end"] + declaration["per_layer"]}
    print(f"== {result['workload']}  seed={result['seed']}  mode={result['mode']}  "
          f"N={result['n']}  attempted={result['attempted']}  failed={result['failed']}  "
          f"refused={result['refused']}  {'ok' if result['ok'] else 'NOT OK'}")
    if "tail_percentile" in result:
        print(f"   decision_tail_ms is p{result['tail_percentile']:g} over "
              f"{result['tail_samples']} samples")
    for name, value in result["e2e"].items():
        spread = ""
        samples = result.get("e2e_reps", {}).get(name, ())
        quarts = quartiles(samples)
        if quarts:
            spread = f"   [q1 {_fmt(quarts[0])}  q3 {_fmt(quarts[1])}  of {len(samples)}]"
        raw = result["raw"].get(name)
        raw = "" if raw is None else f"   (as clocked: {_fmt(raw)})"
        print(f"   {name:<32} {_fmt(value):>14} {units.get(name, ''):<10}{raw}{spread}")
    print(f"   host while measured: speed {_fmt(result['raw']['host_speed'])} of nominal, "
          f"{_fmt(result['raw']['stolen_share'])} of the time stolen")
    for name, value in result["extra"].items():
        print(f"   {name:<32} {_fmt(value):>14}")
    for row in result.get("rungs", ()):
        print(f"   rung {row['rate']:>5g}/s {row['seconds']:.2f}s  scheduled={row['scheduled']} "
              f"accepted={row['accepted']} refused={row['refused']} "
              f"unsent_requests={row['unsent_requests']} in_time={row['in_time']} "
              f"backlog_growth={row['backlog_growth']} ok={row['ok']} "
              f"lag_p50={_fmt(row['lag_p50_ms'])}ms status={row['status']}")
    if result["layer"] is not None:
        for name in sorted(result["layer"]):
            print(f"   {name:<32} {_fmt(result['layer'][name]):>14} {units.get(name, '')}")
        shares = "  ".join(f"{name}={share:.1%}" for name, share in result["shares"].items())
        print(f"   self-time shares: {shares}")


def write_trace(result: dict) -> None:
    stack.OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = stack.OUT_DIR / f"trace_{result['workload']}.json"
    path.write_text(json.dumps({
        "workload": result["workload"], "seed": result["seed"],
        "self_time_share": result["shares"], "spans": result["spans"],
    }) + "\n")


# -- entry ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    declaration = load_declaration()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=declaration["run_seconds"],
                        help="the driver's argument: always the declared run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="a traced run; the driver writes it as --trace 0|1")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, each with the next seed")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, one traced repetition: checks the plumbing only")
    parser.add_argument("--out", default=None, help="write every run's record to this file")
    args = parser.parse_args(argv)

    scale = SMOKE if args.smoke else FULL
    mode = "smoke" if args.smoke else ("traced" if args.trace else "untraced")
    seconds = min(args.seconds, 1.0) if args.smoke else args.seconds
    chosen = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    results = []
    for run_index in range(args.runs):
        for workload in chosen:
            result = run_workload(workload, args.seed + run_index, seconds, scale, mode)
            print_result(result, declaration)
            if result["layer"] is not None:
                write_trace(result)
            results.append({k: v for k, v in result.items() if k != "spans"})
    if args.out:
        document = {
            "host": stack.host_record(), "seed": args.seed, "runs": args.runs,
            "seconds": seconds, "mode": mode, "records": results,
        }
        with open(args.out, "w") as stream:
            json.dump(document, stream, indent=1)
            stream.write("\n")
    print(result_line(results, declaration, bool(args.trace)))
    return 0 if all(result["ok"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
