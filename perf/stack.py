"""The system under test as the benchmark sees it: where it lives, the
fast-stack recipe, the flow pattern, and the host the numbers came from.

Everything here goes through the program's public surfaces only, and
:func:`fast_config` asks ``ExecutionConfig`` which axes still exist, so
a later PR can delete an axis whose fast value became the only path
without breaking the ruler.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"
OUT_DIR = PERF_DIR / "out"

STRATEGY = "PSE100"

#: The fast stack: the fastest value of every execution axis.
FAST_STACK = {
    "engine": "batched",
    "dispatch": "pooled",
    "query_cache": True,
    "cohorts": True,
}

#: Serve workloads: admission bound of the daemon under test, and the
#: sender threads (= persistent connections) of the load generator.
HIGH_WATER = 256
SENDERS = 2


def add_src_to_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment of every process the harness starts."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def fast_config(**extra):
    """The fast-stack ``ExecutionConfig``, plus workload-specific *extra*
    fields (``backend``, ``shards``, ``executor``, ``observe``).

    Only keywords that ``ExecutionConfig`` still declares are passed.
    """
    from repro.api import ExecutionConfig

    declared = {f.name for f in dataclasses.fields(ExecutionConfig)}
    wanted = {**FAST_STACK, **extra}
    return ExecutionConfig.from_code(
        STRATEGY, **{k: v for k, v in wanted.items() if k in declared}
    )


def pattern():
    """The one generated flow pattern every workload executes."""
    from repro import PatternParams, generate_pattern

    return generate_pattern(PatternParams(nb_rows=4, pct_enabled=50, seed=7))


def oracle_values(flow, valuations) -> dict:
    """The declarative oracle's stable values per distinct valuation."""
    from repro.core.snapshot import evaluate_schema

    source = flow.schema.source_names[0]
    return {
        value: evaluate_schema(flow.schema, {source: value}).values
        for value in set(valuations)
    }


def registry_value(snapshot, kind: str, name: str):
    """The sum of the entries called *name* among a registry snapshot's
    *kind* ("counters" or "gauges"), as ``observability()`` and
    ``GET /metrics`` publish it; None once it is gone."""
    try:
        values = [entry["value"] for entry in snapshot[kind] if entry["name"] == name]
    except (KeyError, TypeError):
        return None
    return sum(values) if values else None


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def senders() -> int:
    """Sender threads the load generator may start: never more than cores."""
    return min(SENDERS, usable_cores())


def git_commit() -> str:
    # Ask git only when this checkout is itself a repository, so the
    # harness never reads above its own root.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def host_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cores": usable_cores(),
        "senders": senders(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


# -- process-tree accounting (Linux /proc) ------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may hold spaces and parentheses; the fields follow the last ')'.
    return text[text.rindex(")") + 2:].split()


def process_tree(root_pid: int) -> list[int]:
    """*root_pid* and every live descendant."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [root_pid], [root_pid]
    while frontier:
        frontier = [child for pid in frontier for child in parents.get(pid, [])]
        tree.extend(frontier)
    return tree


def pin_to_current_cpu() -> None:
    """Pin this process to the CPU it is running on, so that CPU's steal
    counter is this process's own (a no-op where the OS cannot)."""
    fields = _stat_fields(os.getpid())
    if fields is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {int(fields[36])})


def tree_usage(root_pid: int, include_root: bool = True) -> tuple[float, float]:
    """(CPU seconds user+sys, summed peak RSS in MiB) of a process tree."""
    cpu_ticks, peak_kib = 0, 0
    for pid in process_tree(root_pid)[0 if include_root else 1:]:
        fields = _stat_fields(pid)
        if fields is None:
            continue
        cpu_ticks += int(fields[11]) + int(fields[12])
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak_kib += int(line.split()[1])
    return cpu_ticks / _CLK_TCK, peak_kib / 1024.0
