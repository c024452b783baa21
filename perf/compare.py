"""Compare two result files of ``perf/run.py --out`` under the bounds
fixed in ``BENCHMARK.json``.

    python perf/compare.py A.json B.json

A is the base (the parent commit), B the change.  The two files must
have been made with the same seed, number of runs, run length and mode;
anything else is refused.  Every (workload, end-to-end metric) cell gets
one verdict:

  within      B's median is no worse and no better than A's by more
              than the bound
  improved    better by more than the bound
  regressed   worse by more than the bound
  unresolved  the run-to-run quartile spread of either side is wider
              than the bound and the two sides' runs interleave; or the
              timings as the clock gave them reach another verdict than
              the declared (host-speed rescaled) ones

Every ratio is printed with its base.  The serve latencies, which the
driver's contract keeps out of the declared set, are judged the same way
under the bounds ISSUE 11 gave them (``LATENCY_BOUNDS``);
``max_rate_ok`` may drop one rung of its ladder but not two (a rung at
the edge of capacity passes on one run and fails on the next) and
``failed_share`` may not grow.  Exits non-zero on any ``regressed``
cell, a ``max_rate_ok`` two rungs down or a larger ``failed_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stats import median, spread

ROOT = Path(__file__).resolve().parent.parent

#: Measured on every serve run beside the declared metrics; lower is better.
LATENCY_BOUNDS = {"decision_p50_ms": 0.15, "decision_tail_ms": 0.25, "read_p50_ms": 0.15}
#: What two files must share to be comparable.
_PROTOCOL = ("seed", "runs", "seconds", "mode")


def _cells(document: dict, field: str) -> dict:
    """{(workload, metric): [one value per untraced run]}"""
    cells: dict = {}
    for record in document["records"]:
        if record["mode"] != "untraced":
            continue
        for name, value in record[field].items():
            if value is not None:
                cells.setdefault((record["workload"], name), []).append(value)
    return cells


def verdict(base: list, change: list, better: str, bound: float) -> tuple[str, float]:
    """(verdict, share by which the change's median is worse than the base's)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (median(change) - median(base)) / abs(median(base))
    separated = max(change) < min(base) or min(change) > max(base)
    if max(spread(base), spread(change)) > bound and not separated:
        return "unresolved", worse_by
    if worse_by > bound:
        return "regressed", worse_by
    if worse_by < -bound:
        return "improved", worse_by
    return "within", worse_by


def _rungs_passed(document: dict, workload: str, rate: float) -> int:
    """How many rungs of the workload's ladder are at or below *rate*."""
    for record in document["records"]:
        if record["workload"] == workload and record.get("rungs"):
            return sum(1 for rung in record["rungs"] if rung["rate"] <= rate)
    return 0


def _row(workload, metric, base, change, bound, name, note) -> str:
    b, c = median(base), median(change)
    return (f"{workload:<16} {metric:<20} {b:>14.6g} {c:>14.6g} {c / b:>11.4f} "
            f"{spread(base):>6.1%}/{spread(change):<6.1%} {bound:>6.0%}  {name} ({note})")


def compare(base_doc: dict, change_doc: dict, declaration: dict) -> int:
    base, change = _cells(base_doc, "e2e"), _cells(change_doc, "e2e")
    clocked_base, clocked_change = _cells(base_doc, "raw"), _cells(change_doc, "raw")
    extra_base, extra_change = _cells(base_doc, "extra"), _cells(change_doc, "extra")
    workloads = [w["name"] for w in declaration["workloads"]]
    counts: dict[str, int] = {}
    print(f"{'workload':<16} {'metric':<20} {'base median':>14} {'change':>14} "
          f"{'change/base':>11} {'spread b/c':>13} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in declaration["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in change:
                continue
            name, worse_by = verdict(base[key], change[key], metric["better"], metric["bound"])
            note = f"{worse_by:+.1%} worse, base {median(base[key]):.6g} {metric['unit']}"
            if key in clocked_base and key in clocked_change:
                # The declared timings are rescaled by a host-speed
                # estimate.  Where the clock's own readings are steady
                # enough to give a verdict, it has to be the same one.
                clocked, clocked_by = verdict(
                    clocked_base[key], clocked_change[key], metric["better"], metric["bound"]
                )
                note += f"; as clocked {clocked} {clocked_by:+.1%}"
                if clocked not in ("unresolved", name):
                    name = "unresolved"
            counts[name] = counts.get(name, 0) + 1
            print(_row(workload, metric["name"], base[key], change[key], metric["bound"], name, note))
        for metric, bound in LATENCY_BOUNDS.items():
            key = (workload, metric)
            if key not in extra_base or key not in extra_change:
                continue
            name, worse_by = verdict(extra_base[key], extra_change[key], "lower", bound)
            counts[name] = counts.get(name, 0) + 1
            note = f"{worse_by:+.1%} worse, base {median(extra_base[key]):.6g} ms"
            print(_row(workload, metric, extra_base[key], extra_change[key], bound, name, note))
    failures = 0
    for workload in workloads:
        for metric in ("max_rate_ok", "failed_share"):
            key = (workload, metric)
            if key not in extra_base or key not in extra_change:
                continue
            b, c = median(extra_base[key]), median(extra_change[key])
            if metric == "failed_share":
                name = "REGRESSED" if c > b else "ok"
            else:
                down = _rungs_passed(base_doc, workload, b) - _rungs_passed(change_doc, workload, c)
                name = "REGRESSED" if down > 1 else "one rung down (allowed)" if down == 1 else "ok"
            failures += name == "REGRESSED"
            print(f"{workload:<16} {metric:<20} {b:>14.6g} {c:>14.6g} {'':>11}  {name} (base {b:.6g})")
    summary = "  ".join(f"{name}={count}" for name, count in sorted(counts.items()))
    print(f"cells: {summary}  other regressions={failures}")
    return 1 if counts.get("regressed") or failures else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    documents = [json.loads(Path(path).read_text()) for path in argv]
    for path, document in zip(argv, documents):
        host = document["host"]
        print(f"{path}: commit {host['git_commit'][:12]}  nproc {host['nproc']}  "
              f"seed {document['seed']}  runs {document['runs']}  "
              f"seconds {document['seconds']:g}  {host['platform']}")
    differing = [key for key in _PROTOCOL if documents[0][key] != documents[1][key]]
    if differing:
        print(f"not comparable: the two files differ in {', '.join(differing)}")
        return 2
    return compare(documents[0], documents[1], declaration)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
