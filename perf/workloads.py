"""The seven workloads: seeded generators for valuations and arrivals.

A valuation sets the flow pattern's single source attribute to a float
in (89, 100).  The pattern's two source-keyed queries are enabled only
above 88, so there every unique valuation costs the database two
queries of its own while everything downstream is shared; below 88
every instance after the first is served wholly from the memo and the
database idles.  No enabling condition has a threshold above 89, so
every valuation enables the same part of the flow and how much work a
run does hardly depends on its seed.  Arrival times are simulated-clock offsets.  The
program under test only ever receives the generated inputs; the seed
stays in the harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

POST, GET = "POST", "GET"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "sweep" | "fleet" | "serve"
    why: str
    n: int = 0                # instances per repetition (sweeps and fleet)
    population: str = ""      # "identical" | "overlap" | "distinct"
    backend: str = "ideal"
    rounds: int = 1           # fleet: n is split into this many rounds
    rungs: tuple = ()         # serve: (rate per second, share of run time)
    batch: int = 1            # serve: instances per POST
    read_every: int = 0       # serve: every k-th request is a GET


WORKLOADS = (
    Workload(
        "sweep_identical", "sweep", n=60_000, population="identical",
        why="One valuation, all at t=0: cohort lockstep does nearly all the "
        "work and submit() dominates; protects the historical cohort headline.",
    ),
    Workload(
        "sweep_overlap", "sweep", n=6_000, population="overlap",
        why="90% from 8 hot valuations in same-instant bursts: cohorts form "
        "partially and the cache memo-serves; the storefront-like population.",
    ),
    Workload(
        "sweep_distinct", "sweep", n=5_000, population="distinct",
        why="Every valuation unique, one arrival per instant: cohorts never "
        "form, the engine carries the time; the bypass for any cohort change.",
    ),
    Workload(
        "sweep_profiled", "sweep", n=1_200, population="distinct",
        backend="profiled",
        why="The distinct population on the profiled backend: the only "
        "workload where the simdb re-pricing kernel dominates.",
    ),
    Workload(
        "fleet_rounds", "fleet", n=6_000, population="distinct", rounds=10,
        why="Distinct population as 10 submit-run rounds through 2 process "
        "shards: frame round-trips, routing, L2 commit, incremental drain.",
    ),
    Workload(
        "serve_http", "serve", rungs=((16, 12), (64, 4), (256, 4), (1024, 4)),
        read_every=4,
        why="Open-loop single-instance POSTs with every 4th request a GET "
        "over 2 keep-alive connections: the HTTP transport does the work.",
    ),
    Workload(
        "serve_burst", "serve", rungs=((256, 8), (1024, 6), (4096, 6)), batch=32,
        why="Open-loop POSTs of 32 unique valuations: transport amortised, "
        "admission, epoch drain, engine and the SQLite flush do the work.",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: Deadline for "decided in time" on the serve ladders (seconds).
DEADLINE_S = 0.5
#: After a rung's sending window the harness waits this long for the
#: instances it sent to be decided before it moves on.
RUNG_GRACE_S = 2.0


@dataclass(frozen=True)
class Scale:
    """How much of each workload one run executes."""

    divisor: int = 1           # instance counts are divided by this
    warmup: int = 200          # warm-up instances before the timed region
    min_reps: int = 3          # floor on fresh-process repetitions per run
    extra_starts: int = 2      # serve: throw-away server starts that sample set-up
    probe_queries: int = 20_000
    probe_posts: int = 200
    probe_seconds: float = 2.0  # cap on each sequential-POST probe
    probe_records: int = 2_048
    rtt_rounds: int = 20


FULL = Scale()
SMOKE = Scale(
    divisor=50, warmup=20, min_reps=1, extra_starts=0, probe_queries=500,
    probe_posts=5, probe_seconds=0.5, probe_records=128, rtt_rounds=3,
)


def instances(workload: Workload, scale: Scale) -> int:
    """Instances per repetition; a whole number of fleet rounds."""
    per_round = max(32, workload.n // scale.divisor // workload.rounds)
    return per_round * workload.rounds


VALUATION_DOMAIN = (89.0, 100.0)


class _Valuations:
    """Unique 6-decimal floats inside the domain from one seeded stream."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._taken: set[float] = set()

    def fresh(self) -> float:
        while True:
            value = round(self._rng.uniform(*VALUATION_DOMAIN), 6)
            if value not in self._taken and VALUATION_DOMAIN[0] < value < VALUATION_DOMAIN[1]:
                self._taken.add(value)
                return value


def _rng(seed: int, *scope) -> random.Random:
    return random.Random(":".join(map(str, (seed, *scope))))


def warmup_values(seed: int, count: int) -> list[float]:
    values = _Valuations(_rng(seed, "warmup"))
    return [values.fresh() for _ in range(count)]


def sweep_items(workload: Workload, seed: int, scale: Scale) -> list[tuple[float, float]]:
    """(arrival offset, valuation) for every instance of one repetition."""
    n = instances(workload, scale)
    # sweep_profiled and fleet_rounds reuse the sweep_distinct population.
    rng = _rng(seed, workload.population)
    values = _Valuations(rng)
    if workload.population == "identical":
        return [(0.0, values.fresh())] * n
    items: list[tuple[float, float]] = []
    at = 0.0
    if workload.population == "overlap":
        hot = [values.fresh() for _ in range(8)]
        while len(items) < n:
            at += rng.expovariate(1 / 50.0)
            for _ in range(rng.randint(20, 60)):
                value = rng.choice(hot) if rng.random() < 0.9 else values.fresh()
                items.append((at, value))
        return items[:n]
    for _ in range(n):
        at += rng.expovariate(1 / 5.0)
        items.append((at, values.fresh()))
    return items


@dataclass
class Op:
    """One scheduled request of a serve ladder."""

    due: float                 # seconds after the rung starts
    kind: str
    values: tuple = ()         # valuations carried (POST)


@dataclass
class Rung:
    rate: float                # instances (or requests) per second offered
    seconds: float
    ops: list
    reference: bool = False


def serve_plan(workload: Workload, seed: int, seconds: float) -> list[Rung]:
    """The ladder: a Poisson request schedule per rung (conditioned on its
    expected count), for a run that spends *seconds* sending in total."""
    rng = _rng(seed, workload.name)
    values = _Valuations(rng)
    total_share = sum(share for _, share in workload.rungs)
    plan = []
    for index, (rate, share) in enumerate(workload.rungs):
        duration = seconds * share / total_share
        requests_per_s = rate / workload.batch
        # The arrival times of a Poisson process, given that it produced
        # its expected number of arrivals, are that many independent
        # uniform draws: irregular spacing, the same count for every
        # seed.  A rung offers at least two requests however short.
        count = max(2, round(requests_per_s * duration))
        arrivals = sorted(rng.uniform(0.0, duration) for _ in range(count))
        ops = [
            Op(at, GET)
            if workload.read_every and position % workload.read_every == workload.read_every - 1
            else Op(at, POST, tuple(values.fresh() for _ in range(workload.batch)))
            for position, at in enumerate(arrivals)
        ]
        plan.append(Rung(rate, duration, ops, reference=index == 0))
    return plan
