"""Differential suite: coalesced kernels vs the per-unit reference.

The coalesced :class:`IdealDatabase` / :class:`ProfiledDatabase` kernels
replace one heap event per unit of processing with one completion event
per query.  These tests drive full engine runs — generated schema
patterns, every strategy dimension, both halt policies, result sharing
(the query cache), and failure injection — through both kernels and
assert the whole *traces* match (``tests/_support.trace_of``): events,
values, states, per-instance Work and finish times (the paper's
TimeInUnits), database totals and the time-weighted mean Gmpl, whole and
over the run's last two-thirds.

The ideal database runs on an integer clock, so its traces must be
bit-identical.  The profiled database accumulates float unit times along
different arithmetic paths (per-event addition vs analytic replanning),
so its times are compared to a tight relative tolerance while all integer
counters stay exact.
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionConfig

from tests._support import ENGINES, assert_same, run, run_closed_loop, scenario_pattern


def run_kernel(
    kernel: str,
    *,
    code: str,
    seed: int = 0,
    instances: int = 4,
    spacing: float = 2.0,
    nb_nodes: int = 24,
    max_cost: int = 6,
    engine: str = "reference",
    cache: bool = False,
    **arm,
):
    """The generated pattern on one kernel, uncached unless ``cache``:
    (trace, engine)."""
    pattern = scenario_pattern(seed, nb_nodes=nb_nodes, max_cost=max_cost)
    arrivals = [(index * spacing, pattern.source_values) for index in range(instances)]
    return run(
        ENGINES[engine], pattern.schema, code, arrivals=arrivals, kernel=kernel, seed=seed,
        cache=cache, **arm,
    )  # fmt: skip


# -- the seeded sweep ----------------------------------------------------------

#: (backend, strategy code, halt policy, query cache, failure_prob) × seeds.
SCENARIOS = [
    ("ideal", "PSE50", "cancel", False, 0.0),
    ("ideal", "PSE100", "cancel", False, 0.0),
    ("ideal", "PSC50", "cancel", False, 0.0),
    ("ideal", "PCE0", "cancel", False, 0.0),
    ("ideal", "PCC80", "cancel", False, 0.0),
    ("ideal", "NSE50", "cancel", False, 0.0),
    ("ideal", "PSE50", "drain", False, 0.0),
    ("ideal", "PCC100", "drain", False, 0.0),
    ("ideal", "PSE80", "cancel", True, 0.0),
    ("ideal", "PSE50", "drain", True, 0.0),
    ("ideal", "PSE50", "cancel", False, 0.3),
    ("ideal", "PSE80", "drain", True, 0.2),
    ("profiled", "PSE50", "cancel", False, 0.0),
    ("profiled", "PSE100", "cancel", False, 0.0),
    ("profiled", "PCC50", "cancel", False, 0.0),
    ("profiled", "PSE50", "drain", False, 0.0),
    ("profiled", "PSE80", "cancel", True, 0.0),
    ("profiled", "PSE50", "cancel", False, 0.25),
    ("profiled", "PCE0", "drain", False, 0.0),
    ("profiled", "PSC100", "drain", True, 0.1),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "backend,code,halt_policy,cache,failure_prob",
    SCENARIOS,
    ids=[
        f"{b}-{c}-{h}{'-cache' if q else ''}{'-fail' if f else ''}" for b, c, h, q, f in SCENARIOS
    ],
)
def test_kernels_produce_identical_traces(backend, code, halt_policy, cache, failure_prob, seed):
    kwargs = dict(
        backend=backend,
        seed=seed,
        code=code,
        halt_policy=halt_policy,
        cache=cache,
        failure_prob=failure_prob,
    )
    coalesced, _ = run_kernel("coalesced", **kwargs)
    per_unit, _ = run_kernel("per-unit", **kwargs)
    assert_same(per_unit, coalesced, approx_times=backend != "ideal")


def test_coalesced_executes_far_fewer_events():
    """The point of the rewrite: event count per query drops to O(1)."""
    for backend in ("ideal", "profiled"):
        kwargs = dict(backend=backend, code="PSE100", max_cost=30, instances=6, seed=1)
        coalesced, few = run_kernel("coalesced", **kwargs)
        per_unit, many = run_kernel("per-unit", **kwargs)
        assert coalesced["database"][0] == per_unit["database"][0], backend
        assert many.sim.events_executed >= 5 * few.sim.events_executed, backend


def test_concurrent_identical_instances_stress_gmpl_replanning():
    """Many instances arriving together force frequent Gmpl changes."""
    for seed in range(4):
        kwargs = dict(
            backend="profiled",
            code="PSE100",
            instances=8,
            spacing=0.0,
            seed=seed,
            nb_nodes=16,
        )
        coalesced, _ = run_kernel("coalesced", **kwargs)
        per_unit, _ = run_kernel("per-unit", **kwargs)
        assert_same(per_unit, coalesced, approx_times=True)


@pytest.mark.parametrize("backend", ["ideal", "profiled"])
@pytest.mark.parametrize("code", ["PSE50", "PSE100"])
def test_closed_loop_traces_match(backend, code):
    config = ExecutionConfig.from_code(code)
    for seed in range(3):
        coalesced = run_closed_loop(config, backend, seed, kernel="coalesced")
        per_unit = run_closed_loop(config, backend, seed, kernel="per-unit")
        assert_same(per_unit, coalesced, approx_times=backend != "ideal")


def test_sequential_strategy_cancels_match():
    """%Permitted = 0 produces long queues of cancellations on halt."""
    for seed in range(4):
        kwargs = dict(backend="ideal", code="PSE0", instances=6, spacing=1.0, seed=seed)
        coalesced, _ = run_kernel("coalesced", **kwargs)
        per_unit, _ = run_kernel("per-unit", **kwargs)
        assert_same(per_unit, coalesced)


# -- cohort execution through both kernels -------------------------------------

#: (backend, strategy code, halt policy, failure_prob) — same-instant
#: bursts so cohorts actually form; a failure scenario so copy-on-diverge
#: splits cross the kernel boundary too.
COHORT_KERNEL_SCENARIOS = [
    ("ideal", "PSE100", "cancel", 0.0),
    ("ideal", "PSE50", "drain", 0.0),
    ("ideal", "PSE80", "cancel", 0.25),
    ("profiled", "PSE100", "cancel", 0.0),
    ("profiled", "PSE50", "cancel", 0.2),
]


@pytest.mark.parametrize(
    "backend,code,halt_policy,failure_prob",
    COHORT_KERNEL_SCENARIOS,
    ids=[f"{b}-{c}-{h}{'-fail' if f else ''}" for b, c, h, f in COHORT_KERNEL_SCENARIOS],
)
def test_cohort_traces_match_across_kernels(backend, code, halt_policy, failure_prob):
    """Cohorted batched runs stay kernel-identical — the instance dedupe
    layer must not perturb what either database kernel observes."""
    for seed in range(2):
        kwargs = dict(
            backend=backend,
            seed=seed,
            code=code,
            halt_policy=halt_policy,
            failure_prob=failure_prob,
            instances=6,
            spacing=0.0,
            engine="batched",
            cohorts=True,
        )
        coalesced, _ = run_kernel("coalesced", **kwargs)
        per_unit, _ = run_kernel("per-unit", **kwargs)
        assert_same(per_unit, coalesced, approx_times=backend != "ideal")


@pytest.mark.parametrize("kernel", ["coalesced", "per-unit"])
@pytest.mark.parametrize(
    "backend,code,halt_policy,failure_prob",
    COHORT_KERNEL_SCENARIOS,
    ids=[f"{b}-{c}-{h}{'-fail' if f else ''}" for b, c, h, f in COHORT_KERNEL_SCENARIOS],
)
def test_cohorts_invisible_within_each_kernel(kernel, backend, code, halt_policy, failure_prob):
    """Within one kernel, cohorts on vs off is trace-identical — and the
    reference engine (where the flag is a documented no-op) agrees."""
    for seed in range(2):
        kwargs = dict(
            backend=backend,
            seed=seed,
            code=code,
            halt_policy=halt_policy,
            failure_prob=failure_prob,
            instances=6,
            spacing=0.0,
        )
        individual, _ = run_kernel(kernel, engine="batched", cohorts=False, **kwargs)
        cohorted, _ = run_kernel(kernel, engine="batched", cohorts=True, **kwargs)
        assert_same(individual, cohorted)
        reference, _ = run_kernel(kernel, engine="reference", cohorts=True, **kwargs)
        assert_same(individual, reference)


@pytest.mark.parametrize("kernel", ["coalesced", "per-unit"])
@pytest.mark.parametrize("engine", ["reference", "batched"])
@pytest.mark.parametrize(
    "backend,code,halt_policy,failure_prob",
    [
        ("ideal", "PSE100", "cancel", 0.0),
        ("profiled", "PSE50", "drain", 0.0),
        ("bounded", "PSE50", "cancel", 0.1),
    ],
    ids=["ideal-PSE100", "profiled-PSE50-drain", "bounded-PSE50-fail"],
)
def test_armed_observability_invisible_on_both_kernels(
    kernel, engine, backend, code, halt_policy, failure_prob
):
    """Arming repro.obs changes nothing the DES kernels can observe:
    same per-instance trace, db totals, mean Gmpl, end time, and — the
    kernel-sharp check — the exact number of calendar events executed."""
    kwargs = dict(
        backend=backend,
        seed=2,
        code=code,
        halt_policy=halt_policy,
        failure_prob=failure_prob,
        engine=engine,
    )
    disarmed, plain = run_kernel(kernel, **kwargs)
    # Only the product is instrumented: the reference's cells hold it to the oracle.
    armed, engine = run_kernel(kernel, observe=True, **{**kwargs, "engine": "batched"})
    armed["obs"] = None  # what arming records is all that may differ
    assert_same(disarmed, armed)
    assert engine.sim.events_executed == plain.sim.events_executed
