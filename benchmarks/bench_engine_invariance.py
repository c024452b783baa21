"""The paper's figures do not depend on the execution engine.

Every registered experiment renders the same JSON on the default stack
(the batched engine, pooled dispatch) as on the oracle: the reference
engine on a simulation with no pool consumer, draining its calendar one
event at a time.  The oracle is pinned here by swapping the engine a
service builds for one that unregisters the service's pool drain first;
the program has no switch for it.
"""

from __future__ import annotations

import pytest

from repro.__main__ import EXPERIMENTS
from repro.api import service as service_module
from repro.oracle import Engine


def render(name: str, seeds: tuple[int, ...]) -> str:
    fn, takes_seeds = EXPERIMENTS[name]
    return (fn(seeds) if takes_seeds else fn()).render_json()


def per_event_reference(schema, strategy, database, **kwargs) -> Engine:
    """The reference engine, on a simulation it drains event by event (a
    service registers its pool drain before it builds the engine)."""
    database.sim.set_batch_consumer(None)
    return Engine(schema, strategy, database, **kwargs)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_figure_is_engine_independent(name, bench_seeds, monkeypatch):
    default = render(name, bench_seeds)
    monkeypatch.setitem(service_module._ENGINE_CLASSES, "batched", per_event_reference)
    assert render(name, bench_seeds) == default
