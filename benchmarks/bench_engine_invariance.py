"""The paper's figures do not depend on the execution engine.

Every registered experiment renders the same JSON on the default stack
(the batched engine, pooled dispatch) as on the oracle: the reference
engine draining its calendar one event at a time.  The oracle is pinned
here, by swapping the engine class a service builds and skipping its
``enable_pooled_dispatch()``; the program has no switch for it.
"""

from __future__ import annotations

import pytest

from repro.__main__ import EXPERIMENTS
from repro.api import service as service_module
from repro.core.engine import Engine


def render(name: str, seeds: tuple[int, ...]) -> str:
    fn, takes_seeds = EXPERIMENTS[name]
    return (fn(seeds) if takes_seeds else fn()).render_json()


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_figure_is_engine_independent(name, bench_seeds, monkeypatch):
    default = render(name, bench_seeds)
    monkeypatch.setitem(service_module._ENGINE_CLASSES, "batched", Engine)
    monkeypatch.setattr(Engine, "enable_pooled_dispatch", lambda self: None)
    assert render(name, bench_seeds) == default
