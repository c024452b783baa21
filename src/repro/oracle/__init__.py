"""The oracles: the paper's algorithm as written, kept to hold the product to.

* :class:`Engine` — the reference engine, one event at a time over
  name-keyed :class:`InstanceRuntime` graphs, with the name-keyed
  prequalifier and scheduler (:func:`candidate_pool`, :func:`rank_key`,
  :func:`select_for_launch`);
* :class:`PerUnitIdealDatabase` / :class:`PerUnitProfiledDatabase` — the
  per-unit database kernels, one calendar event per unit of processing.

Nothing on the product path imports this package:
``ExecutionConfig(engine="reference")`` loads it when a service is built
with it, and ``repro.Engine`` / ``repro.core.Engine`` /
``repro.core.InstanceRuntime`` resolve here on first use.  The
differential suites hold every product trace to these.
"""

from repro.oracle.engine import Engine
from repro.oracle.instance import InstanceRuntime
from repro.oracle.per_unit import PerUnitIdealDatabase, PerUnitProfiledDatabase
from repro.oracle.scheduler import candidate_pool, rank_key, select_for_launch

__all__ = [
    "Engine",
    "InstanceRuntime",
    "PerUnitIdealDatabase",
    "PerUnitProfiledDatabase",
    "candidate_pool",
    "rank_key",
    "select_for_launch",
]
