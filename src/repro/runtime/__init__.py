"""repro.runtime — the sharded execution runtime.

Scale-out layer over :mod:`repro.api`: a
:class:`ShardedDecisionService` presents the ``DecisionService`` facade
while partitioning instances across independent engine + DES + database
shards (each instance routed to its stable CRC-32 home), driven
in-process (``executor="serial"``) or by a fleet of long-lived worker
processes (``executor="process"``, one persistent worker per shard
streaming ops over pipes).  Shards share no cache: each shard's query
cache and memo tiers are its only result reuse.

Quickstart::

    from repro.api import ExecutionConfig
    from repro.runtime import create_service

    config = ExecutionConfig.from_code("PSE80", shards=4, executor="process")
    service = create_service(pattern.schema, config)
    service.submit_stream(arrivals, values=pattern.source_values)
    print(service.summary().count, service.total_units)
    service.close()  # shut the persistent worker fleet down
"""

from repro.runtime.executors import ShardStats
from repro.runtime.sharding import (
    MergedEventLog,
    ShardedDecisionService,
    ShardedInstanceHandle,
    create_service,
    merge_shard_events,
    shard_of,
)
from repro.runtime.worker import (
    InstanceRecord,
    ShardOutcome,
    worker_main,
)

__all__ = [
    "ShardedDecisionService",
    "ShardedInstanceHandle",
    "ShardStats",
    "MergedEventLog",
    "create_service",
    "merge_shard_events",
    "shard_of",
    "ShardOutcome",
    "InstanceRecord",
    "worker_main",
]
