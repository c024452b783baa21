"""repro.runtime — the sharded execution runtime.

Scale-out layer over :mod:`repro.api`: a
:class:`ShardedDecisionService` shares the ``DecisionService`` front
while partitioning instances across independent engine + DES + database
shards (each instance routed to its stable CRC-32 home).  The fleet is
that one class over a transport: each round it sends every shard's state
(:mod:`repro.runtime.worker`) one frame and pushes the records it
reports into their handles, until each instance is settled.  The
transport calls the shards in-process (``executor="serial"``) or
through a pipe to one long-lived worker process per shard
(``executor="process"``).  Shards share no cache: each shard's query
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

from repro.runtime.sharding import (
    ShardedDecisionService,
    ShardedInstanceHandle,
    ShardStats,
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
    "create_service",
    "merge_shard_events",
    "shard_of",
    "ShardOutcome",
    "InstanceRecord",
    "worker_main",
]
