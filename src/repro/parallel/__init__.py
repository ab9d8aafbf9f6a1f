"""Data-parallel sharded fixpoint evaluation (plan/execute split).

:mod:`repro.parallel.plan` computes an explicit
:class:`~repro.parallel.plan.PartitionedPlan` for a query — partition
columns, shard-vs-broadcast decisions, delta-exchange schedule — and
:mod:`repro.parallel.executor` runs it over a persistent
``multiprocessing`` worker pool.  :mod:`repro.parallel.counting`
parallelizes phase 1 of the counting method (the left-graph waves),
with the DFS replayed serially over the finished map so the counting
table stays byte-identical.  See ``docs/api.md`` ("Parallel
evaluation") for the worker lifecycle and fallback semantics.
"""

from .executor import (
    ParallelEngine,
    PlanViolationError,
    RecoveryExhaustedError,
    WorkerCrashError,
    WorkerHungError,
)
from .plan import (
    DEFAULT_BROADCAST_ROWS,
    PartitionedPlan,
    plan_partitions,
    shard_of,
    shard_rows,
)
from .supervisor import (
    RECOVERY_MODES,
    RecoveryPolicy,
    RepairEvent,
    RoundCheckpoint,
    Supervisor,
)

__all__ = [
    "DEFAULT_BROADCAST_ROWS",
    "ParallelEngine",
    "PartitionedPlan",
    "PlanViolationError",
    "RECOVERY_MODES",
    "RecoveryExhaustedError",
    "RecoveryPolicy",
    "RepairEvent",
    "RoundCheckpoint",
    "Supervisor",
    "WorkerCrashError",
    "WorkerHungError",
    "plan_partitions",
    "shard_of",
    "shard_rows",
]
