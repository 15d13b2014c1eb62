"""Multi-session serving: cross-session micro-batched inference.

The single-participant loop (``repro.core.realtime``) classifies one window
at a time.  This package scales that loop out: N concurrent
:class:`ServingSession` objects prepare windows, a :class:`MicroBatcher`
stacks them into one ``(n, channels, samples)`` call on a shared
classifier, and :class:`FleetTelemetry` reports throughput, tail latency,
backlog and per-session accuracy.

One flush engine (:class:`~repro.serving.engine.CohortFlushEngine`) owns
the per-cohort queues and batchers, deadline-aware flushes, in-flight
tracking, supervision and plan hot-swap.  It has two front ends:
:class:`AsyncFleetScheduler`, where sessions submit windows in process
(with p95-budget admission control, :class:`AdmissionController`, and
per-cohort model routing, :class:`ModelRouter`), and the stream plane's
:class:`~repro.streams.consumer.StreamConsumerScheduler`.
:class:`FleetServer` is the scheduler's lock-step alias: every session
clocked together by ``tick()`` at the label rate.  Everything is
clock-injected, so tests drive it with a deterministic virtual clock.

Flush *execution* is pluggable behind the
:class:`~repro.serving.executors.FlushExecutor` protocol:
:class:`SerialExecutor` (inline, the default), :class:`ThreadPoolFlushExecutor`
(cohort flushes overlap on a thread pool) and :class:`ProcessShardExecutor`
(one worker process per cohort, each pinning a reconstructed compiled plan
shipped as an ``.npz``-geometry payload — see
:meth:`repro.models.compiled.CompiledClassifier.to_payload`).

The shard fleet self-heals: a :class:`ShardSupervisor` respawns dead
workers with capped exponential backoff, quarantines cohorts that flap
(the scheduler then degrades them to an inline :class:`SerialExecutor`
fallback), and serving plans hot-swap under traffic via
``AsyncFleetScheduler.swap_plan`` with a per-flush ``plan_version``
telemetry contract.  :mod:`repro.serving.chaos` provides the
deterministic fault-injection harness that soaks all of this on a
virtual clock.
"""

from repro.serving.batcher import (
    BatchResult,
    ExecutionResult,
    MicroBatcher,
    PreparedBatch,
    execute_windows,
)
from repro.serving.chaos import (
    FaultInjector,
    Injection,
    SimulatedShardExecutor,
    recovery_latencies,
    window_conservation,
)
from repro.serving.executors import (
    WORKER_QUARANTINED,
    WORKER_RESPAWNING,
    WORKER_RUNNING,
    CohortQuarantinedError,
    ExecutorClosedError,
    FlushExecutionError,
    FlushExecutor,
    FlushTicket,
    ProcessShardExecutor,
    SerialExecutor,
    ShardSupervisor,
    SupervisorConfig,
    ThreadPoolFlushExecutor,
    WorkerDiedError,
    WorkerRespawnPending,
)
from repro.serving.scheduler import (
    AdmissionController,
    AsyncFleetScheduler,
    FlushEvent,
    ModelRouter,
    SchedulerConfig,
)
from repro.serving.server import FleetServer
from repro.serving.session import ServingSession
from repro.serving.telemetry import (
    FleetReport,
    FleetTelemetry,
    FleetTickRecord,
    SessionStats,
    calibrate_batch_latency_s,
    session_stats,
)

__all__ = [
    "AdmissionController",
    "AsyncFleetScheduler",
    "BatchResult",
    "CohortQuarantinedError",
    "ExecutionResult",
    "ExecutorClosedError",
    "FaultInjector",
    "FlushEvent",
    "FlushExecutionError",
    "FlushExecutor",
    "FlushTicket",
    "Injection",
    "MicroBatcher",
    "ModelRouter",
    "PreparedBatch",
    "ProcessShardExecutor",
    "SchedulerConfig",
    "SerialExecutor",
    "ShardSupervisor",
    "SimulatedShardExecutor",
    "SupervisorConfig",
    "ThreadPoolFlushExecutor",
    "WORKER_QUARANTINED",
    "WORKER_RESPAWNING",
    "WORKER_RUNNING",
    "WorkerDiedError",
    "WorkerRespawnPending",
    "execute_windows",
    "recovery_latencies",
    "window_conservation",
    "FleetReport",
    "FleetServer",
    "ServingSession",
    "FleetTelemetry",
    "FleetTickRecord",
    "SessionStats",
    "calibrate_batch_latency_s",
    "session_stats",
]
