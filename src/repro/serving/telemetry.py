"""Fleet-level serving metrics.

Collects one record per fleet tick (batch size, classification and prepare
latency, stalls, backlog) and aggregates them into the numbers a serving
dashboard would show: throughput in labels/s, p50/p95/p99 batch latency,
backlog depth and per-session accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.models.base import EEGClassifier


@dataclass
class FleetTickRecord:
    """What happened during one fleet tick."""

    tick_index: int
    #: Sessions attached to the fleet when the tick ran.
    n_sessions: int
    #: Windows actually classified (``n_sessions`` minus stalled sessions).
    batch_size: int
    #: Sessions that failed to produce a window this tick.
    stalled_sessions: int
    #: Wall-clock time of the batched ``predict_proba`` call(s).
    batch_latency_s: float
    #: Total label periods of work queued behind stalled sessions.
    backlog_depth: int
    #: Windows refused by admission control since the previous record
    #: (0 on stream-consumer records; sessions are admitted producer-side).
    shed_sessions: int = 0
    #: Queued windows whose flush started after their deadline had passed.
    deadline_violations: int = 0
    #: Longest time any window in this flush spent queued before the flush
    #: started (0.0 for lock-step ticks, which never queue).
    max_queue_wait_s: float = 0.0
    #: What triggered this record: "tick" (lock-step), "deadline", "full" or
    #: "drain".
    flush_reason: str = "tick"
    #: Cohort the flush served ("" for lock-step ticks, which flush every
    #: cohort into one record).
    cohort: str = ""
    #: Execution lane that served the flush ("serial", a worker thread name
    #: or a shard-worker id; "" for lock-step ticks).
    worker: str = ""
    #: Executor queueing/transport overhead: harvest wall time minus service
    #: time (0.0 on the inline serial path).
    executor_wait_s: float = 0.0
    #: Clock time at which the flush result was folded back in (0.0 for
    #: lock-step ticks); lets per-worker utilisation be computed offline.
    completed_at_s: float = 0.0
    #: Whether every classifier call of this flush ran on a shape-specialised
    #: plan arena (pre-bound scratch, zero steady-state allocations).
    specialized: bool = False
    #: Oldest-unacked age of the cohort's window stream when the flush
    #: started (0.0 off the streaming data plane): queueing *upstream* of
    #: the scheduler, invisible to flush-latency percentiles.
    stream_lag_s: float = 0.0
    #: Un-acked depth of the cohort's window stream when the flush started
    #: (0 off the streaming data plane).
    stream_depth: int = 0
    #: Version of the inference plan that served this flush (0 before the
    #: scheduler is version-aware — e.g. lock-step ticks).  A hot-swap shows
    #: up as the cohort's records stepping from one version to the next with
    #: no interleaving.
    plan_version: int = 0
    #: Whether this flush was served by a degraded (quarantined-cohort
    #: serial fallback) lane rather than the configured executor.
    degraded: bool = False
    #: Clock time a lock-step tick spent preparing (filtering and windowing)
    #: every session's window before flushing; 0.0 on asynchronous flush
    #: records, whose windows are prepared in ``submit``.
    prepare_latency_s: float = 0.0
    #: Windows refused since the previous record for holding a NaN or inf
    #: sample; they are never classified.
    rejected_sessions: int = 0


@dataclass
class SessionStats:
    """Per-session roll-up reported at the end of a fleet run."""

    session_id: str
    labels_emitted: int
    accuracy: float
    dropped_windows: int


@dataclass
class FleetReport:
    """End-of-run summary: fleet aggregates plus per-session roll-ups.

    ``cohorts`` and ``workers`` break the aggregate down by model cohort
    (queue wait vs service time) and execution lane (utilisation); they are
    only populated by flush records that carry those labels — i.e. by the
    asynchronous scheduler — and stay empty for pure lock-step runs.
    """

    ticks: int
    fleet: Dict[str, float]
    sessions: List[SessionStats] = field(default_factory=list)
    cohorts: Dict[str, Dict[str, float]] = field(default_factory=dict)
    workers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Per-cohort plan-specialisation counters (arena hit rate, held scratch
    #: bytes); keyed ``"default"`` for a single-cohort fleet.
    specialization: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def session(self, session_id: str) -> SessionStats:
        for stats in self.sessions:
            if stats.session_id == session_id:
                return stats
        raise KeyError(session_id)


class FleetTelemetry:
    """Accumulates :class:`FleetTickRecord` objects and aggregates them."""

    def __init__(self) -> None:
        self.records: List[FleetTickRecord] = []

    def record(self, record: FleetTickRecord) -> None:
        self.records.append(record)

    def append(self, **fields) -> FleetTickRecord:
        """Record a new :class:`FleetTickRecord`, numbered in arrival order."""
        record = FleetTickRecord(tick_index=len(self.records), **fields)
        self.records.append(record)
        return record

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    @property
    def total_labels(self) -> int:
        """Action labels emitted across the whole fleet."""
        return int(sum(r.batch_size for r in self.records))

    @property
    def total_batch_time_s(self) -> float:
        return float(sum(r.batch_latency_s for r in self.records))

    def throughput_labels_per_s(self) -> float:
        """Labels emitted per second of classification time."""
        if self.total_batch_time_s <= 0:
            return 0.0
        return self.total_labels / self.total_batch_time_s

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of the per-tick batch classification latency.

        Only ticks that actually classified something contribute: an empty
        flush (every session stalled) spends no time in ``predict_proba``,
        and counting its ``0.0`` would drag the percentiles toward zero
        exactly when the fleet is struggling.  Empty records still count for
        stall and backlog accounting.
        """
        latencies = [r.batch_latency_s for r in self.records if r.batch_size > 0]
        if not latencies:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        p50, p95, p99 = np.percentile(latencies, [50, 95, 99])
        return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}

    @property
    def total_shed(self) -> int:
        """Windows refused by admission control across the whole run."""
        return int(sum(r.shed_sessions for r in self.records))

    @property
    def total_deadline_violations(self) -> int:
        """Queued windows whose flush started after their deadline."""
        return int(sum(r.deadline_violations for r in self.records))

    def max_queue_wait_s(self) -> float:
        """Longest observed queue wait before a flush started."""
        if not self.records:
            return 0.0
        return max(r.max_queue_wait_s for r in self.records)

    def max_backlog_depth(self) -> int:
        """Deepest backlog observed behind stalled sessions."""
        if not self.records:
            return 0
        return max(r.backlog_depth for r in self.records)

    def stall_rate(self) -> float:
        """Fraction of submission opportunities lost to stalls.

        The denominator counts each submission exactly once across the run:
        classified windows (``batch_size``), stalls, sheds and rejected
        (non-finite) windows.  For lock-step fleets this equals the old
        per-tick ``n_sessions`` sum; for the async scheduler — where one
        flush record accumulates stalls from many ``submit()`` rounds — it
        keeps the rate a true fraction (the per-record ``n_sessions``
        snapshot would undercount and let the rate exceed 1.0).
        """
        opportunities = sum(
            r.batch_size + r.stalled_sessions + r.shed_sessions + r.rejected_sessions
            for r in self.records
        )
        if opportunities == 0:
            return 0.0
        return sum(r.stalled_sessions for r in self.records) / opportunities

    def specialized_hit_rate(self) -> float:
        """Fraction of non-empty flushes served from a specialised plan.

        The denominator only counts flushes that actually classified
        something: an empty flush runs no plan at all, so counting it would
        understate how often the hot path hit its pre-bound arena.
        """
        served = [r for r in self.records if r.batch_size > 0]
        if not served:
            return 0.0
        return sum(1 for r in served if r.specialized) / len(served)

    def max_stream_lag_s(self) -> float:
        """Deepest observed upstream stream lag (oldest-unacked age)."""
        if not self.records:
            return 0.0
        return max(r.stream_lag_s for r in self.records)

    def max_stream_depth(self) -> int:
        """Deepest observed un-acked window-stream depth."""
        if not self.records:
            return 0
        return max(r.stream_depth for r in self.records)

    def plan_version_transitions(self) -> Dict[str, List[tuple]]:
        """Per-cohort ``(tick_index, old_version, new_version)`` transitions.

        Scans each cohort's version-stamped records in order and reports
        every tick at which the serving plan version changed — the
        observable trace of a hot-swap.  Unversioned records (``0``) are
        skipped so pre-swap executors don't register phantom transitions.
        """
        last: Dict[str, int] = {}
        transitions: Dict[str, List[tuple]] = {}
        for record in self.records:
            if not record.cohort or record.plan_version <= 0:
                continue
            previous = last.get(record.cohort)
            if previous is not None and record.plan_version != previous:
                transitions.setdefault(record.cohort, []).append(
                    (record.tick_index, previous, record.plan_version)
                )
            last[record.cohort] = record.plan_version
        return transitions

    def worker_death_count(self) -> int:
        """Worker deaths observed across the run (one record per death)."""
        return sum(1 for r in self.records if r.flush_reason == "worker-died")

    def max_executor_wait_s(self) -> float:
        """Longest observed executor queueing/transport overhead."""
        if not self.records:
            return 0.0
        return max(r.executor_wait_s for r in self.records)

    def prepare_latency_p95_s(self) -> float:
        """p95 of lock-step ticks' prepare stage (0.0 without lock-step ticks)."""
        prepare = [r.prepare_latency_s for r in self.records if r.flush_reason == "tick"]
        return float(np.percentile(prepare, 95)) if prepare else 0.0

    def cohort_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-cohort roll-up: queue wait vs service time, violations, labels.

        Only asynchronous flush records carry a cohort label; lock-step
        ``tick`` records (which flush every cohort into one record) are
        excluded, so a pure lock-step run yields an empty breakdown.
        """
        grouped: Dict[str, List[FleetTickRecord]] = {}
        for record in self.records:
            if record.cohort:
                grouped.setdefault(record.cohort, []).append(record)
        breakdown: Dict[str, Dict[str, float]] = {}
        for cohort, records in grouped.items():
            service = [r.batch_latency_s for r in records if r.batch_size > 0]
            p50, p95 = (
                np.percentile(service, [50, 95]) if service else (0.0, 0.0)
            )
            breakdown[cohort] = {
                "flushes": float(len(records)),
                "labels": float(sum(r.batch_size for r in records)),
                "service_total_s": float(sum(service)),
                "service_p50_s": float(p50),
                "service_p95_s": float(p95),
                "max_queue_wait_s": max(r.max_queue_wait_s for r in records),
                "mean_executor_wait_s": float(
                    np.mean([r.executor_wait_s for r in records])
                ),
                "max_stream_lag_s": max(r.stream_lag_s for r in records),
                "deadline_violations": float(
                    sum(r.deadline_violations for r in records)
                ),
                "shed_windows": float(sum(r.shed_sessions for r in records)),
                "worker_deaths": float(
                    sum(1 for r in records if r.flush_reason == "worker-died")
                ),
                "degraded_flushes": float(sum(1 for r in records if r.degraded)),
                "plan_version": float(
                    max((r.plan_version for r in records), default=0)
                ),
            }
        return breakdown

    def worker_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-worker roll-up: flushes served, busy time, utilisation.

        Utilisation is busy time over the worker's observed span (first
        flush start to last flush completion); a worker with a single flush
        has no span and reports utilisation 1.0.
        """
        grouped: Dict[str, List[FleetTickRecord]] = {}
        for record in self.records:
            if record.worker:
                grouped.setdefault(record.worker, []).append(record)
        breakdown: Dict[str, Dict[str, float]] = {}
        for worker, records in grouped.items():
            busy = float(sum(r.batch_latency_s for r in records))
            starts = [r.completed_at_s - r.batch_latency_s for r in records]
            span = max(r.completed_at_s for r in records) - min(starts)
            breakdown[worker] = {
                "flushes": float(len(records)),
                "labels": float(sum(r.batch_size for r in records)),
                "busy_s": busy,
                "utilization": busy / span if span > 0 else 1.0,
            }
        return breakdown

    def summary(self) -> Dict[str, float]:
        percentiles = self.latency_percentiles()
        return {
            "ticks": float(len(self.records)),
            "total_labels": float(self.total_labels),
            "throughput_labels_per_s": self.throughput_labels_per_s(),
            "batch_latency_p50_s": percentiles["p50"],
            "batch_latency_p95_s": percentiles["p95"],
            "batch_latency_p99_s": percentiles["p99"],
            "max_backlog_depth": float(self.max_backlog_depth()),
            "stall_rate": self.stall_rate(),
            "shed_windows": float(self.total_shed),
            "rejected_windows": float(sum(r.rejected_sessions for r in self.records)),
            "deadline_violations": float(self.total_deadline_violations),
            "max_queue_wait_s": self.max_queue_wait_s(),
            "max_executor_wait_s": self.max_executor_wait_s(),
            "stream_lag_s": self.max_stream_lag_s(),
            "max_stream_depth": float(self.max_stream_depth()),
            "workers": float(len({r.worker for r in self.records if r.worker})),
            "specialized_hit_rate": self.specialized_hit_rate(),
            "worker_deaths": float(self.worker_death_count()),
            "plan_swaps": float(
                sum(len(t) for t in self.plan_version_transitions().values())
            ),
            "prepare_latency_p95_s": self.prepare_latency_p95_s(),
        }


def calibrate_batch_latency_s(
    classifier: EEGClassifier, example_batch: np.ndarray, repeats: int = 5
) -> float:
    """Median wall-clock latency of one batched ``predict_proba`` call.

    Used to size a fleet before running it: with label period ``T`` and a
    calibrated batch latency ``L(n)``, a fleet of ``n`` sessions is
    sustainable when ``L(n) <= T``.  Delegates to
    ``EEGClassifier.inference_latency_s`` (and through it the shared timing
    helper) so calibration can never diverge from the model's own reported
    latency.
    """
    example_batch = np.asarray(example_batch)
    if example_batch.ndim != 3:
        raise ValueError("example_batch must be (n, channels, samples)")
    return classifier.inference_latency_s(example_batch, repeats=repeats)


def session_stats(sessions: Sequence) -> List[SessionStats]:
    """Build the per-session roll-up from :class:`ServingSession` objects."""
    return [
        SessionStats(
            session_id=s.session_id,
            labels_emitted=s.labels_emitted(),
            accuracy=s.accuracy(),
            dropped_windows=s.dropped_windows,
        )
        for s in sessions
    ]
