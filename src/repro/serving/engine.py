"""The cohort flush engine shared by every scheduler front end.

Two front ends feed windows to the classifiers: sessions submitting in
process (:class:`~repro.serving.scheduler.AsyncFleetScheduler`) and a
consumer group draining cohort streams
(:class:`~repro.streams.consumer.StreamConsumerScheduler`).  They differ
only in how windows arrive and where results go; everything between is
:class:`CohortFlushEngine`:

- one :class:`~repro.serving.batcher.MicroBatcher` and one queue of
  :class:`QueuedWindow` items per cohort, bound to one
  :class:`~repro.serving.executors.FlushExecutor`;
- the flush policy: a cohort flushes when its batch fills or when the
  oldest queued window's deadline arrives, with wake times pulled forward
  by a per-cohort service-time EWMA on a serializing executor;
- at most one in-flight flush per cohort, harvested on the caller's thread;
- worker supervision: deaths are counted, requeued and (on a supervised
  executor) absorbed, respawning cohorts wait out their backoff, and
  quarantined cohorts degrade to an inline serial fallback lane;
- plan hot-swap, fleet health, telemetry records and the fleet report.

A front end supplies windows through :meth:`CohortFlushEngine._enqueue`
and implements a handful of hooks: :meth:`~CohortFlushEngine._deliver`
(route one finished flush's rows), :meth:`~CohortFlushEngine._record_fields`
(its own telemetry fields), :meth:`~CohortFlushEngine._on_superseded`
(account for a window a fresher one replaced) and, optionally,
:meth:`~CohortFlushEngine._flight_context` and
:meth:`~CohortFlushEngine._serves`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.models.base import EEGClassifier
from repro.serving.batcher import BatchResult, ExecutionResult, MicroBatcher, PreparedBatch
from repro.serving.executors import (
    WORKER_QUARANTINED,
    WORKER_RESPAWNING,
    CohortQuarantinedError,
    FlushExecutor,
    FlushTicket,
    SerialExecutor,
    WorkerDiedError,
    WorkerRespawnPending,
)
from repro.serving.telemetry import FleetReport, FleetTelemetry, FleetTickRecord
from repro.utils.timing import SYSTEM_CLOCK, Clock

#: Tolerance when deciding whether a flush started past a window's deadline,
#: so flushing *exactly* at the deadline never counts as a violation.
_DEADLINE_EPS = 1e-9

#: EWMA weight for the per-cohort flush-service-time estimate.
_SERVICE_EWMA_ALPHA = 0.25
#: Safety margin on the service estimate when computing serial wake times;
#: overestimating flushes a touch early (safe), underestimating violates.
_SERVICE_SAFETY = 1.5


@dataclass(frozen=True)
class SchedulerConfig:
    """Policy knobs for the schedulers.

    Parameters
    ----------
    deadline_s:
        Maximum time any queued window may wait before its cohort's flush
        *starts*.  The scheduler reports the next due time via
        :meth:`CohortFlushEngine.next_flush_due_s`; a driver that pumps by
        then observes zero deadline violations.
    max_batch_size:
        Flush a cohort immediately once this many windows are queued, and
        also the chunk cap handed to each cohort's :class:`MicroBatcher`.
    latency_budget_s:
        Admission-control budget on the observed p95 flush latency.  ``None``
        disables admission control entirely (every window is admitted).
    admission_window:
        Number of recent flush latencies in the sliding p95 estimate.
    recovery_fraction:
        Hysteresis: once shedding, admission resumes only when the observed
        p95 falls to ``recovery_fraction * latency_budget_s`` or below.
    shed_ratio:
        Fraction of incoming windows refused while shedding, spread evenly
        across submissions.  Must stay below 1.0 so flushes (and therefore
        fresh latency samples) keep happening and the controller can observe
        recovery.
    stream_lag_budget_s:
        Admission-control budget on the *upstream* stream lag (oldest
        un-acked window age on the streaming data plane).  Flush-latency
        percentiles cannot see windows queueing in the log before a
        scheduler reads them, so on the stream plane shedding must also
        trigger on lag, before the log grows unbounded.  ``None`` (the
        default, and the only meaningful setting off the stream plane)
        disables the lag trigger.
    """

    deadline_s: float = 0.015
    max_batch_size: int = 32
    latency_budget_s: Optional[float] = None
    admission_window: int = 32
    recovery_fraction: float = 0.5
    shed_ratio: float = 0.5
    stream_lag_budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.latency_budget_s is not None and self.latency_budget_s <= 0:
            raise ValueError("latency_budget_s must be positive (or None)")
        if self.admission_window < 1:
            raise ValueError("admission_window must be at least 1")
        if not 0.0 < self.recovery_fraction <= 1.0:
            raise ValueError("recovery_fraction must be in (0, 1]")
        if not 0.0 < self.shed_ratio < 1.0:
            raise ValueError(
                "shed_ratio must be in (0, 1): shedding everything would "
                "starve the latency estimate and never recover"
            )
        if self.stream_lag_budget_s is not None and self.stream_lag_budget_s <= 0:
            raise ValueError("stream_lag_budget_s must be positive (or None)")


class ModelRouter:
    """Routes sessions to per-cohort classifiers behind one scheduler.

    Windows destined for different models cannot share a ``predict_proba``
    call, so the scheduler keeps one batcher and queue per cohort; the
    router owns the cohort → classifier mapping.  Construct it from a dict
    (insertion order fixes the cohort flush order) or from a bare classifier
    for the homogeneous single-cohort case.
    """

    DEFAULT_COHORT = "default"

    def __init__(
        self,
        classifiers: Union[EEGClassifier, Mapping[str, EEGClassifier]],
        default_cohort: Optional[str] = None,
    ) -> None:
        if isinstance(classifiers, Mapping):
            if not classifiers:
                raise ValueError("ModelRouter needs at least one classifier")
            self._classifiers = dict(classifiers)
        else:
            self._classifiers = {self.DEFAULT_COHORT: classifiers}
        if default_cohort is None:
            default_cohort = next(iter(self._classifiers))
        if default_cohort not in self._classifiers:
            raise KeyError(f"default cohort {default_cohort!r} has no classifier")
        self.default_cohort = default_cohort

    @property
    def cohorts(self) -> Tuple[str, ...]:
        return tuple(self._classifiers)

    def classifier_for(self, cohort: str) -> EEGClassifier:
        try:
            return self._classifiers[cohort]
        except KeyError:
            raise KeyError(
                f"unknown cohort {cohort!r}; routable cohorts: {list(self._classifiers)}"
            ) from None

    def resolve(self, cohort: Optional[str]) -> str:
        """Normalise an optional cohort name, validating it exists."""
        if cohort is None:
            return self.default_cohort
        self.classifier_for(cohort)
        return cohort

    def replace(self, cohort: str, classifier: EEGClassifier) -> None:
        """Swap a cohort's classifier in place (plan hot-swap).

        Only existing cohorts can be replaced — the cohort set is fixed at
        scheduler construction (queues, batchers and executor lanes are all
        keyed on it).
        """
        if cohort not in self._classifiers:
            raise KeyError(
                f"unknown cohort {cohort!r}; routable cohorts: {list(self._classifiers)}"
            )
        self._classifiers[cohort] = classifier


@dataclass
class QueuedWindow:
    """One window waiting in a cohort queue for the next flush."""

    session_id: str
    window: np.ndarray
    #: Clock time the deadline is measured from (arrival, or the stream
    #: entry's timestamp on the stream plane).
    origin_s: float
    #: Absolute clock time by which the flush must start.
    due_s: float
    #: Front-end handle on where the window came from (the stream entry on
    #: the stream plane; ``None`` for direct submissions).
    source: Any = None


@dataclass
class FlushEvent:
    """Outcome of one cohort flush (async or lock-step)."""

    cohort: str
    #: "deadline", "full", "drain", "worker-died" or "tick" (lock-step).
    reason: str
    flushed_at_s: float
    #: Each served session's resulting tick, keyed by session id (empty on
    #: the stream plane, where results go to the result stream).
    ticks: Dict[str, Any] = field(default_factory=dict)
    batch_size: int = 0
    #: Service time: wall clock spent inside ``predict_proba`` only.
    latency_s: float = 0.0
    max_queue_wait_s: float = 0.0
    deadline_violations: int = 0
    #: Execution backend lane that served the flush ("serial", a worker
    #: thread name, or a shard-worker id).
    worker: str = ""
    #: Time between handing the batch to the executor and the result being
    #: folded back in, minus the service time: executor queueing/transport
    #: overhead (0.0 for the inline serial path).
    executor_wait_s: float = 0.0


@dataclass
class _InFlightFlush:
    """Book-keeping for one flush handed to the executor, until harvest."""

    cohort: str
    reason: str
    started_at_s: float
    max_wait_s: float
    violations: int
    #: The queued windows this flush took, in batch-row order.
    items: List[QueuedWindow]
    prepared: PreparedBatch
    ticket: FlushTicket
    #: True when the flush ran on a degraded (serial fallback) lane rather
    #: than the configured executor.
    degraded: bool
    #: Front-end state captured at flush start (see ``_flight_context``).
    context: Any


class CohortFlushEngine:
    """Per-cohort queues, flush policy, in-flight tracking and supervision.

    Not used directly: a front end subclasses it, queues windows with
    :meth:`_enqueue` and implements the delivery hooks.  ``cohorts`` fixes
    the cohorts this engine serves (default: every routable cohort), in
    flush order.
    """

    def __init__(
        self,
        router: Union[ModelRouter, EEGClassifier, Mapping[str, EEGClassifier]],
        cohorts: Optional[Iterable[str]] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        clock: Optional[Clock] = None,
        executor: Optional[FlushExecutor] = None,
    ) -> None:
        self.router = router if isinstance(router, ModelRouter) else ModelRouter(router)
        self.scheduler_config = scheduler_config or SchedulerConfig()
        self.clock = clock or SYSTEM_CLOCK
        self.telemetry = FleetTelemetry()
        self.executor: FlushExecutor = executor or SerialExecutor()
        classifiers = {
            cohort: self.router.classifier_for(cohort)
            for cohort in (self.router.cohorts if cohorts is None else cohorts)
        }
        # Remote executors classify on worker-owned plan replicas, which
        # auto-specialise over there; binding arenas on the local plans
        # would only pin scratch that never executes.
        local_execution = not getattr(self.executor, "remote_execution", False)
        self._batchers: Dict[str, MicroBatcher] = {
            cohort: MicroBatcher(
                classifier,
                max_batch_size=self.scheduler_config.max_batch_size,
                clock=self.clock,
                specialize=local_execution,
            )
            for cohort, classifier in classifiers.items()
        }
        self.executor.bind(classifiers, clock=self.clock)
        self._queues: Dict[str, List[QueuedWindow]] = {c: [] for c in classifiers}
        self._inflight: Dict[str, _InFlightFlush] = {}
        # Per-cohort EWMA of flush *service* time (execute only).  ``None``
        # means "no sample yet": a genuine zero-latency sample (exact under a
        # virtual clock) must seed the estimate, not reset it.
        self._service_ewma_s: Dict[str, Optional[float]] = {
            cohort: None for cohort in classifiers
        }
        #: Current plan version per cohort; stamped onto every flush record.
        self._plan_versions: Dict[str, int] = {cohort: 1 for cohort in classifiers}
        #: Quarantined cohorts now served by their inline serial fallback.
        self._degraded: set = set()
        #: Lazily-built per-cohort serial fallbacks (degraded serving and
        #: drain-time service of cohorts whose worker is mid-respawn).
        self._fallbacks: Dict[str, SerialExecutor] = {}
        #: Worker deaths observed, whether healed or raised.
        self.worker_deaths = 0
        #: Plan hot-swaps completed through :meth:`swap_plan`.
        self.plan_swaps = 0
        self._record_index = 0
        #: Most recent flush (any trigger) — the only handle on a flush that
        #: happened inline when a batch filled.
        self.last_flush_event: Optional[FlushEvent] = None

    # ------------------------------------------------------------------ #
    # front-end hooks
    # ------------------------------------------------------------------ #
    def _deliver(
        self, flight: _InFlightFlush, result: BatchResult, execution: ExecutionResult
    ) -> Dict[str, Any]:
        """Route one finished flush's rows; returns the ticks for its event."""
        raise NotImplementedError

    def _record_fields(self, context: Any) -> Dict[str, Any]:
        """The front end's own fields of a telemetry record.

        Must supply ``n_sessions``, ``stalled_sessions`` and
        ``backlog_depth``; ``context`` is the flight's context, or ``None``
        for records no flush carries.
        """
        raise NotImplementedError

    def _on_superseded(self, cohort: str, stale: QueuedWindow) -> None:
        """Account for a window a fresher one from its session replaced."""
        raise NotImplementedError

    def _flight_context(self, cohort: str) -> Any:
        """Front-end state to capture when a cohort's flush starts."""
        return None

    def _serves(self, session_id: str) -> bool:
        """Whether results for this session are still wanted."""
        return True

    # ------------------------------------------------------------------ #
    # queueing
    # ------------------------------------------------------------------ #
    @property
    def cohorts(self) -> Tuple[str, ...]:
        """Cohorts this engine serves, in flush order."""
        return tuple(self._queues)

    @property
    def inflight_cohorts(self) -> Tuple[str, ...]:
        """Cohorts whose flush is currently running on the executor."""
        return tuple(self._inflight)

    def _enqueue(
        self,
        cohort: str,
        session_id: str,
        window: np.ndarray,
        origin_s: float,
        source: Any = None,
    ) -> None:
        """Queue one window, due ``deadline_s`` after ``origin_s``.

        If the session already has a window queued (it outran the flush
        cadence), the fresh window supersedes the stale one — real-time
        semantics: stale windows are dropped, not replayed.  The fresh one
        is appended, so a uniform deadline keeps each queue due-ordered.
        """
        queue = self._queues[cohort]
        for index, item in enumerate(queue):
            if item.session_id == session_id:
                self._on_superseded(cohort, queue.pop(index))
                break
        queue.append(
            QueuedWindow(
                session_id,
                window,
                origin_s=origin_s,
                due_s=origin_s + self.scheduler_config.deadline_s,
                source=source,
            )
        )

    def _requeue(self, flight: _InFlightFlush) -> None:
        """Put an unserved flush's windows back at the head of its queue.

        The original origins were consumed by ``_begin_flush``; the flush
        start stands in (it is never earlier, so the re-derived deadlines
        are conservative).  Windows whose session is no longer served are
        dropped, matching the harvest path, and a session that already
        queued a *fresher* window behind the in-flight flush keeps that one
        — the stale window is superseded, exactly as if the flush had never
        started.
        """
        queue = self._queues[flight.cohort]
        fresher = {item.session_id for item in queue}
        due_s = flight.started_at_s + self.scheduler_config.deadline_s
        requeued = []
        for item in flight.items:
            if not self._serves(item.session_id):
                continue
            if item.session_id in fresher:
                self._on_superseded(flight.cohort, item)
                continue
            item.origin_s, item.due_s = flight.started_at_s, due_s
            requeued.append(item)
        self._queues[flight.cohort] = requeued + queue

    # ------------------------------------------------------------------ #
    # supervision / self-healing
    # ------------------------------------------------------------------ #
    def _supervised(self) -> bool:
        """Whether the executor exposes the worker-supervision surface."""
        return hasattr(self.executor, "worker_state")

    def _fallback_for(self, cohort: str) -> SerialExecutor:
        """The cohort's inline serial fallback lane, built on first use."""
        fallback = self._fallbacks.get(cohort)
        if fallback is None:
            fallback = SerialExecutor(label=f"degraded:{cohort}")
            fallback.bind(
                {cohort: self.router.classifier_for(cohort)}, clock=self.clock
            )
            self._fallbacks[cohort] = fallback
        return fallback

    def _degrade(self, cohort: str) -> None:
        """Permanently route a quarantined cohort to its serial fallback."""
        if cohort not in self._degraded:
            self._degraded.add(cohort)
            self._fallback_for(cohort)

    def _executor_for(self, cohort: str) -> FlushExecutor:
        if cohort in self._degraded:
            return self._fallbacks[cohort]
        return self.executor

    def _cohort_available(self, cohort: str) -> bool:
        """Whether a flush submitted for this cohort now would be accepted.

        Respawning cohorts are unavailable until their backoff elapses (the
        windows keep queueing; :meth:`_schedule` pushes their wake time to
        the retry); quarantined cohorts degrade to the serial fallback and
        become available again immediately.
        """
        if cohort in self._degraded or not self._supervised():
            return True
        state = self.executor.worker_state(cohort)
        if state == WORKER_QUARANTINED:
            self._degrade(cohort)
            return True
        if state == WORKER_RESPAWNING:
            retry_at = self.executor.respawn_due_s(cohort)
            return retry_at is None or self.clock.now() >= retry_at
        return True

    def _effective_due_s(self, cohort: str, due_s: float) -> float:
        """A queued window's due time, pushed back to any pending respawn.

        A cohort whose worker is mid-backoff cannot flush before the retry
        time no matter how overdue its windows are; scheduling the wake at
        the original due time would spin the pump without progress.
        """
        if cohort in self._degraded or not self._supervised():
            return due_s
        if self.executor.worker_state(cohort) == WORKER_RESPAWNING:
            retry_at = self.executor.respawn_due_s(cohort)
            if retry_at is not None:
                return max(due_s, retry_at)
        return due_s

    def _heal_worker_death(self, cohort: str) -> bool:
        """Count one worker death and absorb it; ``False`` means raise.

        Every observed death is counted.  Healing is only possible when the
        executor supervises its workers (it respawns the lane; the engine
        merely waits out the backoff): it emits a ``worker-died`` telemetry
        record and degrades the cohort if the supervisor quarantined it.
        """
        self.worker_deaths += 1
        if not self._supervised():
            return False
        self._record(
            cohort,
            "worker-died",
            completed_at_s=self.clock.now(),
            plan_version=self._plan_versions.get(cohort, 0),
        )
        if self.executor.worker_state(cohort) == WORKER_QUARANTINED:
            self._degrade(cohort)
        return True

    def _try_begin_flush(
        self, cohort: str, reason: str
    ) -> Optional[_InFlightFlush]:
        """Begin a flush, absorbing recoverable executor failures.

        Returns ``None`` when the flush could not start but the windows are
        safely back in the queue: the worker died at submit (healed — the
        supervisor respawns it), the cohort is mid-backoff, or it was just
        quarantined (degraded — the next attempt serves via the fallback).
        Unrecoverable failures (or deaths on an unsupervised executor)
        propagate.
        """
        try:
            return self._begin_flush(cohort, reason)
        except WorkerDiedError:
            # _begin_flush already restored the queue before re-raising.
            if not self._heal_worker_death(cohort):
                raise
            return None
        except WorkerRespawnPending:
            return None
        except CohortQuarantinedError:
            self._degrade(cohort)
            return None

    # ------------------------------------------------------------------ #
    # flush scheduling
    # ------------------------------------------------------------------ #
    def service_estimate_s(self, cohort: str) -> Optional[float]:
        """Current EWMA of the cohort's flush service time (None = no sample)."""
        return self._service_ewma_s[cohort]

    def _schedule(self) -> Tuple[Optional[float], List[str]]:
        """Wake time and flush order meeting all deadlines on this executor.

        Queues are due-ordered (FIFO under one uniform deadline), so each
        head is its cohort's oldest deadline.  On a serializing executor
        cohorts flush one after another, so a cohort's flush must start
        early enough that the cohorts due *before* it can be served first:
        with dues ``d1 <= d2 <= ...`` and (safety-inflated) service
        estimates ``s1, s2, ...``, the executor must wake at ``min(d1,
        d2 - s1, d3 - s1 - s2, ...)``.  With one cohort this degenerates to
        the oldest window's plain due time.

        On a concurrent executor (thread pool, process shards) cohort
        flushes overlap, so every cohort's deadline stands alone and the
        wake time is simply the earliest due time.
        """
        pending = sorted(
            (self._effective_due_s(cohort, queue[0].due_s), cohort)
            for cohort, queue in self._queues.items()
            if queue
        )
        if not pending:
            return None, []
        order = [cohort for _, cohort in pending]
        if not self.executor.serializes_flushes:
            return pending[0][0], order
        wake = float("inf")
        ahead = 0.0
        for due, cohort in pending:
            wake = min(wake, due - ahead)
            estimate = self._service_ewma_s[cohort]
            ahead += _SERVICE_SAFETY * (estimate if estimate is not None else 0.0)
        return wake, order

    def next_flush_due_s(self) -> Optional[float]:
        """Absolute clock time by which :meth:`pump` must next be called.

        A driver that pumps no later than this guarantees no queued window
        waits past its deadline: the time is the earliest pending due time,
        pulled forward — on a serializing executor — by the estimated
        service time of any other cohorts that must flush first.  ``None``
        when nothing is queued.
        """
        wake, _ = self._schedule()
        return wake

    def pump(self, horizon_s: float = 0.0, wait: bool = True) -> List[FlushEvent]:
        """Flush cohorts whose wake time has arrived, in due order.

        A cohort can flush slightly *before* its own deadline when (on a
        serializing executor) an earlier-due cohort's estimated service time
        would otherwise push it past; flushing early is always
        deadline-safe, just a smaller batch.  On a concurrent executor every
        due cohort is handed to the executor immediately, so their flushes
        overlap.

        ``horizon_s`` extends the lookahead for drivers that are about to
        be busy: ``pump(horizon_s=0.005)`` also flushes anything that would
        come due within the next 5 ms, so a single-threaded driver can
        flush *before* starting work it cannot interrupt (e.g. an expensive
        ``prepare_window``) instead of returning to an already-missed
        deadline.

        With ``wait=True`` (the default) the call blocks until every flush
        it started has been harvested, so the returned events are complete
        and no executor work remains when it returns.  ``wait=False``
        returns as soon as the due flushes are *started*; their events
        surface from a later ``pump``/``drain`` once the futures complete
        (see :attr:`inflight_cohorts`).  Either way, a cohort whose previous
        flush is still in flight is never double-flushed: the call waits
        that flush out first.
        """
        if horizon_s < 0:
            raise ValueError("horizon_s must be non-negative")
        events = self._harvest(block=False)
        while True:
            # A backlog that filled to a whole batch behind an in-flight
            # flush is due the moment the cohort frees up, deadline or not —
            # the inline full-batch flush was refused for it.
            cohort = self._next_full_cohort()
            reason = "full"
            if cohort is None:
                wake, order = self._schedule()
                if wake is None or self.clock.now() + horizon_s < wake - _DEADLINE_EPS:
                    break
                cohort = next(
                    (
                        c
                        for c in order
                        if c not in self._inflight and self._cohort_available(c)
                    ),
                    None,
                )
                reason = "deadline"
                if cohort is None:
                    # Every due cohort is either in flight or waiting out a
                    # respawn backoff.  Wait the most urgent in-flight one
                    # out and reconsider (its queue may have refilled); with
                    # nothing in flight there is no progress to make now —
                    # the respawning cohorts' wake times are in the future.
                    busy = next((c for c in order if c in self._inflight), None)
                    if busy is None:
                        break
                    events.append(self._complete(busy))
                    continue
            flight = self._try_begin_flush(cohort, reason=reason)
            if flight is None:
                # Worker death absorbed (or backoff hit) — the windows are
                # back in the queue and the cohort is unavailable until its
                # respawn, so the next _schedule() pass moves past it.
                continue
            if flight.ticket.done():
                events.append(self._complete(cohort))
        if wait:
            # Wait out *everything* in flight — flushes started here and any
            # left over from an earlier pump(wait=False) — so the documented
            # contract holds: no executor work remains when pump() returns.
            events.extend(self._harvest(block=True))
            while (cohort := self._next_full_cohort()) is not None:
                flight = self._try_begin_flush(cohort, reason="full")
                if flight is None:
                    break  # cohort went respawning; a later pump serves it
                events.append(self._complete(cohort))
        return events

    def drain(self) -> List[FlushEvent]:
        """Flush everything still queued, regardless of deadlines.

        Also waits out and returns any flushes still in flight on the
        executor, so after ``drain()`` no window and no future is pending.
        """
        events = self._harvest(block=True)
        passes = 0
        while any(self._queues.values()):
            passes += 1
            if passes > 64:
                raise RuntimeError(
                    "drain() did not converge: workers keep dying faster "
                    "than the fallback can serve"
                )
            for cohort in [c for c, q in self._queues.items() if q]:
                if not self._queues[cohort]:
                    continue
                if self._cohort_available(cohort):
                    flight = self._try_begin_flush(cohort, reason="drain")
                    if flight is not None:
                        events.append(self._complete(cohort))
                        continue
                if self._queues[cohort]:
                    # The cohort's worker is mid-respawn and drain cannot
                    # wait out virtual backoffs: serve this one flush on
                    # the inline fallback without degrading the cohort.
                    self._begin_flush(
                        cohort, reason="drain", executor=self._fallback_for(cohort)
                    )
                    events.append(self._complete(cohort))
        return events

    def _harvest(self, block: bool) -> List[FlushEvent]:
        """Fold completed in-flight flushes back in; optionally wait for all."""
        events = []
        for cohort in list(self._inflight):
            if block or self._inflight[cohort].ticket.done():
                events.append(self._complete(cohort))
        return events

    def _full_and_free(self, cohort: str) -> bool:
        """Whether the cohort's backlog fills a whole batch and may flush now."""
        return (
            len(self._queues[cohort]) >= self.scheduler_config.max_batch_size
            and cohort not in self._inflight
            and self._cohort_available(cohort)
        )

    def _next_full_cohort(self) -> Optional[str]:
        """A cohort whose backlog fills a whole batch and is free to flush."""
        return next((c for c in self._queues if self._full_and_free(c)), None)

    def _flush_if_full(self, cohort: str) -> Optional[FlushEvent]:
        """Flush a cohort inline once its queue fills a whole batch.

        ``None`` when the batch is not full, the cohort already has a flush
        in flight (the backlog flushes as soon as that one is harvested), or
        the flush could not start (the windows stay queued for a later
        pump or drain).
        """
        if (
            self._full_and_free(cohort)
            and self._try_begin_flush(cohort, reason="full") is not None
        ):
            return self._complete(cohort)
        return None

    # ------------------------------------------------------------------ #
    # flush mechanics
    # ------------------------------------------------------------------ #
    def _begin_flush(
        self,
        cohort: str,
        reason: str,
        executor: Optional[FlushExecutor] = None,
    ) -> _InFlightFlush:
        """Hand a cohort's queued windows to the executor (phase one).

        ``executor`` overrides the cohort's routed lane for this one flush
        (drain uses it to serve a mid-respawn cohort on the inline fallback
        without degrading it permanently).
        """
        if cohort in self._inflight:
            raise RuntimeError(
                f"cohort {cohort!r} already has a flush in flight; "
                "double-flushes are refused"
            )
        if executor is None:
            executor = self._executor_for(cohort)
        items, self._queues[cohort] = self._queues[cohort], []
        if not items:
            raise RuntimeError(f"internal: flush of empty cohort queue {cohort!r}")
        context = self._flight_context(cohort)
        batcher = self._batchers[cohort]
        started_at = self.clock.now()
        waits = [started_at - item.origin_s for item in items]
        violations = sum(
            1 for item in items if started_at > item.due_s + _DEADLINE_EPS
        )
        for item in items:
            batcher.submit(item.session_id, item.window)
        prepared = batcher.prepare()
        assert prepared is not None
        try:
            ticket = executor.submit_flush(cohort, prepared)
        except Exception:
            # The executor refused the batch (worker died, pool shut down).
            # Put the windows back so no admitted window is silently lost:
            # a recovered executor (or drain) can still serve them, and the
            # one-result-per-admitted-window conservation invariant holds.
            self._queues[cohort] = items + self._queues[cohort]
            raise
        flight = _InFlightFlush(
            cohort=cohort,
            reason=reason,
            started_at_s=started_at,
            max_wait_s=max(waits, default=0.0),
            violations=violations,
            items=items,
            prepared=prepared,
            ticket=ticket,
            degraded=executor is not self.executor,
            context=context,
        )
        self._inflight[cohort] = flight
        return flight

    def _complete(self, cohort: str) -> FlushEvent:
        """Harvest one in-flight flush: deliver results, record telemetry."""
        flight = self._inflight[cohort]
        # Resolve the ticket *before* dropping the in-flight entry: if
        # result() raises (worker timeout), the flush stays tracked and a
        # later pump/drain retries the harvest instead of wedging the cohort.
        try:
            execution = flight.ticket.result()
        except WorkerDiedError:
            # The worker is gone and this flush will never be answered:
            # requeue the windows (the respawned worker, fallback or drain
            # serves them) instead of wedging the cohort behind a dead lane.
            # On a supervised executor the death is absorbed — the
            # supervisor schedules the respawn and a synthetic event marks
            # the spot; on an unsupervised one the error reaches the driver.
            del self._inflight[cohort]
            self._requeue(flight)
            if not self._heal_worker_death(cohort):
                raise
            event = FlushEvent(
                cohort=cohort, reason="worker-died", flushed_at_s=flight.started_at_s
            )
            self.last_flush_event = event
            return event
        del self._inflight[cohort]
        result = self._batchers[cohort].finalize(flight.prepared, execution)
        completed_at = self.clock.now()
        # Service EWMA: execute-only time, so wake-time estimates are not
        # polluted by executor queueing.  None means "no sample yet" — a
        # genuine 0.0 sample must seed the estimate, not reset it.
        previous = self._service_ewma_s[cohort]
        self._service_ewma_s[cohort] = (
            execution.service_s
            if previous is None
            else _SERVICE_EWMA_ALPHA * execution.service_s
            + (1.0 - _SERVICE_EWMA_ALPHA) * previous
        )
        ticks = self._deliver(flight, result, execution)
        executor_wait = max(
            0.0, (completed_at - flight.started_at_s) - execution.service_s
        )
        self._record(
            cohort,
            flight.reason,
            batch_size=len(result),
            latency_s=result.latency_s,
            violations=flight.violations,
            max_wait=flight.max_wait_s,
            context=flight.context,
            worker=execution.worker,
            executor_wait_s=executor_wait,
            completed_at_s=completed_at,
            specialized=execution.specialized,
            plan_version=execution.plan_version
            or self._plan_versions.get(cohort, 0),
            degraded=flight.degraded,
        )
        event = FlushEvent(
            cohort=cohort,
            reason=flight.reason,
            flushed_at_s=flight.started_at_s,
            ticks=ticks,
            batch_size=len(result),
            latency_s=result.latency_s,
            max_queue_wait_s=flight.max_wait_s,
            deadline_violations=flight.violations,
            worker=execution.worker,
            executor_wait_s=executor_wait,
        )
        self.last_flush_event = event
        return event

    def _record(
        self,
        cohort: str,
        reason: str,
        batch_size: int = 0,
        latency_s: float = 0.0,
        violations: int = 0,
        max_wait: float = 0.0,
        context: Any = None,
        **fields: Any,
    ) -> None:
        """Append one telemetry record (front-end fields from the hook)."""
        self.telemetry.record(
            FleetTickRecord(
                tick_index=self._record_index,
                batch_size=batch_size,
                batch_latency_s=latency_s,
                deadline_violations=violations,
                max_queue_wait_s=max_wait,
                flush_reason=reason,
                cohort=cohort,
                **fields,
                **self._record_fields(context),
            )
        )
        self._record_index += 1

    # ------------------------------------------------------------------ #
    # plan hot-swap / fleet health
    # ------------------------------------------------------------------ #
    def swap_plan(
        self,
        cohort: Optional[str] = None,
        payload: Optional[bytes] = None,
        classifier: Optional[EEGClassifier] = None,
    ) -> int:
        """Swap a cohort's serving plan under traffic; returns the new version.

        Pass exactly one of ``payload`` (``.npz`` transport bytes from
        :meth:`repro.models.compiled.CompiledClassifier.to_payload`) or
        ``classifier`` (a live classifier object).  Any in-flight flush for
        the cohort is harvested first, so no flush straddles the swap: every
        flush serves entirely on the old plan or entirely on the new one,
        and version-aware executors stamp which on each record.

        On a remote, swap-capable executor (process shards, the chaos
        simulator) the payload ships to the worker as a versioned control
        message and the worker double-buffers the flip; the local router,
        batcher and fallback are updated in lockstep so drain-time and
        degraded serving also use the new plan.  On local executors the
        swap is a synchronous classifier replacement between flushes.
        """
        cohort = self.router.resolve(cohort)
        if (payload is None) == (classifier is None):
            raise ValueError("pass exactly one of payload= or classifier=")
        if cohort in self._inflight:
            self._complete(cohort)
        executor = self.executor
        remote_swap = getattr(executor, "remote_execution", False) and hasattr(
            executor, "swap_plan"
        )
        if classifier is not None:
            local = classifier
        else:
            from repro.models.compiled import CompiledClassifier

            local = CompiledClassifier.from_payload(payload)
        if remote_swap:
            version = executor.swap_plan(
                cohort, payload if payload is not None else classifier
            )
        else:
            version = self._plan_versions.get(cohort, 0) + 1
            swap = getattr(executor, "swap_classifier", None)
            if swap is not None:
                swap(cohort, local)
        self.router.replace(cohort, local)
        self._batchers[cohort].swap_classifier(local)
        if cohort in self._fallbacks:
            self._fallbacks[cohort].swap_classifier(cohort, local)
        self._plan_versions[cohort] = version
        self.plan_swaps += 1
        return version

    def plan_version(self, cohort: Optional[str] = None) -> int:
        """Current plan version of a cohort (1 until the first swap)."""
        return self._plan_versions.get(self.router.resolve(cohort), 0)

    def fleet_health(self) -> Dict[str, Dict[str, Any]]:
        """Per-cohort supervision snapshot: state, plan version, restarts.

        ``state`` is ``"degraded"`` once a cohort serves from its serial
        fallback, otherwise the supervisor's view (``running`` /
        ``respawning`` / ``quarantined``; plain ``running`` on unsupervised
        executors, which have no lanes to lose).
        """
        health: Dict[str, Dict[str, Any]] = {}
        supervised = self._supervised()
        for cohort, queue in self._queues.items():
            if cohort in self._degraded:
                state = "degraded"
            elif supervised:
                state = self.executor.worker_state(cohort)
            else:
                state = "running"
            restarts = 0
            if supervised and hasattr(self.executor, "restart_count"):
                restarts = self.executor.restart_count(cohort)
            health[cohort] = {
                "state": state,
                "plan_version": self._plan_versions.get(cohort, 0),
                "restarts": restarts,
                "queued": len(queue),
            }
        return health

    # ------------------------------------------------------------------ #
    # reporting / lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Drain pending work, then stop the executor and any fallbacks."""
        self.drain()
        self.executor.shutdown()
        for fallback in self._fallbacks.values():
            fallback.shutdown()
        self._fallbacks = {}
        self._degraded = set()

    def report(self) -> FleetReport:
        """Flush-side fleet summary (no per-session roll-ups)."""
        return FleetReport(
            ticks=self._record_index,
            fleet=self.telemetry.summary(),
            cohorts=self.telemetry.cohort_breakdown(),
            workers=self.telemetry.worker_breakdown(),
            specialization={
                cohort: stats
                for cohort, batcher in self._batchers.items()
                if (stats := batcher.specialization_stats()) is not None
            },
        )
