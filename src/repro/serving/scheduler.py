"""Deadline-aware asynchronous fleet scheduling with admission control.

:class:`AsyncFleetScheduler` is the in-process front end of the cohort
flush engine (:mod:`repro.serving.engine`): sessions attach to it and
submit windows whenever their acquisition hardware produces them, and
results go straight back into each session's ``apply_result``.  The
engine owns everything between — per-cohort queues and batchers, the
deadline/full-batch flush policy, in-flight tracking, worker supervision
and plan hot-swap — shared with the stream-plane front end
(:class:`~repro.streams.consumer.StreamConsumerScheduler`).  This module
adds what only the in-process front end needs:

- session membership and :meth:`AsyncFleetScheduler.submit`, which queues
  a window and flushes its cohort inline once the batch fills;
- :class:`AdmissionController`, which watches the observed p95 flush
  latency and, when it blows the configured budget, sheds a fraction of
  incoming windows (skip-window with telemetry — sessions are degraded,
  never blocked or crashed) until the tail latency recovers below the
  hysteresis threshold;
- the lock-step :meth:`AsyncFleetScheduler.tick`: every session prepared,
  every cohort flushed, one telemetry record per tick.
  :class:`~repro.serving.server.FleetServer` is its lock-step alias.

Flush *execution* is pluggable (:mod:`repro.serving.executors`): inline on
the caller's thread (:class:`~repro.serving.executors.SerialExecutor`, the
default), on a thread pool, or sharded across one worker process per
cohort.  Everything is clock-injected (:class:`repro.utils.timing.Clock`):
production uses the system monotonic clock, tests drive a deterministic
fake through thousands of virtual seconds in milliseconds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Any, Deque, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.core.config import CognitiveArmConfig
from repro.models.base import EEGClassifier
from repro.serving.batcher import BatchResult, ExecutionResult
# SchedulerConfig, ModelRouter, QueuedWindow and FlushEvent live with the
# engine; they are re-exported here, where callers have always found them.
from repro.serving.engine import (  # noqa: F401
    _DEADLINE_EPS,
    CohortFlushEngine,
    FlushEvent,
    ModelRouter,
    QueuedWindow,
    SchedulerConfig,
    _InFlightFlush,
)
from repro.serving.executors import FlushExecutor
from repro.serving.session import ServingSession, next_session_id
from repro.serving.telemetry import FleetReport, FleetTickRecord, session_stats
from repro.signals.synthetic import ParticipantProfile
from repro.utils.timing import Clock

#: Outcomes of :meth:`AsyncFleetScheduler.submit`.
SUBMIT_QUEUED = "queued"
SUBMIT_FLUSHED = "flushed"
SUBMIT_STALLED = "stalled"
SUBMIT_SHED = "shed"


class AdmissionController:
    """Sheds load when flush p95 — or upstream stream lag — blows its budget.

    The controller is a two-state machine with hysteresis.  In the admitting
    state every window passes.  When the sliding-window p95 of flush
    latencies exceeds ``budget_s``, *or* the most recently observed stream
    lag exceeds ``lag_budget_s``, it flips to shedding and refuses
    ``shed_ratio`` of submissions (deterministically, via an accumulator, so
    the shed load is spread evenly rather than bursty).  It flips back once
    every enabled signal recovers to ``recovery_fraction`` of its budget.
    Shedding degrades sessions — their window for that period is skipped and
    counted — but never blocks the submitter or raises.

    The lag signal exists for the streaming data plane: windows queueing in
    an append-only log *upstream* of the scheduler never show up in flush
    latency, so a slow consumer would let the log grow unbounded while the
    p95 looked healthy.  Off the stream plane no lag is ever observed and
    the controller behaves exactly as before.
    """

    def __init__(
        self,
        budget_s: Optional[float],
        window: int = 32,
        recovery_fraction: float = 0.5,
        shed_ratio: float = 0.5,
        lag_budget_s: Optional[float] = None,
    ) -> None:
        self.budget_s = budget_s
        self.lag_budget_s = lag_budget_s
        self.recovery_fraction = recovery_fraction
        self.shed_ratio = shed_ratio
        self._latencies: Deque[float] = deque(maxlen=window)
        self.shedding = False
        self.shed_count = 0
        self.activations = 0
        self._accumulator = 0.0
        #: Most recently observed upstream stream lag (oldest-unacked age).
        self.last_stream_lag_s = 0.0

    @property
    def enabled(self) -> bool:
        return self.budget_s is not None or self.lag_budget_s is not None

    def observed_p95(self) -> float:
        """Sliding-window p95 of recorded flush latencies (0.0 when empty)."""
        if not self._latencies:
            return 0.0
        return float(np.percentile(list(self._latencies), 95))

    def observe(
        self, latency_s: float, stream_lag_s: Optional[float] = None
    ) -> None:
        """Record one flush latency (and optionally the current stream lag)."""
        self._latencies.append(float(latency_s))
        if stream_lag_s is not None:
            self.last_stream_lag_s = float(stream_lag_s)
        self._update_state()

    def observe_lag(self, stream_lag_s: float) -> None:
        """Record the current upstream stream lag without a latency sample.

        Producers on the stream plane call this per submission round — lag
        moves with every append and every consumer ack, not only at flush
        boundaries, and shedding must be able to trigger between flushes.
        """
        self.last_stream_lag_s = float(stream_lag_s)
        self._update_state()

    def _update_state(self) -> None:
        if not self.enabled:
            return
        p95 = self.observed_p95()
        latency_over = self.budget_s is not None and p95 > self.budget_s
        lag_over = (
            self.lag_budget_s is not None
            and self.last_stream_lag_s > self.lag_budget_s
        )
        if not self.shedding and (latency_over or lag_over):
            self.shedding = True
            self.activations += 1
            self._accumulator = 0.0
            return
        latency_recovered = (
            self.budget_s is None
            or p95 <= self.recovery_fraction * self.budget_s
        )
        lag_recovered = (
            self.lag_budget_s is None
            or self.last_stream_lag_s
            <= self.recovery_fraction * self.lag_budget_s
        )
        if self.shedding and latency_recovered and lag_recovered:
            self.shedding = False

    def admit(self) -> bool:
        """Decide one submission; ``False`` means shed (and is counted)."""
        if not self.shedding:
            return True
        self._accumulator += self.shed_ratio
        if self._accumulator >= 1.0 - _DEADLINE_EPS:
            self._accumulator -= 1.0
            self.shed_count += 1
            return False
        return True



class AsyncFleetScheduler(CohortFlushEngine):
    """Deadline-aware micro-batch scheduler over heterogeneous cohorts.

    Sessions attach with a cohort (defaulting to the router's default) and
    submit through :meth:`submit`, which runs the session's
    ``prepare_window`` phase and queues the window with its arrival time.  A
    cohort flushes when its batch fills (inline, inside ``submit``) or when
    the driver pumps it at/after the oldest window's deadline
    (:meth:`pump`, scheduled via :meth:`next_flush_due_s`).  Flushes route
    each probability row back through the owning session's ``apply_result``
    and record one :class:`FleetTickRecord` each.

    In lock-step mode (:meth:`tick`) every session is prepared and every
    cohort flushed at once, one telemetry record per tick.

    Sessions are duck-typed: anything with ``session_id``,
    ``prepare_window()`` and ``apply_result(probabilities, latency_s)``
    serves (``start``/``stop``/``config``/``backlog_depth`` are honoured
    when present), so deterministic test harnesses can stand in for full
    :class:`~repro.serving.session.ServingSession` objects.
    """

    def __init__(
        self,
        router: Union[ModelRouter, EEGClassifier, Mapping[str, EEGClassifier]],
        config: Optional[CognitiveArmConfig] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        clock: Optional[Clock] = None,
        executor: Optional[FlushExecutor] = None,
    ) -> None:
        super().__init__(
            router, scheduler_config=scheduler_config, clock=clock, executor=executor
        )
        self.config = config or CognitiveArmConfig()
        sched = self.scheduler_config
        self.admission = AdmissionController(
            sched.latency_budget_s,
            window=sched.admission_window,
            recovery_fraction=sched.recovery_fraction,
            shed_ratio=sched.shed_ratio,
            lag_budget_s=sched.stream_lag_budget_s,
        )
        self._sessions: Dict[str, Any] = {}
        self._session_cohort: Dict[str, str] = {}
        self._departed: List[Any] = []
        self.shed_by_session: Dict[str, int] = {}
        self.superseded_by_session: Dict[str, int] = {}
        self._stalled_since_flush = 0
        self._shed_since_flush = 0

    # ------------------------------------------------------------------ #
    # fleet membership
    # ------------------------------------------------------------------ #
    @property
    def n_sessions(self) -> int:
        return len(self._sessions)

    @property
    def sessions(self) -> List[Any]:
        return list(self._sessions.values())

    def get_session(self, session_id: str) -> Any:
        return self._sessions[session_id]

    def cohort_of(self, session_id: str) -> str:
        return self._session_cohort[session_id]

    def add_session(
        self,
        session: Optional[Any] = None,
        *,
        cohort: Optional[str] = None,
        session_id: Optional[str] = None,
        profile: Optional[ParticipantProfile] = None,
        **session_kwargs,
    ) -> Any:
        """Attach a session to a cohort (building a ServingSession if needed).

        The session is started immediately, so it is eligible for the very
        next submission or tick.
        """
        cohort = self.router.resolve(cohort)
        if session is None:
            if session_id is None:
                taken = set(self._sessions)
                taken.update(s.session_id for s in self._departed)
                session_id = next_session_id(taken)
            session = ServingSession(
                session_id,
                profile=profile,
                config=self.config,
                clock=self.clock,
                **session_kwargs,
            )
        if session.session_id in self._sessions:
            raise ValueError(f"session {session.session_id!r} already attached")
        self._check_session(session)
        start = getattr(session, "start", None)
        if start is not None:
            start()
        self._sessions[session.session_id] = session
        self._session_cohort[session.session_id] = cohort
        self.shed_by_session.setdefault(session.session_id, 0)
        self.superseded_by_session.setdefault(session.session_id, 0)
        return session

    def _check_session(self, session: Any) -> None:
        """Refuse a session whose windows cannot stack with the fleet's."""
        session_config = getattr(session, "config", None)
        if session_config is not None and (
            session_config.n_channels != self.config.n_channels
            or session_config.window_size != self.config.window_size
        ):
            raise ValueError(
                "session window/channel shape does not match the fleet; "
                "windows from one cohort must stack into one batch"
            )

    def remove_session(self, session_id: str) -> Any:
        """Detach a session; queued windows for it are flushed normally later."""
        session = self._sessions.pop(session_id)
        self._session_cohort.pop(session_id)
        stop = getattr(session, "stop", None)
        if stop is not None:
            stop()
        self._departed.append(session)
        return session

    # ------------------------------------------------------------------ #
    # asynchronous submission path
    # ------------------------------------------------------------------ #
    def submit(self, session_id: str) -> str:
        """Run one session's prepare phase and queue (or shed) its window.

        Returns one of ``"queued"``, ``"flushed"`` (the submission filled the
        cohort batch and triggered an inline flush, retrievable as
        :attr:`last_flush_event`), ``"stalled"`` (the session produced no
        window) or ``"shed"`` (refused by admission control; the window is
        skipped with telemetry, the session keeps running).

        Every window shares the configured ``deadline_s``; a uniform
        deadline is what keeps each cohort queue due-ordered (it is FIFO by
        arrival), which :meth:`next_flush_due_s` relies on.

        If the session already has a window queued (it outran the flush
        cadence), the fresh window supersedes the stale one — real-time
        semantics: stale windows are dropped, not replayed — and the drop is
        counted in :attr:`superseded_by_session`.

        A full batch normally triggers an inline flush; while the cohort
        already has a flush in flight on an asynchronous executor the
        submission queues instead (double-flushes are refused) and the
        backlog flushes as soon as the in-flight one is harvested.
        """
        session = self._sessions[session_id]
        window = session.prepare_window()
        if window is None:
            self._stalled_since_flush += 1
            return SUBMIT_STALLED
        if not self.admission.admit():
            self.shed_by_session[session_id] += 1
            self._shed_since_flush += 1
            return SUBMIT_SHED
        cohort = self._session_cohort[session_id]
        self._enqueue(cohort, session_id, window, self.clock.now())
        event = self._flush_if_full(cohort)
        if event is None or event.reason == "worker-died":
            return SUBMIT_QUEUED
        return SUBMIT_FLUSHED

    def drain(self) -> List[FlushEvent]:
        """Flush everything still queued, regardless of deadlines.

        Also waits out and returns any flushes still in flight on the
        executor, so after ``drain()`` no window and no future is pending.
        """
        events = super().drain()
        if self._shed_since_flush or self._stalled_since_flush:
            # Sheds/stalls after the last flush would otherwise never reach
            # telemetry; emit an empty record to carry the counters (empty
            # records are excluded from latency percentiles).
            self._record("", "drain")
        return events

    # ------------------------------------------------------------------ #
    # engine hooks
    # ------------------------------------------------------------------ #
    def _deliver(
        self, flight: _InFlightFlush, result: BatchResult, execution: ExecutionResult
    ) -> Dict[str, Any]:
        per_window = result.per_window_latency_s()
        ticks: Dict[str, Any] = {}
        for session_id, probabilities in result.results.items():
            session = self._sessions.get(session_id)
            if session is None:  # departed while queued/in flight: drop its row
                continue
            ticks[session_id] = session.apply_result(probabilities, per_window)
        self.admission.observe(result.latency_s)
        return ticks

    def _record_fields(self, context: Any) -> Dict[str, Any]:
        fields = {
            "n_sessions": len(self._sessions),
            "stalled_sessions": self._stalled_since_flush,
            "shed_sessions": self._shed_since_flush,
            "backlog_depth": sum(
                getattr(s, "backlog_depth", 0) for s in self._sessions.values()
            ),
        }
        self._stalled_since_flush = 0
        self._shed_since_flush = 0
        return fields

    def _on_superseded(self, cohort: str, stale: QueuedWindow) -> None:
        self.superseded_by_session[stale.session_id] += 1

    def _serves(self, session_id: str) -> bool:
        return session_id in self._sessions

    # ------------------------------------------------------------------ #
    # lock-step compatibility mode
    # ------------------------------------------------------------------ #
    def tick(self) -> Dict[str, Any]:
        """Run one lock-step fleet tick; returns each served session's tick.

        Every attached session is prepared in insertion order and every
        cohort is flushed immediately (chunked at ``max_batch_size``) — no
        queueing, no deadlines, and admission control still applies.  The
        whole tick is one telemetry record with reason ``"tick"``.

        The lock-step and asynchronous entry points must not interleave on
        one instance: windows queued via :meth:`submit` would be applied out
        of order behind the fresher windows ``tick`` prepares, so ``tick``
        refuses to run until the queues are drained.
        """
        if any(self._queues.values()) or self._inflight:
            raise RuntimeError(
                "lock-step tick() cannot run with windows queued via "
                "submit() or flushes in flight; call drain() (or pump()) first"
            )
        sessions = list(self._sessions.values())
        # Fold in stalls/sheds from submit() calls that never led to a flush
        # (their windows were stalled or shed, so nothing was ever queued).
        stalled = self._stalled_since_flush
        shed = self._shed_since_flush
        self._stalled_since_flush = 0
        self._shed_since_flush = 0
        prepare_started = self.clock.now()
        for session in sessions:
            window = session.prepare_window()
            if window is None:
                stalled += 1
                continue
            if not self.admission.admit():
                self.shed_by_session[session.session_id] += 1
                shed += 1
                continue
            self._batchers[self._session_cohort[session.session_id]].submit(
                session.session_id, window
            )
        prepare_latency_s = self.clock.now() - prepare_started
        ticks: Dict[str, Any] = {}
        batch_size = 0
        latency_s = 0.0
        specialized_flags: List[bool] = []
        for cohort in self.router.cohorts:
            result = self._batchers[cohort].flush()
            per_window = result.per_window_latency_s()
            for session_id, probabilities in result.results.items():
                ticks[session_id] = self._sessions[session_id].apply_result(
                    probabilities, per_window
                )
            batch_size += len(result)
            latency_s += result.latency_s
            if len(result):
                # Per-flush samples, matching the async path: cohorts are
                # independent service events, not one combined latency.
                self.admission.observe(result.latency_s)
                specialized_flags.append(result.specialized)
        self.telemetry.record(
            FleetTickRecord(
                tick_index=self._record_index,
                n_sessions=len(sessions),
                batch_size=batch_size,
                stalled_sessions=stalled,
                batch_latency_s=latency_s,
                backlog_depth=sum(
                    getattr(s, "backlog_depth", 0) for s in sessions
                ),
                shed_sessions=shed,
                flush_reason="tick",
                prepare_latency_s=prepare_latency_s,
                # The record's contract is "every classifier call hit an
                # arena": all non-empty cohort flushes must agree.
                specialized=bool(specialized_flags) and all(specialized_flags),
            )
        )
        self._record_index += 1
        return ticks


    # ------------------------------------------------------------------ #
    # reporting / lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Drain pending work, stop the executor, then every session."""
        super().shutdown()
        for session_id in list(self._sessions):
            self.remove_session(session_id)

    def report(self) -> FleetReport:
        """Fleet summary over attached and departed sessions."""
        everyone = list(self._sessions.values()) + self._departed
        return replace(super().report(), sessions=session_stats(everyone))
