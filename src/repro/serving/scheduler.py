"""Deadline-aware asynchronous fleet scheduling with admission control.

:class:`AsyncFleetScheduler` is the in-process front end of the cohort
flush engine (:mod:`repro.serving.engine`): sessions attach to it and
submit windows whenever their acquisition hardware produces them, and
results go straight back into each session's ``apply_result``.  The
engine owns everything between — per-cohort queues and batchers, the
deadline/full-batch flush policy, in-flight tracking, worker supervision
and plan hot-swap — shared with the stream-plane front end
(:class:`~repro.streams.consumer.StreamConsumerScheduler`).

The session side is written once, in :class:`SessionFleet`, which the
stream plane's :class:`~repro.streams.producer.StreamFleetProducer` shares:
membership, the stall/shed/reject counts every telemetry record carries,
and the one prepare → stall → reject → admit step every submission takes.
A window holding a NaN or inf sample is rejected there: it is never
queued or classified, and its session gets an idle hold label in its
place, so the arm does not move.  :class:`AdmissionController` watches
the observed p95 flush latency and, when it blows the configured budget,
sheds a fraction of incoming windows (skip-window with telemetry —
sessions are degraded, never blocked or crashed) until the tail latency
recovers below the hysteresis threshold.

On top of that, :meth:`AsyncFleetScheduler.submit` queues a window and
flushes its cohort inline once the batch fills, and the lock-step
:meth:`AsyncFleetScheduler.tick` prepares every session and flushes every
cohort, one telemetry record per tick;
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
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple, Union

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
from repro.serving.telemetry import FleetReport, SessionStats, session_stats
from repro.signals.synthetic import ACTIONS, ParticipantProfile
from repro.utils.timing import SYSTEM_CLOCK, Clock

#: Outcomes of :meth:`AsyncFleetScheduler.submit`.
SUBMIT_QUEUED = "queued"
SUBMIT_FLUSHED = "flushed"
SUBMIT_STALLED = "stalled"
SUBMIT_SHED = "shed"
SUBMIT_REJECTED = "rejected"


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


class SessionFleet:
    """The session side of a fleet front end, written once.

    Owns session membership (with the departed sessions kept for
    end-of-run roll-ups), the :class:`AdmissionController`, per-session
    shed/superseded/rejected counts and the counts since the last telemetry
    record.  Every submission takes :meth:`_take_window`; admission
    hysteresis depends on its order.  A front end resolves cohorts
    (:meth:`_resolve_cohort`), supplies ``telemetry``, and queues
    (scheduler) or appends (stream producer) each admitted window.
    """

    def __init__(
        self,
        config: Optional[CognitiveArmConfig],
        scheduler_config: Optional[SchedulerConfig],
        clock: Optional[Clock],
    ) -> None:
        self.config = config or CognitiveArmConfig()
        self.scheduler_config = scheduler_config or SchedulerConfig()
        self.clock = clock or SYSTEM_CLOCK
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
        #: Windows refused for holding a NaN or inf sample, per session.
        self.rejected_by_session: Dict[str, int] = {}
        self._stalled_since_record = 0
        self._shed_since_record = 0
        self._rejected_since_record = 0

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

    def _resolve_cohort(self, cohort: Optional[str]) -> str:
        """Normalise (and validate) the cohort a session attaches to."""
        raise NotImplementedError

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
        cohort = self._resolve_cohort(cohort)
        start = getattr(session, "start", None)
        if start is not None:
            start()
        self._sessions[session.session_id] = session
        self._session_cohort[session.session_id] = cohort
        self.shed_by_session.setdefault(session.session_id, 0)
        self.superseded_by_session.setdefault(session.session_id, 0)
        self.rejected_by_session.setdefault(session.session_id, 0)
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
        """Detach a session; results still on their way to it are dropped."""
        session = self._sessions.pop(session_id)
        self._session_cohort.pop(session_id)
        stop = getattr(session, "stop", None)
        if stop is not None:
            stop()
        self._departed.append(session)
        return session

    def _detach_all(self) -> None:
        for session_id in list(self._sessions):
            self.remove_session(session_id)

    # ------------------------------------------------------------------ #
    # the admission step
    # ------------------------------------------------------------------ #
    def _before_admit(self) -> None:
        """Feed the admission controller just before it decides a window."""

    def _take_window(self, session_id: str) -> Tuple[str, Optional[np.ndarray]]:
        """Prepare one session's window and decide it.

        Returns ``(outcome, window)``: the window only when admitted
        (outcome ``"queued"``); otherwise ``None`` with ``"stalled"`` (no
        window), ``"rejected"`` (a NaN or inf sample) or ``"shed"``
        (refused by admission control), each counted for telemetry.

        A rejected window is answered at once with a row of NaN
        probabilities instead of a classification.  The session's fail-safe
        turns that row into an idle, zero-confidence label, so the arm
        holds and the session still gets one label per window it prepared.
        """
        session = self._sessions[session_id]
        window = session.prepare_window()
        if window is None:
            self._stalled_since_record += 1
            return SUBMIT_STALLED, None
        if not np.isfinite(window).all():
            self.rejected_by_session[session_id] += 1
            self._rejected_since_record += 1
            session.apply_result(np.full(len(ACTIONS), np.nan))
            return SUBMIT_REJECTED, None
        self._before_admit()
        if not self.admission.admit():
            self.shed_by_session[session_id] += 1
            self._shed_since_record += 1
            return SUBMIT_SHED, None
        return SUBMIT_QUEUED, window

    # ------------------------------------------------------------------ #
    # telemetry / reporting
    # ------------------------------------------------------------------ #
    def _record_fields(self, context: Any = None) -> Dict[str, Any]:
        """Session-side fields of the next record; resets the counters."""
        fields = {
            "n_sessions": len(self._sessions),
            "stalled_sessions": self._stalled_since_record,
            "shed_sessions": self._shed_since_record,
            "rejected_sessions": self._rejected_since_record,
            "backlog_depth": sum(
                getattr(s, "backlog_depth", 0) for s in self._sessions.values()
            ),
        }
        self._stalled_since_record = 0
        self._shed_since_record = 0
        self._rejected_since_record = 0
        return fields

    def record_leftovers(self) -> None:
        """Carry counts no record has picked up yet in one empty record.

        Stalls, sheds and rejections after the last flush would otherwise
        never reach telemetry.  The record classifies nothing, so latency
        percentiles exclude it.
        """
        pending = (
            self._stalled_since_record,
            self._shed_since_record,
            self._rejected_since_record,
        )
        if any(pending):
            self.telemetry.append(
                batch_size=0,
                batch_latency_s=0.0,
                flush_reason="drain",
                **self._record_fields(),
            )

    def _session_stats(self) -> List[SessionStats]:
        """Per-session roll-up over attached and departed sessions."""
        return session_stats(list(self._sessions.values()) + self._departed)


class AsyncFleetScheduler(SessionFleet, CohortFlushEngine):
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
        CohortFlushEngine.__init__(
            self, router, scheduler_config=scheduler_config, clock=clock, executor=executor
        )
        SessionFleet.__init__(self, config, self.scheduler_config, self.clock)

    def _resolve_cohort(self, cohort: Optional[str]) -> str:
        return self.router.resolve(cohort)

    # ------------------------------------------------------------------ #
    # asynchronous submission path
    # ------------------------------------------------------------------ #
    def submit(self, session_id: str) -> str:
        """Run one session's prepare phase and queue (or shed) its window.

        Returns one of ``"queued"``, ``"flushed"`` (the submission filled the
        cohort batch and triggered an inline flush, retrievable as
        :attr:`last_flush_event`), ``"stalled"`` (the session produced no
        window), ``"rejected"`` (the window held a NaN or inf sample; it is
        not classified and the session gets an idle hold label) or ``"shed"`` (refused by admission control;
        the window is skipped with telemetry, the session keeps running).

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
        outcome, window = self._take_window(session_id)
        if window is None:
            return outcome
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
        self.record_leftovers()
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
        queueing, no deadlines; admission control and the non-finite
        window check still apply (a rejected session's hold label is applied
        while preparing and is not in the returned dict).  The whole tick is
        one telemetry record with reason ``"tick"``, which also carries
        stalls and sheds from ``submit()`` calls that never led to a flush.

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
        prepare_started = self.clock.now()
        for session_id in list(self._sessions):
            _, window = self._take_window(session_id)
            if window is not None:
                self._batchers[self._session_cohort[session_id]].submit(
                    session_id, window
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
        self._record(
            "",
            "tick",
            batch_size=batch_size,
            latency_s=latency_s,
            prepare_latency_s=prepare_latency_s,
            # The record's contract is "every classifier call hit an
            # arena": all non-empty cohort flushes must agree.
            specialized=bool(specialized_flags) and all(specialized_flags),
        )
        return ticks

    # ------------------------------------------------------------------ #
    # reporting / lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Drain pending work, stop the executor, then every session."""
        super().shutdown()
        self._detach_all()

    def report(self) -> FleetReport:
        """Fleet summary over attached and departed sessions."""
        return replace(super().report(), sessions=self._session_stats())
