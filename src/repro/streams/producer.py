"""Producer side of the streaming data plane.

A :class:`StreamFleetProducer` is a
:class:`~repro.serving.scheduler.SessionFleet`: it inherits session
membership, admission control, the prepare → stall → reject → admit step
and the stall/shed/reject accounting from the same base class as
:class:`~repro.serving.scheduler.AsyncFleetScheduler`.  What it adds is the
stream: instead of queueing admitted windows locally it appends them as
:class:`~repro.streams.messages.WindowSubmission` entries to per-cohort
:class:`~repro.streams.stream.WindowStream` logs and lets one or more
:class:`~repro.streams.consumer.StreamConsumerScheduler` processes drain
them.  Results come back on the topology's result stream as
:class:`~repro.streams.messages.FlushResult` records; :meth:`harvest_results`
routes each probability row to its session's ``apply_result``, folds the
flush into fleet telemetry and feeds the admission controller.

Before each admission decision the producer feeds the controller the
current upstream stream lag
(:meth:`~repro.serving.scheduler.AdmissionController.observe_lag`), so a
slow consumer sheds load before the log grows unbounded — lag never shows
up in flush-latency percentiles.

Conservation contract: every admitted window is eventually accounted for in
exactly one ``FlushResult`` — as a served row, or by ``(session_id,
sequence)`` in its ``superseded`` tuple.  After the consumers drain and the
producer harvests, ``labels_applied + superseded_count`` equals the number
of appended submissions.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import CognitiveArmConfig
from repro.serving.scheduler import (
    SUBMIT_FLUSHED,
    SUBMIT_QUEUED,
    AdmissionController,
    SchedulerConfig,
    SessionFleet,
)
from repro.serving.telemetry import FleetReport, FleetTelemetry
from repro.streams.consumer import SCHEDULER_GROUP
from repro.streams.messages import FlushResult, WindowSubmission
from repro.streams.topology import StreamTopology
from repro.utils.timing import SYSTEM_CLOCK, Clock

#: Default consumer-group name the producer uses on the result stream.
PRODUCER_GROUP = "producer"


class StreamFleetProducer(SessionFleet):
    """Session fleet that feeds cohort streams and harvests result flushes.

    Membership, admission and stall/shed/reject accounting are the
    inherited :class:`~repro.serving.scheduler.SessionFleet`; this class
    owns the stream append, per-session sequences, result harvesting and
    the conservation counters (``submitted``, ``labels_applied``,
    ``superseded_count``).  A cohort's stream is created when the first
    session attaches to it; there is no router to validate against — the
    consumer that owns the cohort stream does the routing.

    Parameters
    ----------
    topology:
        The :class:`~repro.streams.topology.StreamTopology` naming the
        cohort, session and result streams.  Producer and consumers must
        share one topology (in-process) or connect to the same stream
        server (:mod:`repro.streams.remote`).
    config:
        Per-session pipeline configuration (as for the direct scheduler).
    scheduler_config:
        Source of the admission-control knobs (``latency_budget_s``,
        ``stream_lag_budget_s``, hysteresis) and the deadline consumers
        apply; sharing one config object with the consumers keeps the two
        halves of the plane agreeing on policy.
    group / consumer:
        Consumer-group and member name on the *result* stream.
    consumer_group:
        The scheduler-side group name on cohort streams — lag is measured
        against it (how far behind the schedulers are), so it must match
        the group the consumers read with.
    trace_sessions:
        Mirror every submission onto the per-session stream as well
        (replayable per-session history at the cost of a second append).
    """

    def __init__(
        self,
        topology: StreamTopology,
        config: Optional[CognitiveArmConfig] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        clock: Optional[Clock] = None,
        *,
        group: str = PRODUCER_GROUP,
        consumer: str = "producer-0",
        consumer_group: str = SCHEDULER_GROUP,
        trace_sessions: bool = False,
    ) -> None:
        super().__init__(config, scheduler_config, clock or topology.clock)
        self.topology = topology
        self.group = str(group)
        self.consumer = str(consumer)
        self.consumer_group = str(consumer_group)
        self.trace_sessions = bool(trace_sessions)
        self.telemetry = FleetTelemetry()
        self.result_stream = topology.result_stream
        self.result_stream.create_group(self.group, exists_ok=True)
        self._sequences: Dict[str, int] = {}
        self.submitted = 0
        self.labels_applied = 0
        self.superseded_count = 0

    @property
    def cohorts(self) -> Tuple[str, ...]:
        """Cohorts with at least one attached session, in attach order."""
        seen: Dict[str, None] = {}
        for cohort in self._session_cohort.values():
            seen.setdefault(cohort)
        return tuple(seen)

    def _resolve_cohort(self, cohort: Optional[str]) -> str:
        cohort = "default" if cohort is None else cohort
        self.topology.cohort_stream(cohort)  # create before first submit
        return cohort

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def stream_lag_s(self) -> float:
        """Worst oldest-unacked age across this fleet's cohort streams.

        Measured against the scheduler-side consumer group: how long the
        oldest window any consumer has yet to serve has been waiting.
        """
        lag = 0.0
        for cohort in self.cohorts:
            stream = self.topology.cohort_stream(cohort)
            if stream.has_group(self.consumer_group):
                lag = max(lag, stream.lag_s(self.consumer_group))
        return lag

    def _before_admit(self) -> None:
        self.admission.observe_lag(self.stream_lag_s())

    def submit(self, session_id: str) -> str:
        """Prepare one session's window and append it to its cohort stream.

        Returns ``"queued"``, ``"stalled"``, ``"rejected"`` or ``"shed"`` —
        the streaming plane never flushes inline, so ``"flushed"`` cannot
        occur.  Each admission decision first feeds the current stream lag
        to the admission controller, so shedding can begin between flushes
        when consumers fall behind.
        """
        outcome, window = self._take_window(session_id)
        if window is None:
            return outcome
        cohort = self._session_cohort[session_id]
        sequence = self._sequences.get(session_id, 0)
        self._sequences[session_id] = sequence + 1
        submission = WindowSubmission(
            session_id=session_id,
            cohort=cohort,
            window=window,
            submitted_at_s=self.clock.now(),
            sequence=sequence,
        )
        self.topology.cohort_stream(cohort).append(submission)
        if self.trace_sessions:
            self.topology.session_stream(cohort, session_id).append(submission)
        self.submitted += 1
        return SUBMIT_QUEUED

    # ------------------------------------------------------------------ #
    # result harvesting
    # ------------------------------------------------------------------ #
    def harvest_results(self, count: Optional[int] = None) -> List[FlushResult]:
        """Apply newly published flush results to their sessions.

        Each :class:`FlushResult` routes probability rows back through the
        owning sessions (departed sessions' rows are dropped, matching the
        direct scheduler), lands one :class:`FleetTickRecord`, feeds the
        admission controller (service time plus the lag the consumer saw at
        flush start) and is acked.  Results arrive in publish order per
        consumer; across consumers order is arbitrary but harmless — rows
        are keyed by session, and per-session ordering is preserved because
        a session's windows all live on one cohort stream.
        """
        applied: List[FlushResult] = []
        for entry in self.result_stream.read_group(self.group, self.consumer, count=count):
            result = entry.payload
            if not isinstance(result, FlushResult):
                raise TypeError(
                    f"result stream entry {entry.entry_id} carries "
                    f"{type(result).__name__}, expected FlushResult"
                )
            self._apply(result)
            self.result_stream.ack(self.group, entry.entry_id)
            applied.append(result)
        return applied

    def _apply(self, result: FlushResult) -> None:
        n_rows = len(result.session_ids)
        per_window = result.service_s / n_rows if n_rows else 0.0
        for index, session_id in enumerate(result.session_ids):
            session = self._sessions.get(session_id)
            if session is None:  # departed while the flush was in flight
                continue
            session.apply_result(result.probabilities[index], per_window)
            self.labels_applied += 1
        for session_id, _sequence in result.superseded:
            self.superseded_count += 1
            if session_id in self.superseded_by_session:
                self.superseded_by_session[session_id] += 1
        if n_rows == 0 and not result.superseded:
            return
        self.telemetry.append(
            batch_size=n_rows,
            batch_latency_s=result.service_s,
            deadline_violations=result.deadline_violations,
            max_queue_wait_s=result.max_queue_wait_s,
            flush_reason=result.reason,
            cohort=result.cohort,
            # Attribute to the scheduler process *and* its executor lane:
            # two consumers both flushing on "serial" must not merge in
            # the per-worker breakdown.
            worker=(
                f"{result.consumer}/{result.worker}"
                if result.consumer and result.worker
                else result.consumer or result.worker
            ),
            completed_at_s=self.clock.now(),
            stream_lag_s=result.stream_lag_s,
            stream_depth=result.stream_depth,
            **self._record_fields(),
        )
        if n_rows > 0:
            self.admission.observe(result.service_s, stream_lag_s=result.stream_lag_s)

    # ------------------------------------------------------------------ #
    # reporting / lifecycle
    # ------------------------------------------------------------------ #
    def pending_results(self) -> int:
        """Flush results published but not yet harvested."""
        return self.result_stream.depth(self.group)

    def report(self) -> FleetReport:
        """Fleet summary over attached and departed sessions."""
        return FleetReport(
            ticks=len(self.telemetry.records),
            fleet=self.telemetry.summary(),
            sessions=self._session_stats(),
            cohorts=self.telemetry.cohort_breakdown(),
            workers=self.telemetry.worker_breakdown(),
            specialization={},
        )

    def shutdown(self) -> None:
        """Harvest outstanding results, record leftovers, stop every session."""
        self.harvest_results()
        self.record_leftovers()
        self._detach_all()


class StreamDuplex:
    """Single-process streaming plane: one producer + one consumer, one API.

    Wires a :class:`StreamFleetProducer` and a
    :class:`~repro.streams.consumer.StreamConsumerScheduler` over a shared
    topology and exposes the ``AsyncFleetScheduler`` driving surface
    (``submit`` / ``next_flush_due_s`` / ``pump`` / ``drain`` /
    ``report``), so existing drivers — including the test suite's
    ``SimulatedLoad`` — run unchanged on the stream plane.  Every window
    still round-trips through the log, so the run is recordable
    (:class:`~repro.streams.recording.StreamRecorder`) and admission sees
    real stream lag; what single-process mode buys is zero transport cost
    and exact shared-clock deadlines (``deadline_origin="timestamp"``).
    """

    def __init__(
        self,
        router: Any,
        config: Optional[CognitiveArmConfig] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        clock: Optional[Clock] = None,
        *,
        topology: Optional[StreamTopology] = None,
        executor: Optional[Any] = None,
        consumer_name: str = "consumer-0",
        trace_sessions: bool = False,
    ) -> None:
        from repro.serving.scheduler import ModelRouter
        from repro.streams.consumer import StreamConsumerScheduler

        self.router = router if isinstance(router, ModelRouter) else ModelRouter(router)
        clock = clock or SYSTEM_CLOCK
        self.topology = topology or StreamTopology(clock=clock)
        self.producer = StreamFleetProducer(
            self.topology,
            config=config,
            scheduler_config=scheduler_config,
            clock=clock,
            trace_sessions=trace_sessions,
        )
        self.consumer = StreamConsumerScheduler(
            self.router,
            {
                cohort: self.topology.cohort_stream(cohort)
                for cohort in self.router.cohorts
            },
            self.topology.result_stream,
            consumer=consumer_name,
            scheduler_config=self.producer.scheduler_config,
            clock=clock,
            executor=executor,
        )
        self.clock = clock

    # -- fleet membership (delegated) ---------------------------------- #
    @property
    def sessions(self) -> List[Any]:
        return self.producer.sessions

    @property
    def n_sessions(self) -> int:
        return self.producer.n_sessions

    def get_session(self, session_id: str) -> Any:
        return self.producer.get_session(session_id)

    def add_session(self, session: Optional[Any] = None, **kwargs) -> Any:
        cohort = self.router.resolve(kwargs.get("cohort"))
        kwargs["cohort"] = cohort
        return self.producer.add_session(session, **kwargs)

    def remove_session(self, session_id: str) -> Any:
        return self.producer.remove_session(session_id)

    @property
    def telemetry(self) -> Any:
        """Producer-side telemetry (one record per harvested flush result)."""
        return self.producer.telemetry

    @property
    def admission(self) -> AdmissionController:
        return self.producer.admission

    @property
    def last_flush_event(self) -> Any:
        return self.consumer.last_flush_event

    # -- driving surface ------------------------------------------------ #
    def submit(self, session_id: str) -> str:
        """Append one session's window, then let the consumer poll it.

        Returns the scheduler-compatible outcome: ``"flushed"`` when the
        poll triggered an inline full-batch flush, otherwise the producer's
        verdict (``"queued"``, ``"stalled"``, ``"rejected"`` or ``"shed"``).
        """
        outcome = self.producer.submit(session_id)
        if outcome != SUBMIT_QUEUED:
            return outcome
        events = self.consumer.poll()
        self.producer.harvest_results()
        return SUBMIT_FLUSHED if events else SUBMIT_QUEUED

    def next_flush_due_s(self) -> Optional[float]:
        return self.consumer.next_flush_due_s()

    def pump(self, horizon_s: float = 0.0, wait: bool = True) -> List[Any]:
        self.consumer.poll()
        events = self.consumer.pump(horizon_s=horizon_s, wait=wait)
        self.producer.harvest_results()
        return events

    def drain(self) -> List[Any]:
        self.consumer.poll()
        events = self.consumer.drain()
        self.producer.harvest_results()
        self.producer.record_leftovers()
        return events

    def report(self) -> FleetReport:
        return self.producer.report()

    def shutdown(self) -> None:
        self.consumer.shutdown()
        self.producer.shutdown()
