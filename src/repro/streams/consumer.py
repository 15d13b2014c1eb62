"""Stream-consumer scheduling: drain cohort logs, flush, publish results.

A :class:`StreamConsumerScheduler` is the stream-plane front end of the
cohort flush engine (:mod:`repro.serving.engine`), the scheduler half of
the streaming data plane.  Where
:class:`~repro.serving.scheduler.AsyncFleetScheduler` owns sessions and is
called *by* them, the stream consumer owns only a disjoint set of cohort
streams: producers append :class:`~repro.streams.messages.WindowSubmission`
entries, the consumer reads them through a consumer group into the
engine's per-cohort queues, and each finished flush is appended to the
result stream as a :class:`~repro.streams.messages.FlushResult` and only
*then* acked — so a consumer that dies mid-batch never loses work (the
entries stay pending and another scheduler process claims them).

Horizontal scale falls out of the group semantics: run N consumer
processes, give each a disjoint subset of the cohort streams, and the
fleet's flush work fans out with no coordination beyond the log itself.

Flush policy, supervision and hot-swap are the engine's, shared with the
in-process scheduler: a cohort flushes when its batch fills (inline,
inside :meth:`poll`) or when the oldest waiting window's deadline arrives
(:meth:`pump`, scheduled via :meth:`next_flush_due_s`).  Deadlines are
measured from the stream-entry timestamp by default (exact when producer
and consumer share a clock — the in-process and replay configurations);
across processes, where the producer's clock cannot cross the socket,
``deadline_origin="read"`` measures from local read time instead.

The whole consumer is deterministic given the entry sequence, their
timestamps and the clock — that is the property the record/replay harness
(:mod:`repro.streams.recording`) turns into regression fixtures.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.models.base import EEGClassifier
from repro.serving.batcher import BatchResult, ExecutionResult
from repro.serving.engine import (
    CohortFlushEngine,
    FlushEvent,
    ModelRouter,
    QueuedWindow,
    SchedulerConfig,
    _InFlightFlush,
)
from repro.serving.executors import FlushExecutor
from repro.streams.messages import FlushResult, WindowSubmission
from repro.streams.stream import StreamEntry
from repro.utils.timing import Clock

#: Default consumer-group name scheduler processes share on cohort streams.
SCHEDULER_GROUP = "schedulers"


def _reported(entries: List[StreamEntry]) -> tuple:
    """``(session_id, sequence)`` of superseded entries, as FlushResult carries them."""
    return tuple((e.payload.session_id, e.payload.sequence) for e in entries)


class StreamConsumerScheduler(CohortFlushEngine):
    """Drains cohort window streams through a consumer group and flushes.

    Parameters
    ----------
    router:
        Classifier routing, exactly as for ``AsyncFleetScheduler`` (a
        :class:`~repro.serving.scheduler.ModelRouter`, a mapping, or a bare
        classifier).  Every drained cohort must be routable.
    streams:
        The cohort streams this consumer owns, keyed by cohort name.
        Disjointness across scheduler processes is by construction: give
        each process different cohorts.  Values may be local
        :class:`~repro.streams.stream.WindowStream` objects or remote
        proxies (:mod:`repro.streams.remote`) — the consumer only uses the
        group/ack surface.
    result_stream:
        Where :class:`FlushResult` records are appended (local or remote).
    group / consumer:
        Consumer-group name (shared by all scheduler processes) and this
        consumer's member name (unique per process).
    scheduler_config:
        Flush policy (``deadline_s``, ``max_batch_size``); admission fields
        are producer-side and ignored here.
    deadline_origin:
        ``"timestamp"`` (default) measures deadlines from the stream-entry
        timestamp — exact when producer and consumer share a clock;
        ``"read"`` measures from local read time — the cross-process
        setting, where a foreign clock's timestamps are not comparable.
    claim_pending:
        Claim entries already pending for this consumer name at startup
        (crash recovery after a restart under the same identity).
    """

    def __init__(
        self,
        router: Union[ModelRouter, EEGClassifier, Mapping[str, EEGClassifier]],
        streams: Mapping[str, Any],
        result_stream: Any,
        *,
        group: str = SCHEDULER_GROUP,
        consumer: str = "consumer-0",
        scheduler_config: Optional[SchedulerConfig] = None,
        clock: Optional[Clock] = None,
        executor: Optional[FlushExecutor] = None,
        deadline_origin: str = "timestamp",
        claim_pending: bool = True,
    ) -> None:
        if deadline_origin not in ("timestamp", "read"):
            raise ValueError(
                f"deadline_origin must be 'timestamp' or 'read', "
                f"got {deadline_origin!r}"
            )
        if not streams:
            raise ValueError("StreamConsumerScheduler needs at least one stream")
        super().__init__(
            router,
            cohorts=streams,
            scheduler_config=scheduler_config,
            clock=clock,
            executor=executor,
        )
        self._streams: Dict[str, Any] = dict(streams)
        self.result_stream = result_stream
        self.group = str(group)
        self.consumer = str(consumer)
        self.deadline_origin = deadline_origin
        #: Superseded stream entries not yet reported on a FlushResult.
        self._superseded: Dict[str, List[StreamEntry]] = {
            cohort: [] for cohort in self._streams
        }
        self._seen_sessions: set = set()
        self.superseded_count = 0
        for cohort, stream in self._streams.items():
            stream.create_group(self.group, exists_ok=True)
            if claim_pending:
                for entry in stream.claim(self.group, self.consumer):
                    self._admit_entry(cohort, entry)

    # ------------------------------------------------------------------ #
    # intake
    # ------------------------------------------------------------------ #
    def stream_for(self, cohort: str) -> Any:
        """The cohort's window stream (replay appends through this)."""
        return self._streams[cohort]

    def backlog_depth(self) -> int:
        """Windows held locally (delivered, not yet handed to the executor)."""
        return sum(len(queue) for queue in self._queues.values())

    def _admit_entry(self, cohort: str, entry: StreamEntry) -> None:
        submission = entry.payload
        if not isinstance(submission, WindowSubmission):
            raise TypeError(
                f"cohort stream {cohort!r} entry {entry.entry_id} carries "
                f"{type(submission).__name__}, expected WindowSubmission"
            )
        origin = (
            entry.timestamp_s
            if self.deadline_origin == "timestamp"
            else self.clock.now()
        )
        self._enqueue(cohort, submission.session_id, submission.window, origin, entry)
        self._seen_sessions.add(submission.session_id)

    def poll(self, count: Optional[int] = None) -> List[FlushEvent]:
        """Read newly appended entries into the local backlog.

        Cohorts whose backlog fills a whole batch flush inline (reason
        ``"full"``), exactly like a full-batch ``submit`` on the in-process
        scheduler.  Completed in-flight flushes are harvested first, so one
        ``poll``/``pump`` loop never wedges behind a finished future.
        """
        events = self._harvest(block=False)
        for cohort, stream in self._streams.items():
            for entry in stream.read_group(self.group, self.consumer, count=count):
                self._admit_entry(cohort, entry)
            event = self._flush_if_full(cohort)
            if event is not None:
                events.append(event)
        return events

    def drain(self) -> List[FlushEvent]:
        """Flush every locally held window regardless of deadlines.

        Superseded submissions with no flush left to report them ride out
        on an empty ``FlushResult`` so producer-side conservation holds.
        """
        events = super().drain()
        for cohort, leftovers in self._superseded.items():
            if leftovers:
                self._superseded[cohort] = []
                self.result_stream.append(
                    FlushResult(
                        cohort=cohort,
                        entry_ids=(),
                        session_ids=(),
                        sequences=(),
                        probabilities=np.zeros((0, 0)),
                        flushed_at_s=self.clock.now(),
                        service_s=0.0,
                        worker="",
                        reason="drain",
                        consumer=self.consumer,
                        superseded=_reported(leftovers),
                    )
                )
                self._streams[cohort].ack(
                    self.group, *(entry.entry_id for entry in leftovers)
                )
        return events

    # ------------------------------------------------------------------ #
    # engine hooks
    # ------------------------------------------------------------------ #
    def _on_superseded(self, cohort: str, stale: QueuedWindow) -> None:
        # Real-time semantics: the fresher window wins; the stale entry is
        # reported on the next FlushResult (and acked with it) so producers
        # keep conservation accounting.
        self._superseded[cohort].append(stale.source)
        self.superseded_count += 1

    def _flight_context(self, cohort: str) -> Any:
        stream = self._streams[cohort]
        return float(stream.lag_s(self.group)), int(stream.depth(self.group))

    def _record_fields(self, context: Any) -> Dict[str, Any]:
        fields = {
            "n_sessions": len(self._seen_sessions),
            "stalled_sessions": 0,
            "backlog_depth": self.backlog_depth(),
        }
        if context is not None:
            fields["stream_lag_s"], fields["stream_depth"] = context
        return fields

    def _deliver(
        self, flight: _InFlightFlush, result: BatchResult, execution: ExecutionResult
    ) -> Dict[str, Any]:
        cohort = flight.cohort
        entries = [item.source for item in flight.items]
        superseded, self._superseded[cohort] = self._superseded[cohort], []
        session_ids = flight.prepared.session_ids
        stream_lag_s, stream_depth = flight.context
        self.result_stream.append(
            FlushResult(
                cohort=cohort,
                entry_ids=tuple(entry.entry_id for entry in entries),
                session_ids=tuple(session_ids),
                sequences=tuple(entry.payload.sequence for entry in entries),
                probabilities=np.stack([result.results[sid] for sid in session_ids]),
                flushed_at_s=flight.started_at_s,
                service_s=execution.service_s,
                worker=execution.worker,
                reason=flight.reason,
                consumer=self.consumer,
                stream_lag_s=stream_lag_s,
                stream_depth=stream_depth,
                deadline_violations=flight.violations,
                max_queue_wait_s=flight.max_wait_s,
                superseded=_reported(superseded),
            )
        )
        # Ack only after the result is durably on the result stream: dying
        # between flush and ack redelivers (at-least-once), never loses.
        self._streams[cohort].ack(
            self.group, *(entry.entry_id for entry in entries + superseded)
        )
        return {}
