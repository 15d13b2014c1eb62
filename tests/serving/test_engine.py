"""The cohort flush engine's contract, checked through both front ends.

Every test here runs twice: on the in-process scheduler (sessions submit
windows, results go to ``apply_result``) and on the stream consumer
(producers append to cohort streams, results go to the result stream and
are then acked).  Flush policy, supervision and hot-swap are one engine
under both, so one test states each rule once.
"""

import numpy as np
import pytest

from repro.serving.chaos import SimulatedShardExecutor
from repro.serving.executors import SupervisorConfig
from repro.serving.scheduler import (
    SUBMIT_FLUSHED,
    SUBMIT_QUEUED,
    AsyncFleetScheduler,
    SchedulerConfig,
)
from repro.streams import (
    SCHEDULER_GROUP,
    StreamConsumerScheduler,
    StreamTopology,
    WindowSubmission,
)
from tests.helpers import ClockedStubClassifier, FakeClock, ScriptedSession

DEADLINE_S = 0.05


def _classifiers(clock, cohorts):
    return {c: ClockedStubClassifier(clock, base_latency_s=0.001) for c in cohorts}


def _cohort_of(index, cohorts):
    return cohorts[index % len(cohorts)]


class SchedulerFront:
    """Sessions ``s0..s3`` submitting to an ``AsyncFleetScheduler``."""

    def __init__(self, clock, cohorts=("a",), max_batch_size=4, executor=None):
        self.engine = AsyncFleetScheduler(
            _classifiers(clock, cohorts),
            scheduler_config=SchedulerConfig(
                deadline_s=DEADLINE_S, max_batch_size=max_batch_size
            ),
            clock=clock,
            executor=executor,
        )
        for i in range(4):
            self.engine.add_session(
                ScriptedSession(f"s{i}", seed=i), cohort=_cohort_of(i, cohorts)
            )

    def offer(self, session_id):
        """Queue one window; returns the flush events it triggered inline."""
        outcome = self.engine.submit(session_id)
        assert outcome in (SUBMIT_QUEUED, SUBMIT_FLUSHED)
        return [self.engine.last_flush_event] if outcome == SUBMIT_FLUSHED else []

    def assert_held(self, n_windows):
        held = sum(h["queued"] for h in self.engine.fleet_health().values())
        assert held == n_windows

    def assert_served(self, event, session_ids):
        assert list(event.ticks) == session_ids
        for session_id in session_ids:
            assert self.engine.get_session(session_id).labels_emitted() == 1


class ConsumerFront:
    """Producers of ``s0..s3`` appending to streams a consumer drains."""

    def __init__(self, clock, cohorts=("a",), max_batch_size=4, executor=None):
        self.clock = clock
        self.cohorts = cohorts
        self.topology = StreamTopology(clock=clock)
        self.engine = StreamConsumerScheduler(
            _classifiers(clock, cohorts),
            {c: self.topology.cohort_stream(c) for c in cohorts},
            self.topology.result_stream,
            scheduler_config=SchedulerConfig(
                deadline_s=DEADLINE_S, max_batch_size=max_batch_size
            ),
            clock=clock,
            executor=executor,
        )
        self.entry_ids = {}

    def offer(self, session_id):
        cohort = _cohort_of(int(session_id[1:]), self.cohorts)
        self.entry_ids[session_id] = self.topology.cohort_stream(cohort).append(
            WindowSubmission(
                session_id=session_id,
                cohort=cohort,
                window=np.full((2, 4), 0.1),
                submitted_at_s=self.clock.now(),
                sequence=0,
            )
        )
        return self.engine.poll()

    def _pending(self):
        return sum(
            len(self.topology.cohort_stream(c).pending(SCHEDULER_GROUP))
            for c in self.cohorts
        )

    def assert_held(self, n_windows):
        assert self.engine.backlog_depth() == n_windows
        assert self._pending() == n_windows  # un-acked until served

    def assert_served(self, event, session_ids):
        assert event.ticks == {}
        result = self.topology.result_stream.range()[-1].payload
        assert result.session_ids == tuple(session_ids)
        assert result.entry_ids == tuple(self.entry_ids[s] for s in session_ids)
        assert result.probabilities.shape == (len(session_ids), 3)
        assert self._pending() == 0  # served entries are acked


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture(params=["scheduler", "consumer"])
def make_front(request, clock):
    front = {"scheduler": SchedulerFront, "consumer": ConsumerFront}[request.param]
    return lambda **kwargs: front(clock, **kwargs)


def supervised_executor():
    return SimulatedShardExecutor(
        supervisor_config=SupervisorConfig(backoff_initial_s=0.02, jitter_fraction=0.0)
    )


class TestFlushPolicy:
    def test_pump_at_the_deadline_flushes_without_violation(self, make_front, clock):
        front = make_front()
        engine = front.engine
        assert engine.next_flush_due_s() is None
        front.offer("s0")
        assert engine.next_flush_due_s() == pytest.approx(DEADLINE_S)
        assert engine.pump() == []  # not due yet
        clock.advance(0.005)
        front.offer("s1")  # younger window rides along with the oldest
        clock.advance_to(engine.next_flush_due_s())
        (event,) = engine.pump()
        assert event.reason == "deadline"
        assert event.batch_size == 2
        assert event.deadline_violations == 0
        assert event.max_queue_wait_s == pytest.approx(DEADLINE_S)
        assert engine.next_flush_due_s() is None
        front.assert_served(event, ["s0", "s1"])

    def test_late_pump_counts_violations(self, make_front, clock):
        front = make_front()
        front.offer("s0")
        clock.advance(1.0)  # a sloppy driver overslept the deadline
        (event,) = front.engine.pump()
        assert event.deadline_violations == 1
        assert event.max_queue_wait_s == pytest.approx(1.0)
        assert front.engine.telemetry.total_deadline_violations == 1

    def test_full_batch_flushes_inline(self, make_front):
        front = make_front(max_batch_size=3)
        engine = front.engine
        assert front.offer("s0") == []
        assert front.offer("s1") == []
        (event,) = front.offer("s2")
        assert event.reason == "full"
        assert event.batch_size == 3
        # The inline flush is observable through last_flush_event.
        assert engine.last_flush_event is event
        record = engine.telemetry.records[-1]
        assert record.flush_reason == "full"
        assert record.batch_size == 3
        assert engine.next_flush_due_s() is None
        front.assert_served(event, ["s0", "s1", "s2"])

    def test_drain_flushes_every_cohort_ahead_of_deadlines(self, make_front):
        front = make_front(cohorts=("a", "b"))
        front.offer("s0")  # cohort a
        front.offer("s1")  # cohort b
        events = front.engine.drain()
        assert sorted(e.cohort for e in events) == ["a", "b"]
        assert all(e.reason == "drain" for e in events)
        assert all(e.deadline_violations == 0 for e in events)
        assert front.engine.next_flush_due_s() is None


class TestSupervisedEngine:
    def test_worker_death_is_healed_not_raised(self, make_front, clock):
        front = make_front(executor=supervised_executor())
        engine = front.engine
        front.offer("s0")
        front.offer("s1")
        engine.executor.inject_kill("a", phase="idle")
        clock.advance(DEADLINE_S)
        # No raise: the idle death is discovered at submit and absorbed
        # (no flush started, so no FlushEvent — telemetry carries the mark).
        assert engine.pump() == []
        assert engine.worker_deaths == 1
        front.assert_held(2)
        died = [r for r in engine.telemetry.records if r.flush_reason == "worker-died"]
        assert len(died) == 1
        # Once the respawn backoff elapses the requeued windows are served.
        clock.advance(DEADLINE_S)
        (event,) = engine.pump()
        assert event.batch_size == 2
        front.assert_served(event, ["s0", "s1"])

    def test_swap_requires_exactly_one_plan_source(self, make_front):
        front = make_front(executor=supervised_executor())
        with pytest.raises(ValueError, match="exactly one"):
            front.engine.swap_plan("a")
        with pytest.raises(ValueError, match="exactly one"):
            front.engine.swap_plan(
                "a", payload=b"x", classifier=ClockedStubClassifier()
            )
        front.engine.shutdown()
