"""StreamConsumerScheduler tests: group draining, deadlines, supersession,
crash recovery via pending/claim, and worker-death requeue."""

import numpy as np
import pytest

from tests.helpers import ClockedStubClassifier, DyingExecutor, FakeClock

from repro.serving.executors import WorkerDiedError
from repro.serving.scheduler import SchedulerConfig
from repro.streams import (
    SCHEDULER_GROUP,
    StreamConsumerScheduler,
    StreamTopology,
    WindowSubmission,
)


def submission(session_id, cohort, clock, sequence=0):
    return WindowSubmission(
        session_id=session_id,
        cohort=cohort,
        window=np.full((2, 4), 0.1),
        submitted_at_s=clock.now(),
        sequence=sequence,
    )


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def topology(clock):
    return StreamTopology(clock=clock)


def make_consumer(topology, clock, cohorts=("a",), executor=None, **cfg):
    config = SchedulerConfig(**{"deadline_s": 0.05, "max_batch_size": 4, **cfg})
    classifiers = {
        cohort: ClockedStubClassifier(clock, base_latency_s=0.001)
        for cohort in cohorts
    }
    return StreamConsumerScheduler(
        classifiers,
        {cohort: topology.cohort_stream(cohort) for cohort in cohorts},
        topology.result_stream,
        scheduler_config=config,
        clock=clock,
        executor=executor,
    )


def harvest_results(topology):
    return [e.payload for e in topology.result_stream.range()]


class TestDraining:
    def test_poll_reads_entries_into_backlog(self, topology, clock):
        consumer = make_consumer(topology, clock)
        stream = topology.cohort_stream("a")
        stream.append(submission("s0", "a", clock))
        assert consumer.backlog_depth() == 0
        consumer.poll()
        assert consumer.backlog_depth() == 1
        # entry is pending (delivered, unacked) until its flush completes
        assert len(stream.pending(SCHEDULER_GROUP)) == 1

    def test_results_carry_stream_lag_and_depth(self, topology, clock):
        consumer = make_consumer(topology, clock)
        stream = topology.cohort_stream("a")
        stream.append(submission("s0", "a", clock))
        clock.advance(0.02)
        consumer.poll()
        clock.advance(0.04)
        consumer.pump()
        (result,) = harvest_results(topology)
        assert result.stream_lag_s == pytest.approx(0.06)
        assert result.stream_depth == 1
        (record,) = consumer.telemetry.records
        assert record.stream_lag_s == pytest.approx(0.06)
        assert record.stream_depth == 1

    def test_wrong_payload_type_is_rejected(self, topology, clock):
        consumer = make_consumer(topology, clock)
        topology.cohort_stream("a").append("not-a-submission")
        with pytest.raises(TypeError, match="expected WindowSubmission"):
            consumer.poll()

    def test_deadline_origin_read_measures_from_delivery(self, topology, clock):
        config = dict(deadline_s=0.05, max_batch_size=4)
        stream = topology.cohort_stream("a")
        stream.append(submission("s0", "a", clock))
        clock.advance(10.0)  # entry is ancient by the time the consumer reads
        consumer = StreamConsumerScheduler(
            {"a": ClockedStubClassifier(clock)},
            {"a": stream},
            topology.result_stream,
            scheduler_config=SchedulerConfig(**config),
            clock=clock,
            deadline_origin="read",
        )
        consumer.poll()
        # deadline counts from the read, not the 10s-old timestamp
        assert consumer.next_flush_due_s() == pytest.approx(10.05)

    def test_invalid_deadline_origin_rejected(self, topology, clock):
        with pytest.raises(ValueError, match="deadline_origin"):
            make_consumer(topology, clock).__class__(
                {"a": ClockedStubClassifier(clock)},
                {"a": topology.cohort_stream("a")},
                topology.result_stream,
                clock=clock,
                deadline_origin="sometimes",
            )


class TestSupersession:
    def test_fresher_window_supersedes_stale_backlog(self, topology, clock):
        consumer = make_consumer(topology, clock)
        stream = topology.cohort_stream("a")
        stream.append(submission("s0", "a", clock, sequence=0))
        consumer.poll()
        clock.advance(0.01)
        stream.append(submission("s0", "a", clock, sequence=1))
        consumer.poll()
        assert consumer.backlog_depth() == 1  # stale window dropped
        assert consumer.superseded_count == 1
        clock.advance(0.05)
        consumer.pump()
        (result,) = harvest_results(topology)
        assert result.sequences == (1,)  # the fresh window was served
        assert result.superseded == (("s0", 0),)
        assert stream.pending(SCHEDULER_GROUP) == []  # stale entry acked too

    def test_drain_reports_orphaned_supersessions(self, topology, clock):
        consumer = make_consumer(topology, clock)
        stream = topology.cohort_stream("a")
        stream.append(submission("s0", "a", clock, sequence=0))
        consumer.poll()
        stream.append(submission("s0", "a", clock, sequence=1))
        consumer.poll()
        # serve the fresh window, then supersede again with nothing queued
        clock.advance(0.05)
        consumer.pump()
        stream.append(submission("s0", "a", clock, sequence=2))
        consumer.poll()
        stream.append(submission("s0", "a", clock, sequence=3))
        consumer.poll()
        consumer.drain()
        results = harvest_results(topology)
        reported = [pair for r in results for pair in r.superseded]
        assert ("s0", 0) in reported and ("s0", 2) in reported
        assert stream.pending(SCHEDULER_GROUP) == []  # nothing left unacked


class TestCrashRecovery:
    def test_abandoned_pending_is_claimed_by_restarted_consumer(
        self, topology, clock
    ):
        # Consumer reads two entries, then "dies" before flushing.
        dead = make_consumer(topology, clock)
        stream = topology.cohort_stream("a")
        stream.append(submission("s0", "a", clock, 0))
        stream.append(submission("s1", "a", clock, 0))
        dead.poll()
        assert len(stream.pending(SCHEDULER_GROUP)) == 2
        del dead
        # A replacement under the same identity claims the orphans at start.
        revived = StreamConsumerScheduler(
            {"a": ClockedStubClassifier(clock)},
            {"a": stream},
            topology.result_stream,
            scheduler_config=SchedulerConfig(deadline_s=0.05, max_batch_size=4),
            clock=clock,
        )
        assert revived.backlog_depth() == 2
        revived.drain()
        (result,) = harvest_results(topology)
        assert result.session_ids == ("s0", "s1")
        assert stream.pending(SCHEDULER_GROUP) == []

    def test_worker_death_restores_backlog_and_keeps_entries_pending(
        self, topology, clock
    ):
        executor = DyingExecutor()
        consumer = make_consumer(topology, clock, executor=executor)
        stream = topology.cohort_stream("a")
        stream.append(submission("s0", "a", clock, 0))
        stream.append(submission("s1", "a", clock, 0))
        consumer.poll()
        clock.advance(0.05)
        with pytest.raises(WorkerDiedError):
            consumer.pump()
        assert consumer.worker_deaths == 1
        # Work is not lost: windows back in the local backlog, entries still
        # pending in the group (so even a full process death is recoverable).
        assert consumer.backlog_depth() == 2
        assert len(stream.pending(SCHEDULER_GROUP)) == 2
        assert consumer.inflight_cohorts == ()
        # Requeued windows get a fresh deadline from the failed flush start;
        # a recovered executor serves them on the next due pump.
        executor.fail_next = False
        assert consumer.next_flush_due_s() == pytest.approx(0.10)
        clock.advance_to(consumer.next_flush_due_s())
        (event,) = consumer.pump()
        assert event.batch_size == 2
        assert stream.pending(SCHEDULER_GROUP) == []

    def test_death_with_a_fresher_window_queued_supersedes_the_stale_one(
        self, topology, clock
    ):
        # s0's window is in flight when its fresher window is polled; the
        # flush then dies.  The requeue must keep only the fresher window
        # (the stale one is reported superseded and acked), or the next
        # flush would stack two s0 windows into one batch.
        executor = DyingExecutor(hold=True)
        consumer = make_consumer(topology, clock, executor=executor)
        stream = topology.cohort_stream("a")
        stream.append(submission("s0", "a", clock, 0))
        stream.append(submission("s1", "a", clock, 0))
        consumer.poll()
        clock.advance(0.05)
        assert consumer.pump(wait=False) == []
        assert consumer.inflight_cohorts == ("a",)
        stream.append(submission("s0", "a", clock, 1))
        consumer.poll()
        executor.release()
        with pytest.raises(WorkerDiedError):
            consumer.pump()
        assert consumer.worker_deaths == 1
        executor.fail_next = False
        clock.advance_to(consumer.next_flush_due_s())
        (event,) = consumer.pump()
        assert event.batch_size == 2
        assert consumer.superseded_count == 1
        (result,) = harvest_results(topology)
        assert sorted(zip(result.session_ids, result.sequences)) == [
            ("s0", 1),
            ("s1", 0),
        ]
        assert result.superseded == (("s0", 0),)
        assert stream.pending(SCHEDULER_GROUP) == []
        assert consumer.backlog_depth() == 0
        # The batcher holds nothing, so a hot swap is accepted.
        assert consumer.swap_plan("a", classifier=ClockedStubClassifier(clock)) == 2

class TestCompetingConsumers:
    def test_same_group_consumers_split_one_stream_disjointly(self, topology, clock):
        stream = topology.cohort_stream("a")
        config = SchedulerConfig(deadline_s=0.05, max_batch_size=8)

        def build(name):
            return StreamConsumerScheduler(
                {"a": ClockedStubClassifier(clock)},
                {"a": stream},
                topology.result_stream,
                consumer=name,
                scheduler_config=config,
                clock=clock,
            )

        left, right = build("left"), build("right")
        for i in range(6):
            stream.append(submission(f"s{i}", "a", clock, 0))
        left.poll(count=3)
        right.poll(count=3)
        left.drain()
        right.drain()
        results = harvest_results(topology)
        served = [sid for r in results for sid in r.session_ids]
        assert sorted(served) == [f"s{i}" for i in range(6)]
        consumers = {r.consumer for r in results}
        assert consumers == {"left", "right"}


class TestSupervisedHealing:
    """With a supervised executor the consumer absorbs deaths and hot-swaps."""

    def _supervised(self, topology, clock, **cfg):
        from repro.serving.chaos import SimulatedShardExecutor
        from repro.serving.executors import SupervisorConfig

        executor = SimulatedShardExecutor(
            supervisor_config=SupervisorConfig(
                backoff_initial_s=0.02, jitter_fraction=0.0
            )
        )
        return make_consumer(topology, clock, executor=executor, **cfg), executor

    def test_hot_swap_versions_flushes_on_the_result_path(self, topology, clock):
        consumer, executor = self._supervised(topology, clock)
        stream = topology.cohort_stream("a")
        stream.append(submission("s0", "a", clock, 0))
        consumer.poll()
        clock.advance(0.05)
        consumer.pump()
        version = consumer.swap_plan(
            "a", classifier=ClockedStubClassifier(clock, peak_class=2)
        )
        assert version == 2
        assert consumer.plan_version("a") == 2
        stream.append(submission("s0", "a", clock, 1))
        consumer.poll()
        clock.advance(0.05)
        consumer.pump()
        served = [r for r in consumer.telemetry.records if r.batch_size > 0]
        assert [r.plan_version for r in served] == [1, 2]
        transitions = consumer.telemetry.plan_version_transitions()
        assert [t[1:] for t in transitions["a"]] == [(1, 2)]
        assert consumer.plan_swaps == 1
        health = consumer.fleet_health()
        assert health["a"]["plan_version"] == 2
