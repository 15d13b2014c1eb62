"""Pluggable flush execution: batcher phase split, executors, in-flight flushes.

Deterministic tests run on the FakeClock with clock-driven stub classifiers
(exact latencies); the process-shard tests use real compiled plans and the
real clock, wrapped in a hard wall-clock timeout so a wedged worker fails
fast and attributably.
"""

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.models.lstm_model import EEGLSTM, LSTMConfig
from repro.serving.batcher import MicroBatcher, PreparedBatch, execute_windows
from repro.serving.executors import (
    WORKER_QUARANTINED,
    WORKER_RESPAWNING,
    WORKER_RUNNING,
    ExecutorClosedError,
    FlushExecutionError,
    ProcessShardExecutor,
    SerialExecutor,
    ShardSupervisor,
    SupervisorConfig,
    ThreadPoolFlushExecutor,
    WorkerDiedError,
    _Shard,
    _ShardTicket,
)
from repro.serving.scheduler import (
    SUBMIT_FLUSHED,
    SUBMIT_QUEUED,
    AsyncFleetScheduler,
    SchedulerConfig,
)
from repro.utils.timing import SYSTEM_CLOCK
from tests.helpers import (
    ClockedStubClassifier,
    FakeClock,
    ScriptedSession,
    SimulatedLoad,
    hard_timeout,
)

DEADLINE_S = 0.015


def make_scheduler(clock, n_sessions=4, executor=None, classifier=None, **sched_kwargs):
    classifier = classifier or ClockedStubClassifier(clock)
    scheduler = AsyncFleetScheduler(
        classifier,
        scheduler_config=SchedulerConfig(deadline_s=DEADLINE_S, **sched_kwargs),
        clock=clock,
        executor=executor,
    )
    for i in range(n_sessions):
        scheduler.add_session(ScriptedSession(f"s{i}", seed=i))
    return scheduler


# ---------------------------------------------------------------------- #
# MicroBatcher three-phase split
# ---------------------------------------------------------------------- #
class TestBatcherPhases:
    def test_prepare_returns_none_when_empty(self):
        batcher = MicroBatcher(ClockedStubClassifier())
        assert batcher.prepare() is None

    def test_flush_equals_manual_three_phase_composition(self):
        clock = FakeClock()
        rng = np.random.default_rng(0)
        windows = {f"s{i}": rng.standard_normal((2, 4)) for i in range(5)}
        one = MicroBatcher(ClockedStubClassifier(clock, base_latency_s=0.002),
                           max_batch_size=2, clock=clock)
        two = MicroBatcher(ClockedStubClassifier(clock, base_latency_s=0.002),
                           max_batch_size=2, clock=clock)
        for sid, window in windows.items():
            one.submit(sid, window)
            two.submit(sid, window)
        direct = one.flush()
        prepared = two.prepare()
        manual = two.finalize(prepared, two.execute(prepared))
        assert direct.batch_sizes == manual.batch_sizes == [2, 2, 1]
        assert direct.latency_s == manual.latency_s
        assert set(direct.results) == set(manual.results)
        for sid in windows:
            np.testing.assert_array_equal(direct.results[sid], manual.results[sid])

    def test_single_chunk_skips_the_concatenate_copy(self):
        returned = []

        class Recording(ClockedStubClassifier):
            def predict_proba(self, windows):
                probs = super().predict_proba(windows)
                returned.append(probs)
                return probs

        batcher = MicroBatcher(Recording())
        for i in range(3):
            batcher.submit(f"s{i}", np.full((2, 4), float(i)))
        execution = batcher.execute(batcher.prepare())
        assert execution.batch_sizes == [3]
        # The classifier's own output array is handed through untouched.
        assert execution.probabilities is returned[0]

    def test_multi_chunk_still_concatenates(self):
        batcher = MicroBatcher(ClockedStubClassifier(), max_batch_size=2)
        for i in range(3):
            batcher.submit(f"s{i}", np.full((2, 4), float(i)))
        execution = batcher.execute(batcher.prepare())
        assert execution.batch_sizes == [2, 1]
        assert execution.probabilities.shape == (3, 3)

    def test_finalize_rejects_row_count_mismatch(self):
        batcher = MicroBatcher(ClockedStubClassifier())
        batcher.submit("s0", np.zeros((2, 4)))
        prepared = batcher.prepare()
        execution = execute_windows(ClockedStubClassifier(), np.zeros((2, 2, 4)), 2)
        with pytest.raises(RuntimeError, match="rows"):
            batcher.finalize(prepared, execution)

    def test_execute_windows_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            execute_windows(ClockedStubClassifier(), np.zeros((1, 2, 4)), 0)


# ---------------------------------------------------------------------- #
# Executor equivalence on the scheduler
# ---------------------------------------------------------------------- #
def _run_load(executor_factory, seconds=10.0, base_latency_s=0.0):
    clock = FakeClock()
    scheduler = AsyncFleetScheduler(
        {
            "adults": ClockedStubClassifier(
                clock, peak_class=0, base_latency_s=base_latency_s
            ),
            "kids": ClockedStubClassifier(
                clock, peak_class=2, base_latency_s=base_latency_s
            ),
        },
        scheduler_config=SchedulerConfig(deadline_s=DEADLINE_S, max_batch_size=8),
        clock=clock,
        executor=executor_factory(),
    )
    for i in range(6):
        scheduler.add_session(
            ScriptedSession(f"s{i}", seed=i),
            cohort="adults" if i % 2 == 0 else "kids",
        )
    load = SimulatedLoad(scheduler, clock, period_s=0.1, seed=3)
    load.run(seconds)
    scheduler.executor.shutdown()
    return scheduler, load


class TestExecutorEquivalence:
    def test_default_executor_is_serial(self):
        clock = FakeClock()
        scheduler = make_scheduler(clock)
        assert isinstance(scheduler.executor, SerialExecutor)
        assert scheduler.executor.serializes_flushes

    def test_thread_executor_matches_serial_results(self):
        # Zero-latency stubs: the virtual clock never moves inside a flush,
        # so the thread run is deterministic and comparable row for row.
        serial_sched, serial_load = _run_load(lambda: None)
        thread_sched, thread_load = _run_load(ThreadPoolFlushExecutor)
        assert serial_load.outcomes == thread_load.outcomes
        assert (
            thread_sched.telemetry.total_labels
            == serial_sched.telemetry.total_labels
        )
        for sid in (f"s{i}" for i in range(6)):
            a = serial_sched.get_session(sid).applied
            b = thread_sched.get_session(sid).applied
            assert len(a) == len(b)
            for (pa, _), (pb, _) in zip(a, b):
                np.testing.assert_array_equal(pa, pb)

    def test_serial_executor_cannot_be_rebound(self):
        clock = FakeClock()
        scheduler = make_scheduler(clock)
        with pytest.raises(RuntimeError, match="already bound"):
            AsyncFleetScheduler(
                ClockedStubClassifier(clock),
                clock=clock,
                executor=scheduler.executor,
            )

    def test_telemetry_breakdowns_populated(self):
        scheduler, _ = _run_load(lambda: None, base_latency_s=0.002)
        report = scheduler.report()
        assert set(report.cohorts) == {"adults", "kids"}
        for stats in report.cohorts.values():
            assert stats["labels"] > 0
            assert stats["deadline_violations"] == 0
            assert stats["max_queue_wait_s"] <= DEADLINE_S + 1e-9
        assert set(report.workers) == {"serial"}
        assert report.workers["serial"]["flushes"] == sum(
            c["flushes"] for c in report.cohorts.values()
        )
        assert 0 < report.workers["serial"]["utilization"] <= 1.0
        assert report.fleet["workers"] == 1.0

    def test_lockstep_records_carry_no_cohort_or_worker(self):
        clock = FakeClock()
        scheduler = make_scheduler(clock, n_sessions=2)
        scheduler.tick()
        (record,) = scheduler.telemetry.records
        assert record.cohort == "" and record.worker == ""
        assert scheduler.report().cohorts == {}
        assert scheduler.report().workers == {}


# ---------------------------------------------------------------------- #
# In-flight flush tracking (manually completed executor)
# ---------------------------------------------------------------------- #
class ManualTicket:
    def __init__(self, run):
        self._run = run
        self._execution = None
        self.released = False

    def release(self):
        self.released = True

    def done(self):
        return self.released

    def result(self, timeout=None):
        if self._execution is None:
            self._execution = self._run()
        return self._execution


class ManualExecutor:
    """Test double: flushes stay in flight until the test releases them."""

    serializes_flushes = False

    def __init__(self):
        self.tickets = {}

    def bind(self, classifiers, clock):
        self.classifiers = dict(classifiers)
        self.clock = clock

    def submit_flush(self, cohort, prepared):
        classifier = self.classifiers[cohort]
        ticket = ManualTicket(
            lambda: execute_windows(
                classifier, prepared.windows, prepared.chunk_size,
                self.clock, worker=f"manual:{cohort}",
            )
        )
        self.tickets[cohort] = ticket
        return ticket

    def shutdown(self):
        self.tickets = {}


class TestInFlightFlushes:
    def _scheduler(self, n_sessions=3, **sched_kwargs):
        clock = FakeClock()
        executor = ManualExecutor()
        scheduler = make_scheduler(
            clock, n_sessions=n_sessions, executor=executor, **sched_kwargs
        )
        return clock, executor, scheduler

    def test_pump_wait_false_leaves_future_in_flight(self):
        clock, executor, scheduler = self._scheduler()
        scheduler.submit("s0")
        clock.advance(DEADLINE_S)
        assert scheduler.pump(wait=False) == []
        assert scheduler.inflight_cohorts == ("default",)
        executor.tickets["default"].release()
        (event,) = scheduler.pump(wait=False)
        assert event.reason == "deadline"
        assert event.worker == "manual:default"
        assert scheduler.inflight_cohorts == ()

    def test_session_departing_while_flush_in_flight(self):
        clock, executor, scheduler = self._scheduler()
        scheduler.submit("s0")
        scheduler.submit("s1")
        clock.advance(DEADLINE_S)
        scheduler.pump(wait=False)
        removed = scheduler.remove_session("s1")  # departs mid-flight
        executor.tickets["default"].release()
        (event,) = scheduler.pump(wait=False)
        # The departed session's row is computed but dropped, not applied.
        assert set(event.ticks) == {"s0"}
        assert event.batch_size == 2
        assert removed.labels_emitted() == 0
        assert scheduler.get_session("s0").labels_emitted() == 1

    def test_full_batch_submit_refuses_double_flush(self):
        clock, executor, scheduler = self._scheduler(
            n_sessions=3, max_batch_size=2
        )
        assert scheduler.submit("s0") == SUBMIT_QUEUED
        assert scheduler.submit("s1") == SUBMIT_FLUSHED  # blocks & completes
        assert scheduler.inflight_cohorts == ()  # inline flush is synchronous
        # Now hold a flush in flight and fill the batch again: no double
        # flush — the submission queues behind the in-flight one.
        scheduler.submit("s0")
        clock.advance(DEADLINE_S)
        scheduler.pump(wait=False)
        assert scheduler.inflight_cohorts == ("default",)
        assert scheduler.submit("s1") == SUBMIT_QUEUED
        assert scheduler.submit("s2") == SUBMIT_QUEUED  # batch full, still queued
        executor.tickets["default"].release()
        (harvested,) = scheduler.pump(wait=False)
        assert harvested.batch_size == 1
        # The freed cohort's full backlog flushes immediately (reason
        # "full"), without waiting for its deadline ...
        assert scheduler.inflight_cohorts == ("default",)
        executor.tickets["default"].release()
        (backlog,) = scheduler.pump(wait=False)
        assert backlog.reason == "full"
        assert backlog.batch_size == 2

    def test_tick_refuses_while_flush_in_flight(self):
        clock, executor, scheduler = self._scheduler()
        scheduler.submit("s0")
        clock.advance(DEADLINE_S)
        scheduler.pump(wait=False)
        with pytest.raises(RuntimeError, match="in flight"):
            scheduler.tick()
        executor.tickets["default"].release()
        scheduler.pump()
        assert scheduler.tick()

    def test_drain_harvests_in_flight_futures(self):
        clock, executor, scheduler = self._scheduler()
        scheduler.submit("s0")
        clock.advance(DEADLINE_S)
        scheduler.pump(wait=False)
        scheduler.submit("s1")  # queued behind the in-flight flush
        executor.tickets["default"].release()
        events = scheduler.drain()
        assert [e.reason for e in events] == ["deadline", "drain"]
        assert sum(e.batch_size for e in events) == 2

    def test_pump_wait_true_blocks_on_started_flush(self):
        clock, executor, scheduler = self._scheduler()
        scheduler.submit("s0")
        clock.advance(DEADLINE_S)
        # wait=True completes the future it started via ticket.result().
        (event,) = scheduler.pump()
        assert event.batch_size == 1
        assert scheduler.inflight_cohorts == ()

    def test_pump_wait_true_harvests_leftover_in_flight_flushes(self):
        # A flush left in flight by pump(wait=False) must also be waited
        # out by a later default pump() — its contract is "no executor work
        # remains when it returns".
        clock, executor, scheduler = self._scheduler()
        scheduler.submit("s0")
        clock.advance(DEADLINE_S)
        scheduler.pump(wait=False)
        assert scheduler.inflight_cohorts == ("default",)
        (event,) = scheduler.pump()  # nothing newly due, still harvests
        assert event.batch_size == 1
        assert scheduler.inflight_cohorts == ()
        assert scheduler.tick() is not None  # lock-step usable again

    def test_failed_submit_restores_the_queued_windows(self):
        clock, executor, scheduler = self._scheduler()

        fail_next = {"armed": True}
        original = executor.submit_flush

        def flaky(cohort, prepared):
            if fail_next["armed"]:
                fail_next["armed"] = False
                raise FlushExecutionError("worker died")
            return original(cohort, prepared)

        executor.submit_flush = flaky
        scheduler.submit("s0")
        scheduler.submit("s1")
        clock.advance(DEADLINE_S)
        with pytest.raises(FlushExecutionError):
            scheduler.pump()
        # The popped windows were put back: the executor recovered, and the
        # retry serves every admitted window (conservation holds).
        assert scheduler.pump(wait=False) == []  # retry begins, in flight
        executor.tickets["default"].release()
        (event,) = scheduler.pump(wait=False)
        assert event.batch_size == 2
        assert set(event.ticks) == {"s0", "s1"}

    def test_timed_out_harvest_keeps_the_flush_in_flight(self):
        clock, executor, scheduler = self._scheduler()
        scheduler.submit("s0")
        clock.advance(DEADLINE_S)
        scheduler.pump(wait=False)
        ticket = executor.tickets["default"]
        original_result = ticket.result
        ticket.result = lambda timeout=None: (_ for _ in ()).throw(
            TimeoutError("worker slow")
        )
        with pytest.raises(TimeoutError):
            scheduler.drain()
        # The flush stays tracked; once the (late) result arrives the next
        # harvest completes it instead of wedging the cohort forever.
        assert scheduler.inflight_cohorts == ("default",)
        ticket.result = original_result
        ticket.release()
        (event,) = scheduler.pump(wait=False)
        assert event.batch_size == 1


# ---------------------------------------------------------------------- #
# Service-EWMA cold start (satellite regression)
# ---------------------------------------------------------------------- #
class TestServiceEwmaColdStart:
    def test_zero_latency_flush_seeds_the_estimate(self):
        clock = FakeClock()
        classifier = ClockedStubClassifier(clock)  # exactly zero latency
        scheduler = make_scheduler(clock, n_sessions=1, classifier=classifier)
        assert scheduler.service_estimate_s("default") is None
        scheduler.submit("s0")
        scheduler.drain()
        # A genuine 0.0 sample is a sample, not "no data".
        assert scheduler.service_estimate_s("default") == 0.0
        # The next (slower) flush must be folded in by the EWMA, not treated
        # as the first sample: estimate = 0.25 * 0.008 + 0.75 * 0.0.
        classifier.base_latency_s = 0.008
        scheduler.submit("s0")
        scheduler.drain()
        assert scheduler.service_estimate_s("default") == pytest.approx(
            0.25 * 0.008
        )

    def test_estimate_measures_service_only(self):
        # Executor overhead (time between begin and harvest beyond the
        # execute itself) must not leak into the service estimate.
        clock = FakeClock()
        executor = ManualExecutor()
        classifier = ClockedStubClassifier(clock, base_latency_s=0.004)
        scheduler = make_scheduler(
            clock, n_sessions=1, executor=executor, classifier=classifier
        )
        scheduler.submit("s0")
        clock.advance(DEADLINE_S)
        scheduler.pump(wait=False)
        clock.advance(0.5)  # half a second of executor queueing
        executor.tickets["default"].release()
        (event,) = scheduler.pump(wait=False)
        assert scheduler.service_estimate_s("default") == pytest.approx(0.004)
        assert event.latency_s == pytest.approx(0.004)
        assert event.executor_wait_s == pytest.approx(0.5)
        record = scheduler.telemetry.records[-1]
        assert record.executor_wait_s == pytest.approx(0.5)
        assert scheduler.report().fleet["max_executor_wait_s"] == pytest.approx(0.5)


# ---------------------------------------------------------------------- #
# Process sharding (real clock, real plans, hard timeout)
# ---------------------------------------------------------------------- #
def _lstm(seed=4, hidden=12):
    classifier = EEGLSTM(LSTMConfig(hidden_size=hidden), seed=seed)
    classifier.ensure_network(4, 50)
    return classifier


class TestProcessShardExecutor:
    def test_worker_matches_in_process_serial_execution(self):
        classifier = _lstm()
        rng = np.random.default_rng(0)
        prepared = PreparedBatch(
            session_ids=["a", "b", "c"],
            windows=rng.standard_normal((3, 4, 50)),
            chunk_size=2,
        )
        serial = SerialExecutor()
        serial.bind({"default": classifier}, SYSTEM_CLOCK)
        reference = serial.submit_flush("default", prepared).result()
        executor = ProcessShardExecutor()
        with hard_timeout(240, what="process-shard smoke"):
            executor.bind({"default": classifier}, SYSTEM_CLOCK)
            try:
                execution = executor.submit_flush("default", prepared).result()
            finally:
                executor.shutdown()
        assert execution.worker == "shard:default"
        assert execution.batch_sizes == [2, 1]
        assert execution.service_s > 0.0
        np.testing.assert_allclose(
            execution.probabilities, reference.probabilities, atol=1e-7, rtol=0
        )

    def test_scheduler_end_to_end_over_process_shards(self):
        classifier = _lstm()
        oracle = AsyncFleetScheduler(
            _lstm(), scheduler_config=SchedulerConfig(deadline_s=DEADLINE_S)
        )
        sharded = AsyncFleetScheduler(
            classifier,
            scheduler_config=SchedulerConfig(deadline_s=DEADLINE_S),
            executor=ProcessShardExecutor(),
        )
        with hard_timeout(240, what="process-shard scheduler smoke"):
            try:
                for scheduler in (oracle, sharded):
                    for i in range(3):
                        scheduler.add_session(
                            ScriptedSession(f"s{i}", n_channels=4, window_size=50, seed=i)
                        )
                    for i in range(3):
                        scheduler.submit(f"s{i}")
                    scheduler.drain()
            finally:
                sharded.executor.shutdown()
        for i in range(3):
            (a, _), (b, _) = (
                oracle.get_session(f"s{i}").applied[0],
                sharded.get_session(f"s{i}").applied[0],
            )
            np.testing.assert_allclose(a, b, atol=1e-7, rtol=0)
        record = sharded.telemetry.records[-1]
        assert record.worker == "shard:default"

    def test_untransportable_classifier_rejected_at_bind(self):
        executor = ProcessShardExecutor()
        with pytest.raises(ValueError, match="compiled inference plan"):
            executor.bind({"default": ClockedStubClassifier()}, SYSTEM_CLOCK)

    def test_sigkilled_worker_respawns_and_serves_identically(self):
        classifier = _lstm()
        rng = np.random.default_rng(1)
        prepared = PreparedBatch(
            session_ids=["a", "b"],
            windows=rng.standard_normal((2, 4, 50)),
            chunk_size=8,
        )
        # Zero backoff: the respawn is due immediately, so the real-clock
        # test never sleeps through a backoff window.
        executor = ProcessShardExecutor(
            supervisor_config=SupervisorConfig(
                backoff_initial_s=0.0, jitter_fraction=0.0
            )
        )
        with hard_timeout(240, what="sigkill respawn smoke"):
            executor.bind({"default": classifier}, SYSTEM_CLOCK)
            try:
                reference = executor.submit_flush("default", prepared).result()
                executor.inject_kill("default")
                with pytest.raises(WorkerDiedError) as err:
                    executor.submit_flush("default", prepared)
                assert err.value.cohort == "default"
                # The previous flush was answered; a stale ticket must not
                # ride along as "pending" (it has nothing to requeue).
                assert err.value.pending == ()
                assert executor.worker_state("default") == WORKER_RESPAWNING
                execution = executor.submit_flush("default", prepared).result()
            finally:
                executor.shutdown()
        assert executor.restart_count("default") == 1
        np.testing.assert_allclose(
            execution.probabilities, reference.probabilities, atol=1e-7, rtol=0
        )

    def test_mid_flush_and_respawn_kill_phases_on_real_workers(self):
        classifier = _lstm()
        rng = np.random.default_rng(3)
        prepared = PreparedBatch(
            session_ids=["a", "b"],
            windows=rng.standard_normal((2, 4, 50)),
            chunk_size=8,
        )
        executor = ProcessShardExecutor(
            supervisor_config=SupervisorConfig(
                backoff_initial_s=0.0, jitter_fraction=0.0
            )
        )
        with hard_timeout(240, what="scripted kill phases on real workers"):
            executor.bind({"default": classifier}, SYSTEM_CLOCK)
            try:
                reference = executor.submit_flush("default", prepared).result()
                # mid-flush: the worker accepts the flush and dies on it.
                executor.inject_kill("default", phase="mid-flush")
                ticket = executor.submit_flush("default", prepared)
                with pytest.raises(WorkerDiedError) as err:
                    ticket.result()
                assert err.value.pending == (ticket,)
                assert executor.worker_state("default") == WORKER_RESPAWNING
                # respawn: the next spawn fails its ready handshake.
                executor.inject_kill("default", phase="respawn")
                with pytest.raises(WorkerDiedError, match="respawn failed"):
                    executor.submit_flush("default", prepared)
                assert executor.worker_state("default") == WORKER_RESPAWNING
                execution = executor.submit_flush("default", prepared).result()
            finally:
                executor.shutdown()
        assert executor.restart_count("default") == 1
        np.testing.assert_allclose(
            execution.probabilities, reference.probabilities, atol=1e-7, rtol=0
        )

    def test_ticket_on_a_closed_pipe_reports_a_dead_worker(self):
        parent_end, child_end = multiprocessing.Pipe()
        child_end.close()
        parent_end.close()
        ticket = _ShardTicket(_Shard("a", None, parent_end), 1.0)
        assert ticket.done()  # no raw OSError escapes to a polling caller
        with pytest.raises(WorkerDiedError) as err:
            ticket.result()
        assert err.value.pending == (ticket,)

    def test_hot_swap_ships_new_plan_to_live_worker(self):
        old, new = _lstm(seed=4), _lstm(seed=9)
        rng = np.random.default_rng(2)
        prepared = PreparedBatch(
            session_ids=["a", "b"],
            windows=rng.standard_normal((2, 4, 50)),
            chunk_size=8,
        )
        serial = SerialExecutor()
        serial.bind({"default": new}, SYSTEM_CLOCK)
        reference = serial.submit_flush("default", prepared).result()
        executor = ProcessShardExecutor()
        with hard_timeout(240, what="hot-swap smoke"):
            executor.bind({"default": old}, SYSTEM_CLOCK)
            try:
                first = executor.submit_flush("default", prepared).result()
                assert first.plan_version == 1
                version = executor.swap_plan("default", new)
                assert version == 2
                assert executor.acked_plan_version("default") == 2
                second = executor.submit_flush("default", prepared).result()
            finally:
                executor.shutdown()
        assert second.plan_version == 2
        np.testing.assert_allclose(
            second.probabilities, reference.probabilities, atol=1e-7, rtol=0
        )

    def test_shutdown_is_idempotent_and_terminal(self):
        executor = ProcessShardExecutor()
        executor.shutdown()
        executor.shutdown()  # second call is a quiet no-op
        prepared = PreparedBatch(
            session_ids=["a"], windows=np.zeros((1, 4, 50)), chunk_size=8
        )
        with pytest.raises(ExecutorClosedError):
            executor.submit_flush("default", prepared)
        with pytest.raises(ExecutorClosedError):
            executor.bind({"default": _lstm()}, SYSTEM_CLOCK)
        with pytest.raises(ExecutorClosedError):
            executor.swap_plan("default", b"")


class TestShardSupervisor:
    def _supervisor(self, **overrides):
        defaults = dict(
            max_restarts=3,
            restart_window_s=10.0,
            backoff_initial_s=0.1,
            backoff_max_s=0.4,
            backoff_factor=2.0,
            jitter_fraction=0.0,
        )
        defaults.update(overrides)
        clock = FakeClock()
        return ShardSupervisor(SupervisorConfig(**defaults), clock), clock

    def test_backoff_doubles_per_consecutive_failure_and_caps(self):
        supervisor, clock = self._supervisor(max_restarts=10)
        supervisor.watch("c")
        for expected in (0.1, 0.2, 0.4, 0.4):  # doubles, then hits the cap
            assert supervisor.record_death("c") == WORKER_RESPAWNING
            assert supervisor.retry_at_s("c") == pytest.approx(
                clock.now() + expected
            )
            clock.advance(0.5)

    def test_respawn_success_resets_the_backoff_exponent(self):
        supervisor, clock = self._supervisor(max_restarts=10)
        supervisor.record_death("c")
        clock.advance(1.0)
        supervisor.record_death("c")  # second consecutive: 0.2s
        assert supervisor.retry_at_s("c") == pytest.approx(clock.now() + 0.2)
        supervisor.record_respawn_success("c")
        assert supervisor.state("c") == WORKER_RUNNING
        assert supervisor.restart_count("c") == 1
        clock.advance(1.0)
        supervisor.record_death("c")  # exponent reset: back to 0.1s
        assert supervisor.retry_at_s("c") == pytest.approx(clock.now() + 0.1)

    def test_quarantines_when_window_death_count_exceeds_budget(self):
        supervisor, clock = self._supervisor(max_restarts=2)
        for _ in range(2):
            assert supervisor.record_death("c") == WORKER_RESPAWNING
            supervisor.record_respawn_success("c")
            clock.advance(1.0)
        assert supervisor.record_death("c") == WORKER_QUARANTINED
        assert supervisor.state("c") == WORKER_QUARANTINED
        assert supervisor.deaths_in_window("c") == 3
        # Quarantine is terminal: further deaths never resurrect the lane.
        assert supervisor.record_death("c") == WORKER_QUARANTINED

    def test_sliding_window_forgives_old_deaths(self):
        supervisor, clock = self._supervisor(max_restarts=2, restart_window_s=10.0)
        supervisor.record_death("c")
        supervisor.record_respawn_success("c")
        clock.advance(1.0)
        supervisor.record_death("c")
        supervisor.record_respawn_success("c")
        clock.advance(20.0)  # both deaths age out of the window
        assert supervisor.record_death("c") == WORKER_RESPAWNING
        assert supervisor.deaths_in_window("c") == 1

    def test_jitter_is_deterministic_and_bounded(self):
        def retry_delays(seed):
            clock = FakeClock()
            supervisor = ShardSupervisor(
                SupervisorConfig(
                    max_restarts=100, jitter_fraction=0.25, seed=seed
                ),
                clock,
            )
            delays = []
            for _ in range(5):
                supervisor.record_death("c")
                delays.append(supervisor.retry_at_s("c") - clock.now())
                supervisor.record_respawn_success("c")
                clock.advance(0.01)
            return delays

        config = SupervisorConfig(max_restarts=100, jitter_fraction=0.25)
        assert retry_delays(0) == retry_delays(0)  # seeded: reproducible
        assert retry_delays(0) != retry_delays(1)
        for delay in retry_delays(3):
            assert 0.0 < delay <= config.max_backoff_budget_s()

    def test_jitter_is_reproducible_across_interpreter_runs(self):
        # String hashing is salted per interpreter (PYTHONHASHSEED), so a
        # hash()-seeded jitter RNG would make failing soaks unreplayable.
        script = (
            "from repro.serving.executors import ShardSupervisor, SupervisorConfig\n"
            "from repro.utils.timing import VirtualClock\n"
            "s = ShardSupervisor(SupervisorConfig(jitter_fraction=0.5), VirtualClock())\n"
            "s.record_death('a')\n"
            "print(repr(s.retry_at_s('a')))\n"
        )
        src = os.path.dirname(list(repro.__path__)[0])
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(float(run.stdout))
        assert outputs[0] == outputs[1]

    def test_unwatched_cohort_reads_as_running(self):
        supervisor, _ = self._supervisor()
        assert supervisor.state("ghost") == WORKER_RUNNING
        assert supervisor.retry_at_s("ghost") is None
        assert supervisor.restart_count("ghost") == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_restarts": -1},
            {"restart_window_s": 0.0},
            {"backoff_initial_s": -0.1},
            {"backoff_initial_s": 1.0, "backoff_max_s": 0.5},
            {"backoff_factor": 0.5},
            {"jitter_fraction": 1.5},
        ],
    )
    def test_config_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs)


class TestRemoteExecutionFlag:
    def test_backends_declare_where_classification_runs(self):
        assert SerialExecutor.remote_execution is False
        assert ThreadPoolFlushExecutor.remote_execution is False
        assert ProcessShardExecutor.remote_execution is True

    def test_scheduler_skips_local_specialization_for_remote_executors(self):
        from repro.models.lstm_model import EEGLSTM, LSTMConfig
        from repro.serving.scheduler import AsyncFleetScheduler

        class RemoteStub(SerialExecutor):
            remote_execution = True

        classifier = EEGLSTM(LSTMConfig(hidden_size=16), seed=0)
        classifier.ensure_network(8, 100)
        local = AsyncFleetScheduler(classifier)
        try:
            assert all(b.specialize for b in local._batchers.values())
        finally:
            local.shutdown()
        classifier2 = EEGLSTM(LSTMConfig(hidden_size=16), seed=0)
        classifier2.ensure_network(8, 100)
        remote = AsyncFleetScheduler(classifier2, executor=RemoteStub())
        try:
            assert all(not b.specialize for b in remote._batchers.values())
        finally:
            remote.shutdown()


class TestLockstepSpecializedFlag:
    def test_mixed_cohorts_do_not_overreport_specialization(self):
        """tick()'s record means "every classifier call hit an arena": one
        generic cohort must keep the combined flag False."""
        import numpy as np

        from repro.models.lstm_model import EEGLSTM, LSTMConfig
        from repro.serving.scheduler import AsyncFleetScheduler

        def built(seed):
            classifier = EEGLSTM(LSTMConfig(hidden_size=16), seed=seed)
            classifier.ensure_network(16, 150)
            return classifier

        fast, slow = built(0), built(1)
        slow.use_compiled_inference = False  # never specialises
        scheduler = AsyncFleetScheduler({"fast": fast, "slow": slow})
        try:
            scheduler.add_session(cohort="fast")
            scheduler.add_session(cohort="slow")
            for session in scheduler.sessions:
                session.set_action("left")
            for _ in range(4):
                scheduler.tick()
            assert all(
                not record.specialized for record in scheduler.telemetry.records
            )
            assert scheduler.telemetry.specialized_hit_rate() == 0.0
        finally:
            scheduler.shutdown()
