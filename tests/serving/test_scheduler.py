"""Deadline scheduler, admission control and router, on a virtual clock.

Every test here injects a :class:`tests.helpers.FakeClock`: latencies are
*simulated* (the stub classifier advances the clock), so assertions about
deadlines, queue waits and p95 budgets are exact rather than flaky
wall-clock approximations.
"""

import numpy as np
import pytest

from repro.core.config import CognitiveArmConfig
from repro.serving.scheduler import (
    SUBMIT_FLUSHED,
    SUBMIT_QUEUED,
    SUBMIT_SHED,
    SUBMIT_STALLED,
    AdmissionController,
    AsyncFleetScheduler,
    ModelRouter,
    SchedulerConfig,
)
from repro.serving.server import FleetServer
from repro.signals.synthetic import (
    ACTION_IDLE,
    ACTION_LEFT,
    ACTION_RIGHT,
    ParticipantProfile,
)
from tests.helpers import (
    ClockedStubClassifier,
    DyingExecutor,
    FakeClock,
    ScriptedSession,
    SimulatedLoad,
)

DEADLINE_S = 0.015


def make_scheduler(
    clock,
    n_sessions=4,
    classifier=None,
    scheduler_config=None,
    stall_every=None,
):
    """Scheduler over ScriptedSessions with a clock-driven stub classifier."""
    classifier = classifier or ClockedStubClassifier(clock)
    scheduler_config = scheduler_config or SchedulerConfig(deadline_s=DEADLINE_S)
    scheduler = AsyncFleetScheduler(
        classifier, scheduler_config=scheduler_config, clock=clock
    )
    for i in range(n_sessions):
        scheduler.add_session(
            ScriptedSession(f"s{i}", stall_every=stall_every, seed=i)
        )
    return scheduler


class TestSchedulerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": 0.0},
            {"max_batch_size": 0},
            {"latency_budget_s": -0.1},
            {"admission_window": 0},
            {"recovery_fraction": 0.0},
            {"shed_ratio": 1.0},
            {"shed_ratio": 0.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            SchedulerConfig(**kwargs)


class TestModelRouter:
    def test_single_classifier_becomes_default_cohort(self):
        classifier = ClockedStubClassifier()
        router = ModelRouter(classifier)
        assert router.cohorts == ("default",)
        assert router.resolve(None) == "default"
        assert router.classifier_for("default") is classifier

    def test_dict_preserves_cohort_order_and_default(self):
        a, b = ClockedStubClassifier(), ClockedStubClassifier()
        router = ModelRouter({"adults": a, "kids": b})
        assert router.cohorts == ("adults", "kids")
        assert router.default_cohort == "adults"
        assert router.resolve("kids") == "kids"

    def test_unknown_cohort_raises(self):
        router = ModelRouter({"adults": ClockedStubClassifier()})
        with pytest.raises(KeyError, match="unknown cohort"):
            router.classifier_for("ghosts")
        with pytest.raises(KeyError):
            ModelRouter({"a": ClockedStubClassifier()}, default_cohort="b")


class TestAdmissionController:
    def test_disabled_controller_admits_everything(self):
        controller = AdmissionController(budget_s=None)
        for latency in (1.0, 2.0, 3.0):
            controller.observe(latency)
        assert not controller.shedding
        assert all(controller.admit() for _ in range(100))

    def test_activates_exactly_when_p95_exceeds_budget(self):
        controller = AdmissionController(budget_s=0.010, window=8)
        controller.observe(0.010)  # p95 == budget: not over, still admitting
        assert not controller.shedding
        controller.observe(0.011)  # p95 now above budget
        assert controller.shedding
        assert controller.activations == 1

    def test_recovers_at_the_hysteresis_threshold(self):
        controller = AdmissionController(
            budget_s=0.010, window=4, recovery_fraction=0.5
        )
        controller.observe(0.020)
        assert controller.shedding
        controller.observe(0.004)  # p95 of [0.020, 0.004] still high
        assert controller.shedding
        for _ in range(3):  # flush 0.020 out of the sliding window
            controller.observe(0.004)
        assert controller.observed_p95() <= 0.005
        assert not controller.shedding

    def test_shed_ratio_sheds_the_configured_fraction(self):
        controller = AdmissionController(budget_s=0.010, shed_ratio=0.5)
        controller.observe(0.020)
        decisions = [controller.admit() for _ in range(100)]
        assert decisions.count(False) == 50  # every other submission shed
        assert controller.shed_count == 50

    def test_saturated_window_exactly_at_budget_never_triggers(self):
        # The trigger is strictly greater-than: a fleet running *at* its
        # budget is healthy, and a full window of exactly-at-budget samples
        # must never flip the controller.
        controller = AdmissionController(budget_s=0.010, window=8)
        for _ in range(8):
            controller.observe(0.010)
        assert controller.observed_p95() == pytest.approx(0.010)
        assert not controller.shedding
        assert controller.activations == 0
        assert all(controller.admit() for _ in range(50))

    def test_recovery_exactly_at_fraction_of_budget_recovers(self):
        # Recovery is inclusive: p95 == recovery_fraction * budget flips
        # the controller back to admitting.
        controller = AdmissionController(
            budget_s=0.010, window=4, recovery_fraction=0.5
        )
        controller.observe(0.020)
        assert controller.shedding
        for _ in range(4):  # flush the spike; land exactly on the threshold
            controller.observe(0.005)
        assert controller.observed_p95() == pytest.approx(0.005)
        assert not controller.shedding

    def test_lag_holds_shedding_after_latency_recovers(self):
        # Both signals share one state machine: a latency activation while
        # lag is also over the budget is a single activation, and recovery
        # needs *every* enabled signal back under its hysteresis threshold.
        controller = AdmissionController(
            budget_s=0.010, window=4, recovery_fraction=0.5, lag_budget_s=1.0
        )
        controller.observe(0.020)
        assert controller.shedding
        controller.observe_lag(2.0)  # lag joins in; no second activation
        assert controller.activations == 1
        for _ in range(4):  # latency fully recovers...
            controller.observe(0.004)
        assert controller.observed_p95() <= 0.005
        assert controller.shedding  # ...but lag still pins the state
        controller.observe_lag(0.5)  # exactly recovery_fraction * lag budget
        assert not controller.shedding


class TestDeadlineFlush:
    def test_due_time_is_arrival_plus_deadline(self):
        clock = FakeClock()
        scheduler = make_scheduler(clock, n_sessions=2)
        assert scheduler.next_flush_due_s() is None
        clock.advance_to(1.0)
        assert scheduler.submit("s0") == SUBMIT_QUEUED
        assert scheduler.next_flush_due_s() == pytest.approx(1.0 + DEADLINE_S)

    def test_pump_before_deadline_is_a_no_op(self):
        clock = FakeClock()
        scheduler = make_scheduler(clock)
        scheduler.submit("s0")
        clock.advance(DEADLINE_S / 2)
        assert scheduler.pump() == []
        assert scheduler.next_flush_due_s() is not None

    def test_stalled_submission_is_counted_not_queued(self):
        clock = FakeClock()
        scheduler = make_scheduler(clock, n_sessions=1, stall_every=1)
        assert scheduler.submit("s0") == SUBMIT_STALLED
        assert scheduler.next_flush_due_s() is None
        assert scheduler.drain() == []  # nothing pending to flush
        # ... but the stall still reaches telemetry, on an empty record that
        # the latency percentiles ignore.
        (record,) = scheduler.telemetry.records
        assert record.batch_size == 0
        assert record.stalled_sessions == 1
        assert scheduler.telemetry.latency_percentiles()["p50"] == 0.0

    def test_lockstep_tick_refuses_to_interleave_with_queued_submits(self):
        clock = FakeClock()
        scheduler = make_scheduler(clock, n_sessions=2)
        scheduler.submit("s0")
        with pytest.raises(RuntimeError, match="drain"):
            scheduler.tick()  # would apply s0's queued window out of order
        scheduler.drain()
        assert scheduler.tick()  # clean queues: lock-step mode works again

    def test_pump_horizon_flushes_early_for_busy_drivers(self):
        clock = FakeClock()
        scheduler = make_scheduler(clock)
        scheduler.submit("s0")
        clock.advance(0.010)  # 5 ms of slack left on the deadline
        assert scheduler.pump() == []  # not due yet
        with pytest.raises(ValueError):
            scheduler.pump(horizon_s=-1.0)
        (event,) = scheduler.pump(horizon_s=0.006)  # driver about to be busy
        assert event.reason == "deadline"
        assert event.deadline_violations == 0
        assert event.max_queue_wait_s == pytest.approx(0.010)  # early, not late

    def test_fresh_window_supersedes_stale_queued_window(self):
        # A session outrunning the flush cadence must not crash the flush
        # (MicroBatcher rejects duplicate ids) — the stale window is dropped.
        clock = FakeClock()
        scheduler = make_scheduler(clock, n_sessions=2)
        scheduler.submit("s0")
        clock.advance(0.002)
        scheduler.submit("s1")
        clock.advance(0.002)
        assert scheduler.submit("s0") == SUBMIT_QUEUED  # resubmit, no flush yet
        assert scheduler.superseded_by_session["s0"] == 1
        (event,) = scheduler.drain()
        assert event.batch_size == 2  # one window per session, fresh s0 kept
        assert set(event.ticks) == {"s0", "s1"}
        # FIFO is preserved: the oldest *remaining* window is now s1's.
        assert event.max_queue_wait_s == pytest.approx(0.002)
        assert scheduler.get_session("s0").labels_emitted() == 1

    def test_departed_session_rows_are_dropped_safely(self):
        clock = FakeClock()
        scheduler = make_scheduler(clock, n_sessions=2)
        scheduler.submit("s0")
        scheduler.submit("s1")
        removed = scheduler.remove_session("s1")
        (event,) = scheduler.drain()
        assert set(event.ticks) == {"s0"}
        assert removed.labels_emitted() == 0


class TestModelRouting:
    def test_each_cohort_served_by_its_own_plan(self):
        clock = FakeClock()
        adults = ClockedStubClassifier(clock, peak_class=0)
        kids = ClockedStubClassifier(clock, peak_class=2)
        scheduler = AsyncFleetScheduler(
            {"adults": adults, "kids": kids},
            scheduler_config=SchedulerConfig(deadline_s=DEADLINE_S),
            clock=clock,
        )
        sessions = {}
        for i in range(4):
            cohort = "adults" if i % 2 == 0 else "kids"
            sessions[f"s{i}"] = scheduler.add_session(
                ScriptedSession(f"s{i}", seed=i), cohort=cohort
            )
        for sid in sessions:
            scheduler.submit(sid)
        events = scheduler.drain()
        assert {e.cohort for e in events} == {"adults", "kids"}
        # Each cohort's classifier saw exactly its own two windows ...
        assert adults.batch_sizes == [2]
        assert kids.batch_sizes == [2]
        # ... and each session's probabilities peak at its cohort's class.
        for sid, session in sessions.items():
            (probs, _latency) = session.applied[0]
            expected_peak = 0 if scheduler.cohort_of(sid) == "adults" else 2
            assert int(np.argmax(probs)) == expected_peak

    def test_unknown_cohort_rejected_at_attach(self):
        scheduler = AsyncFleetScheduler(ClockedStubClassifier(), clock=FakeClock())
        with pytest.raises(KeyError):
            scheduler.add_session(ScriptedSession("s0"), cohort="ghosts")


class TestNominalLoadProperties:
    """Acceptance: 32 sessions, 15 ms deadline, no violations, no drops."""

    def _run(self, jitter_s=0.0, seconds=30.0):
        clock = FakeClock()
        classifier = ClockedStubClassifier(
            clock, base_latency_s=0.001, per_row_s=0.0001
        )
        scheduler = make_scheduler(
            clock,
            n_sessions=32,
            classifier=classifier,
            scheduler_config=SchedulerConfig(deadline_s=DEADLINE_S, max_batch_size=32),
        )
        load = SimulatedLoad(scheduler, clock, period_s=1 / 15.0, jitter_s=jitter_s)
        load.run(seconds)
        return scheduler, load

    @pytest.mark.parametrize("jitter_s", [0.0, 0.02])
    def test_no_window_waits_past_its_deadline(self, jitter_s):
        scheduler, load = self._run(jitter_s=jitter_s)
        assert load.submissions > 32 * 14 * 15  # the fleet really ran
        assert scheduler.telemetry.total_deadline_violations == 0
        assert all(e.deadline_violations == 0 for e in load.flush_events)
        assert scheduler.telemetry.max_queue_wait_s() <= DEADLINE_S + 1e-9

    def test_zero_dropped_results(self):
        scheduler, load = self._run()
        accepted = load.outcomes[SUBMIT_QUEUED] + load.outcomes[SUBMIT_FLUSHED]
        applied = sum(len(s.applied) for s in scheduler.sessions)
        assert load.outcomes[SUBMIT_SHED] == 0
        # Precondition for the accounting below: the 66 ms label period far
        # exceeds the 15 ms deadline, so no window is ever superseded.
        assert sum(scheduler.superseded_by_session.values()) == 0
        assert applied == accepted  # every admitted window produced a result
        assert scheduler.telemetry.total_labels == accepted

    def test_latency_accounting_is_exact_under_the_fake_clock(self):
        scheduler, load = self._run()
        for record in scheduler.telemetry.records:
            if record.batch_size:
                expected = 0.001 + 0.0001 * record.batch_size
                assert record.batch_latency_s == pytest.approx(expected)


class TestOverloadShedding:
    """Acceptance: overload sheds (never blocks) and telemetry reports it."""

    def _overloaded(self):
        clock = FakeClock()
        # 32 sessions at 15 Hz with 2 ms/row: the unshedded service rate is
        # below the arrival rate, so flush latencies grow past the 20 ms p95
        # budget and the controller must start shedding.
        classifier = ClockedStubClassifier(clock, base_latency_s=0.002, per_row_s=0.002)
        config = SchedulerConfig(
            deadline_s=DEADLINE_S,
            max_batch_size=32,
            latency_budget_s=0.020,
            admission_window=16,
            recovery_fraction=0.5,
            shed_ratio=0.5,
        )
        scheduler = make_scheduler(
            clock, n_sessions=32, classifier=classifier, scheduler_config=config
        )
        return clock, scheduler

    def test_sheds_with_telemetry_and_never_blocks(self):
        clock, scheduler = self._overloaded()
        # Jitter breaks the parity lock between a perfectly periodic fleet
        # and the 1-in-2 shed accumulator, so degradation spreads fairly.
        load = SimulatedLoad(clock=clock, scheduler=scheduler, period_s=1 / 15.0, jitter_s=0.01)
        load.run(30.0)
        assert scheduler.admission.activations >= 1
        assert load.outcomes[SUBMIT_SHED] > 0
        assert scheduler.telemetry.total_shed == load.outcomes[SUBMIT_SHED]
        assert scheduler.report().fleet["shed_windows"] == load.outcomes[SUBMIT_SHED]
        # Shedding degrades sessions, it does not drop admitted work:
        accepted = load.outcomes[SUBMIT_QUEUED] + load.outcomes[SUBMIT_FLUSHED]
        assert sum(len(s.applied) for s in scheduler.sessions) == accepted
        # Degraded sessions keep being served between sheds.
        assert all(len(s.applied) > 0 for s in scheduler.sessions)

    def test_recovers_once_the_overload_clears(self):
        clock, scheduler = self._overloaded()
        classifier = scheduler.router.classifier_for("default")
        SimulatedLoad(scheduler, clock, period_s=1 / 15.0).run(20.0)
        assert scheduler.admission.shedding
        classifier.per_row_s = 0.00001  # the backend recovers ...
        classifier.base_latency_s = 0.0001
        SimulatedLoad(scheduler, clock, period_s=1 / 15.0).run(20.0)
        assert not scheduler.admission.shedding  # ... and admission reopens
        late = [
            r
            for r in scheduler.telemetry.records[-10:]
            if r.batch_size and r.shed_sessions == 0
        ]
        assert late  # tail of the run is served unshedded


class TestLockStepEquivalence:
    """Scheduler in lock-step mode == FleetServer.tick, bit for bit."""

    def _sessions_kwargs(self):
        return [
            dict(
                session_id=f"eq-{seed}",
                profile=ParticipantProfile(participant_id=f"EQ{seed}", seed=seed),
                stall_ticks={3, 4} if seed == 1 else None,
            )
            for seed in range(3)
        ]

    def test_bit_for_bit_against_fleet_server(self, serving_config):
        actions = {0: ACTION_RIGHT, 6: ACTION_LEFT, 12: ACTION_RIGHT}

        server_clock = FakeClock()
        server = FleetServer(
            ClockedStubClassifier(server_clock, base_latency_s=0.003, per_row_s=0.001),
            serving_config,
            clock=server_clock,
        )
        sched_clock = FakeClock()
        scheduler = AsyncFleetScheduler(
            ClockedStubClassifier(sched_clock, base_latency_s=0.003, per_row_s=0.001),
            serving_config,
            clock=sched_clock,
        )
        for kwargs in self._sessions_kwargs():
            server.add_session(**kwargs)
            scheduler.add_session(**kwargs)

        for tick_index in range(18):
            for fleet in (server.sessions, scheduler.sessions):
                if tick_index in actions:
                    for session in fleet:
                        session.set_action(actions[tick_index])
            server_ticks = server.tick()
            scheduler_ticks = scheduler.tick()
            assert set(server_ticks) == set(scheduler_ticks)
            for session_id, reference in server_ticks.items():
                assert scheduler_ticks[session_id] == reference  # dataclass eq

        assert scheduler.telemetry.records == server.telemetry.records
        server_report, scheduler_report = server.report(), scheduler.report()
        assert scheduler_report.fleet == server_report.fleet
        assert scheduler_report.sessions == server_report.sessions



class TestNonFiniteProbabilities:
    """A NaN probability row fails safe to idle and never reaches the arm."""

    def test_nan_row_idles_its_session_and_spares_its_neighbours(
        self, serving_config
    ):
        class NaNRowClassifier(ClockedStubClassifier):
            def predict_proba(self, windows):
                probabilities = super().predict_proba(windows)
                probabilities[1] = np.nan
                return probabilities

        scheduler = AsyncFleetScheduler(
            NaNRowClassifier(peak_class=1), serving_config, clock=FakeClock()
        )
        sessions = [
            scheduler.add_session(
                profile=ParticipantProfile(participant_id=f"N{seed}", seed=seed)
            )
            for seed in range(3)
        ]
        before = [s.controller.joint_state() for s in sessions]
        ticks = scheduler.tick()
        poisoned = sessions[1]
        tick = ticks[poisoned.session_id]
        assert tick.action == tick.smoothed_action == ACTION_IDLE
        assert tick.confidence == 0.0
        assert poisoned.controller.action_log == []
        assert poisoned.controller.joint_state() == before[1]
        for index in (0, 2):
            neighbour = sessions[index]
            assert ticks[neighbour.session_id].action == ACTION_RIGHT
            assert neighbour.controller.action_log
            assert neighbour.controller.joint_state() != before[index]

class TestEmptyFlushLatencySkew:
    """Satellite fix: all-stalled ticks must not drag p50 toward zero."""

    def test_all_stalled_ticks_excluded_from_percentiles(self):
        clock = FakeClock()
        classifier = ClockedStubClassifier(clock, base_latency_s=0.010)
        scheduler = AsyncFleetScheduler(classifier, clock=clock)
        scheduler.add_session(ScriptedSession("s0", stall_every=2))
        for _ in range(40):
            scheduler.tick()  # every other tick has an empty batch
        percentiles = scheduler.telemetry.latency_percentiles()
        assert percentiles["p50"] == pytest.approx(0.010)
        # Stall accounting still sees the empty ticks.
        assert scheduler.telemetry.stall_rate() == pytest.approx(0.5)


class TestTickPrepareLatency:
    """The lock-step tick record reports its prepare stage."""

    class _SlowPrepare(ScriptedSession):
        def __init__(self, session_id, clock, seed=0):
            super().__init__(session_id, seed=seed)
            self.clock = clock

        def prepare_window(self):
            self.clock.advance(0.005)
            return super().prepare_window()

    def _scheduler(self, clock, n_sessions):
        scheduler = AsyncFleetScheduler(
            ClockedStubClassifier(clock, base_latency_s=0.002),
            scheduler_config=SchedulerConfig(deadline_s=DEADLINE_S),
            clock=clock,
        )
        for i in range(n_sessions):
            scheduler.add_session(self._SlowPrepare(f"s{i}", clock, seed=i))
        return scheduler

    def test_tick_record_carries_the_prepare_loop_time(self):
        clock = FakeClock()
        scheduler = self._scheduler(clock, n_sessions=3)
        scheduler.tick()
        (record,) = scheduler.telemetry.records
        assert record.prepare_latency_s == pytest.approx(0.005 * 3)
        assert record.batch_latency_s == pytest.approx(0.002)
        summary = scheduler.telemetry.summary()
        assert summary["prepare_latency_p95_s"] == pytest.approx(0.015)

    def test_async_flush_records_report_zero(self):
        clock = FakeClock()
        scheduler = self._scheduler(clock, n_sessions=2)
        scheduler.submit("s0")
        scheduler.submit("s1")
        scheduler.drain()
        assert scheduler.telemetry.records
        assert all(r.prepare_latency_s == 0.0 for r in scheduler.telemetry.records)
        assert scheduler.telemetry.summary()["prepare_latency_p95_s"] == 0.0


class TestStreamLagAdmission:
    """Satellite: upstream stream lag feeds the admission controller."""

    def test_lag_budget_alone_enables_the_controller(self):
        controller = AdmissionController(budget_s=None, lag_budget_s=0.2)
        assert controller.enabled

    def test_lag_budget_activates_and_recovers_with_hysteresis(self):
        controller = AdmissionController(
            budget_s=None, lag_budget_s=0.2, recovery_fraction=0.5
        )
        controller.observe_lag(0.15)
        assert not controller.shedding
        controller.observe_lag(0.25)
        assert controller.shedding
        assert controller.activations == 1
        controller.observe_lag(0.15)  # below budget but above 0.5 * budget
        assert controller.shedding
        controller.observe_lag(0.05)
        assert not controller.shedding

    def test_observe_carries_lag_alongside_latency(self):
        controller = AdmissionController(budget_s=1.0, lag_budget_s=0.2)
        controller.observe(0.001, stream_lag_s=0.5)
        assert controller.shedding  # healthy latency, lag tripped it
        assert controller.last_stream_lag_s == 0.5

    def test_both_budgets_must_recover_before_admission_resumes(self):
        controller = AdmissionController(
            budget_s=0.010, window=4, lag_budget_s=0.2, recovery_fraction=0.5
        )
        controller.observe(0.020, stream_lag_s=0.5)
        assert controller.shedding
        for _ in range(4):  # latency recovers, lag still over budget
            controller.observe(0.001)
        assert controller.shedding
        controller.observe_lag(0.05)
        assert not controller.shedding


class TestWorkerDeathRequeue:
    """Satellite: a dead shard worker requeues its flush instead of
    poisoning the cohort."""

    def test_error_carries_cohort_and_pending_tickets(self):
        from repro.serving.executors import WorkerDiedError

        ticket = object()
        error = WorkerDiedError("adults", pending=(ticket,), detail="exitcode -9")
        assert error.cohort == "adults"
        assert error.pending == (ticket,)
        assert "adults" in str(error) and "1 flush(es)" in str(error)
        assert "exitcode -9" in str(error)

    def test_dead_worker_flush_requeues_and_recovers(self):
        clock = FakeClock()
        executor = DyingExecutor()
        classifier = ClockedStubClassifier(clock)
        scheduler = AsyncFleetScheduler(
            classifier,
            scheduler_config=SchedulerConfig(deadline_s=DEADLINE_S),
            clock=clock,
            executor=executor,
        )
        for i in range(2):
            scheduler.add_session(ScriptedSession(f"s{i}", seed=i))
        for session in scheduler.sessions:
            assert scheduler.submit(session.session_id) == SUBMIT_QUEUED
        clock.advance(DEADLINE_S)
        from repro.serving.executors import WorkerDiedError

        with pytest.raises(WorkerDiedError):
            scheduler.pump()
        # Every observed death is counted, healed or not.
        assert scheduler.worker_deaths == 1
        # Nothing was lost: the windows are queued again with deadlines
        # re-derived from the failed flush's start.
        due = scheduler.next_flush_due_s()
        assert due == pytest.approx(2 * DEADLINE_S)
        executor.fail_next = False
        clock.advance_to(due)
        (event,) = scheduler.pump()
        assert event.batch_size == 2
        applied = sum(len(s.applied) for s in scheduler.sessions)
        assert applied == 2

    def test_requeue_respects_fresher_windows_and_departures(self):
        clock = FakeClock()
        executor = DyingExecutor()
        scheduler = AsyncFleetScheduler(
            ClockedStubClassifier(clock),
            scheduler_config=SchedulerConfig(deadline_s=DEADLINE_S),
            clock=clock,
            executor=executor,
        )
        for i in range(3):
            scheduler.add_session(ScriptedSession(f"s{i}", seed=i))
        for session in scheduler.sessions:
            scheduler.submit(session.session_id)
        clock.advance(DEADLINE_S)
        from repro.serving.executors import WorkerDiedError

        with pytest.raises(WorkerDiedError):
            scheduler.pump()
        # s0 departs while its window waits to be requeued-and-served,
        # s1 queues a fresher window: the stale copy is superseded.
        scheduler.remove_session("s0")
        assert scheduler.submit("s1") == SUBMIT_QUEUED
        executor.fail_next = False
        scheduler.drain()
        assert scheduler.superseded_by_session["s1"] == 1
        assert len(scheduler.get_session("s1").applied) == 1
        assert len(scheduler.get_session("s2").applied) == 1
