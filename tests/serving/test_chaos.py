"""Chaos soaks: scripted faults against the self-healing shard fleet.

Everything here runs on the FakeClock against
:class:`repro.serving.chaos.SimulatedShardExecutor` — the process shard
executor's own submit, respawn, hot-swap and fault-injection code over an
in-process loopback transport, so deaths, backoffs and stalls are exact
virtual-time events.  That is what lets a multi-thousand-virtual-second
soak with a dozen kills run in seconds and still be compared row-for-row
against an uninjected run.

The default run is sized for tier-1; set ``REPRO_CHAOS_SOAK=1`` (the CI
``chaos-soak`` job does) for the full 10k-virtual-second, 32-session soak.
"""

import os

import numpy as np
import pytest

from repro.serving.chaos import (
    KILL,
    PIPE_CLOSE,
    STALL,
    ChaosLoad,
    FaultInjector,
    Injection,
    SimulatedShardExecutor,
    recovery_latencies,
    window_conservation,
)
from repro.serving.executors import (
    WORKER_RESPAWNING,
    WORKER_RUNNING,
    ExecutorClosedError,
    SupervisorConfig,
    WorkerDiedError,
)
from repro.serving.scheduler import AsyncFleetScheduler, SchedulerConfig
from tests.helpers import (
    ClockedStubClassifier,
    FakeClock,
    ScriptedSession,
    hard_timeout,
)

SOAK = os.environ.get("REPRO_CHAOS_SOAK") == "1"
DURATION_S = 10_000.0 if SOAK else 600.0
N_SESSIONS = 32 if SOAK else 8
PERIOD_S = 5.0
DEADLINE_S = 1.0

#: Backoff budget chosen so every recovery chain (including consecutive
#: respawn failures) completes well inside one submission period.
SUPERVISION = SupervisorConfig(
    max_restarts=3,
    restart_window_s=60.0,
    backoff_initial_s=0.05,
    backoff_max_s=0.4,
    backoff_factor=2.0,
    jitter_fraction=0.1,
    seed=7,
)


def make_fleet(clock, n_sessions=N_SESSIONS):
    """Two-cohort scheduler over the simulated shard backend."""
    scheduler = AsyncFleetScheduler(
        {
            "a": ClockedStubClassifier(peak_class=0),
            "b": ClockedStubClassifier(peak_class=1),
        },
        scheduler_config=SchedulerConfig(deadline_s=DEADLINE_S),
        clock=clock,
        executor=SimulatedShardExecutor(supervisor_config=SUPERVISION),
    )
    for i in range(n_sessions):
        scheduler.add_session(
            ScriptedSession(f"s{i}", seed=i), cohort="a" if i % 2 == 0 else "b"
        )
    return scheduler


def run_fleet(schedule, duration_s=DURATION_S, n_sessions=N_SESSIONS):
    """One full run under a fault schedule; returns (scheduler, load)."""
    clock = FakeClock()
    scheduler = make_fleet(clock, n_sessions)
    injector = FaultInjector(schedule, clock)
    injector.arm(scheduler.executor)
    load = ChaosLoad(scheduler, clock, injector, period_s=PERIOD_S).run(
        duration_s
    )
    return scheduler, load, injector


# ---------------------------------------------------------------------- #
# fault schedules (times are fractions of the run so both sizes work)
# ---------------------------------------------------------------------- #
def kill_storm(duration_s):
    """12 idle kills alternating between the two cohorts."""
    step = duration_s / 13
    return [
        Injection(
            at_s=(k + 1) * step + 0.37,
            kind=KILL,
            cohort="a" if k % 2 == 0 else "b",
            phase="idle",
        )
        for k in range(12)
    ]


def mixed_mayhem(duration_s):
    """Kills mid-flush and idle, plus pipe closes and slow-worker stalls."""
    step = duration_s / 12
    schedule = [
        Injection(
            at_s=(k + 1) * step + 0.13,
            kind=KILL,
            cohort="a" if k % 3 == 0 else "b",
            phase="mid-flush" if k % 2 == 0 else "idle",
        )
        for k in range(10)
    ]
    schedule.append(
        Injection(at_s=2.5 * step, kind=STALL, cohort="a", duration_s=0.8)
    )
    schedule.append(
        Injection(at_s=7.5 * step, kind=STALL, cohort="b", duration_s=0.5)
    )
    schedule.append(Injection(at_s=5.5 * step, kind=PIPE_CLOSE, cohort="b"))
    return schedule


def respawn_gauntlet(duration_s):
    """Idle kills, every third immediately chained with a respawn failure."""
    step = duration_s / 12
    schedule = []
    for k in range(10):
        at = (k + 1) * step
        cohort = "a" if k % 2 == 0 else "b"
        schedule.append(Injection(at_s=at, kind=KILL, cohort=cohort, phase="idle"))
        if k % 3 == 0:
            schedule.append(
                Injection(at_s=at + 0.01, kind=KILL, cohort=cohort, phase="respawn")
            )
    return schedule


def quarantine_blitz(duration_s):
    """Four rapid kills on one cohort inside the restart window: quarantine."""
    base = duration_s * 0.25
    return [
        Injection(at_s=base + 5.0 * k, kind=KILL, cohort="a", phase="idle")
        for k in range(4)
    ]


SCHEDULES = {
    "kill-storm": kill_storm,
    "mixed-mayhem": mixed_mayhem,
    "respawn-gauntlet": respawn_gauntlet,
    "quarantine-blitz": quarantine_blitz,
}

#: Fewest kill injections each schedule must land for the soak to count.
MIN_KILLS = {
    "kill-storm": 12,
    "mixed-mayhem": 10,
    "respawn-gauntlet": 10,
    "quarantine-blitz": 4,
}

_BASELINE = {}


def baseline_applied():
    """Per-session applied probabilities of the uninjected reference run."""
    key = (DURATION_S, N_SESSIONS)
    if key not in _BASELINE:
        scheduler, load, _ = run_fleet([])
        assert scheduler.worker_deaths == 0
        _BASELINE[key] = {
            s.session_id: np.stack([p for p, _ in s.applied])
            for s in scheduler.sessions
        }
    return _BASELINE[key]


class TestChaosSoak:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_soak_conserves_recovers_and_matches_uninjected(self, name):
        schedule = SCHEDULES[name](DURATION_S)
        with hard_timeout(
            540 if SOAK else 180, what=f"chaos soak ({name})"
        ):
            scheduler, load, injector = run_fleet(schedule)
            reference = baseline_applied()

        # The whole schedule landed, with enough kills to mean something.
        assert injector.exhausted
        kills = sum(1 for i in injector.applied if i.kind == KILL)
        assert kills >= MIN_KILLS[name]
        assert scheduler.worker_deaths > 0

        # Conservation: every admitted window is applied or superseded —
        # and this fleet is sized so nothing is ever superseded, which is
        # what makes the row-for-row comparison below exact.
        conservation = window_conservation(scheduler, load)
        assert conservation["holds"] == 1
        assert conservation["queued"] == 0
        assert conservation["superseded"] == 0
        assert conservation["applied"] == conservation["admitted"]

        # Bounded recovery: every death is followed by served traffic
        # within the worst-case respawn chain plus one flush deadline.
        budget = (
            SUPERVISION.max_backoff_budget_s() * (SUPERVISION.max_restarts + 1)
            + DEADLINE_S
            + PERIOD_S
        )
        latencies = recovery_latencies(scheduler.telemetry)
        assert latencies, "no recovery was ever observed"
        for cohort, delays in latencies.items():
            assert max(delays) <= budget, (cohort, max(delays))

        # Row-identical results: the recovered run classifies exactly the
        # windows the uninjected run does, in the same per-session order.
        for session in scheduler.sessions:
            got = np.stack([p for p, _ in session.applied])
            np.testing.assert_allclose(
                got, reference[session.session_id], atol=1e-7, rtol=0
            )

        assert scheduler.telemetry.worker_death_count() == scheduler.worker_deaths
        scheduler.shutdown()

    def test_quarantine_degrades_to_serial_fallback(self):
        with hard_timeout(540 if SOAK else 180, what="quarantine soak"):
            scheduler, load, injector = run_fleet(
                quarantine_blitz(DURATION_S)
            )
        health = scheduler.fleet_health()
        assert health["a"]["state"] == "degraded"
        assert health["b"]["state"] == WORKER_RUNNING
        degraded = [
            r
            for r in scheduler.telemetry.records
            if r.cohort == "a" and r.degraded and r.batch_size > 0
        ]
        assert degraded, "quarantined cohort never served from its fallback"
        assert all(r.worker.startswith("degraded:") for r in degraded)
        conservation = window_conservation(scheduler, load)
        assert conservation["holds"] == 1
        scheduler.shutdown()


class TestInjectionValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown injection kind"):
            Injection(at_s=1.0, kind="meteor", cohort="a")

    def test_unknown_kill_phase_rejected(self):
        with pytest.raises(ValueError, match="unknown kill phase"):
            Injection(at_s=1.0, kind=KILL, cohort="a", phase="sideways")

    def test_stall_needs_positive_duration(self):
        with pytest.raises(ValueError, match="positive duration"):
            Injection(at_s=1.0, kind=STALL, cohort="a")


class TestFaultInjector:
    class _Recorder:
        def __init__(self):
            self.calls = []

        def inject_kill(self, cohort, phase="idle"):
            self.calls.append((KILL, cohort, phase))

        def inject_pipe_close(self, cohort):
            self.calls.append((PIPE_CLOSE, cohort))

        def inject_stall(self, cohort, duration_s):
            self.calls.append((STALL, cohort, duration_s))

    def test_poll_requires_arming(self):
        injector = FaultInjector(
            [Injection(at_s=0.0, kind=KILL, cohort="a")], FakeClock()
        )
        with pytest.raises(RuntimeError, match="not armed"):
            injector.poll()

    def test_arm_rejects_executors_without_the_chaos_surface(self):
        injector = FaultInjector([], FakeClock())
        with pytest.raises(TypeError, match="chaos surface"):
            injector.arm(object())

    def test_fires_in_time_order_exactly_once(self):
        clock = FakeClock()
        schedule = [
            Injection(at_s=2.0, kind=PIPE_CLOSE, cohort="b"),
            Injection(at_s=1.0, kind=KILL, cohort="a", phase="mid-flush"),
            Injection(at_s=3.0, kind=STALL, cohort="a", duration_s=0.5),
        ]
        injector = FaultInjector(schedule, clock)
        recorder = self._Recorder()
        injector.arm(recorder)
        assert injector.next_at_s() == 1.0
        assert injector.poll() == []  # nothing due at t=0
        clock.advance(2.0)
        fired = injector.poll()
        assert [i.kind for i in fired] == [KILL, PIPE_CLOSE]
        assert recorder.calls == [(KILL, "a", "mid-flush"), (PIPE_CLOSE, "b")]
        assert injector.poll() == []  # no double fire
        clock.advance(1.0)
        injector.poll()
        assert injector.exhausted
        assert injector.next_at_s() is None
        assert len(injector.applied) == 3


class TestSimulatedExecutorContract:
    """The simulator is the process executor over a loopback transport."""

    def _bound(self):
        clock = FakeClock()
        executor = SimulatedShardExecutor(supervisor_config=SUPERVISION)
        executor.bind({"default": ClockedStubClassifier()}, clock)
        return executor, clock

    def _prepared(self):
        from repro.serving.batcher import PreparedBatch

        rng = np.random.default_rng(0)
        return PreparedBatch(
            session_ids=["x"], windows=rng.standard_normal((1, 2, 4)), chunk_size=8
        )

    def test_simulator_overrides_only_the_transport(self):
        # Everything else is ProcessShardExecutor's own code: no twin of
        # its submit/respawn/swap/fault paths may grow back here.
        defined = {
            name for name in vars(SimulatedShardExecutor) if not name.startswith("__")
        }
        assert defined == {"_payload_for", "_spawn_process"}

    def test_idle_kill_respawns_after_backoff(self):
        executor, clock = self._bound()
        prepared = self._prepared()
        executor.inject_kill("default", phase="idle")
        with pytest.raises(WorkerDiedError):
            executor.submit_flush("default", prepared)
        assert executor.worker_state("default") == WORKER_RESPAWNING
        retry_at = executor.respawn_due_s("default")
        assert retry_at is not None
        clock.advance_to(retry_at)
        execution = executor.submit_flush("default", prepared).result()
        assert execution.worker == "sim:default"
        assert executor.worker_state("default") == WORKER_RUNNING
        assert executor.restart_count("default") == 1

    def test_mid_flush_kill_carries_the_pending_ticket(self):
        executor, clock = self._bound()
        executor.inject_kill("default", phase="mid-flush")
        ticket = executor.submit_flush("default", self._prepared())
        with pytest.raises(WorkerDiedError) as err:
            ticket.result()
        assert err.value.pending == (ticket,)
        assert executor.worker_state("default") == WORKER_RESPAWNING

    def test_pipe_close_fails_like_a_real_pipe(self):
        executor, clock = self._bound()
        executor.inject_pipe_close("default")
        with pytest.raises(WorkerDiedError, match="pipe closed"):
            executor.submit_flush("default", self._prepared())
        assert executor.worker_state("default") == WORKER_RESPAWNING

    def test_stall_advances_virtual_time_by_the_scripted_amount(self):
        executor, clock = self._bound()
        executor.inject_stall("default", 1.5)
        before = clock.now()
        executor.submit_flush("default", self._prepared()).result()
        assert clock.now() - before == pytest.approx(1.5)

    def test_shutdown_is_idempotent_and_terminal(self):
        executor, clock = self._bound()
        executor.shutdown()
        executor.shutdown()
        with pytest.raises(ExecutorClosedError):
            executor.submit_flush("default", self._prepared())
        with pytest.raises(ExecutorClosedError):
            executor.bind({"default": ClockedStubClassifier()}, clock)
        with pytest.raises(ExecutorClosedError):
            executor.swap_plan("default", ClockedStubClassifier())


class TestHotSwap:
    def _fleet(self, clock, n_sessions=4, max_batch_size=4):
        scheduler = AsyncFleetScheduler(
            {"default": ClockedStubClassifier(peak_class=0)},
            scheduler_config=SchedulerConfig(
                deadline_s=DEADLINE_S, max_batch_size=max_batch_size
            ),
            clock=clock,
            executor=SimulatedShardExecutor(supervisor_config=SUPERVISION),
        )
        for i in range(n_sessions):
            scheduler.add_session(ScriptedSession(f"s{i}", seed=i))
        return scheduler

    def test_swap_under_traffic_drops_nothing_and_never_mixes_versions(self):
        clock = FakeClock()
        scheduler = self._fleet(clock)
        for tick in range(40):
            if tick == 20:
                assert scheduler.swap_plan(
                    "default", classifier=ClockedStubClassifier(peak_class=2)
                ) == 2
            for i in range(4):  # batch fills: each round flushes inline
                scheduler.submit(f"s{i}")
            clock.advance(1.0)
        scheduler.drain()

        # Zero dropped or requeued flushes under the swap.
        assert scheduler.worker_deaths == 0
        assert all(
            r.flush_reason != "worker-died"
            for r in scheduler.telemetry.records
        )
        for session in scheduler.sessions:
            assert session.labels_emitted() == 40

        # Every flush served entirely on one plan, versions monotonic.
        served = [
            r
            for r in scheduler.telemetry.records
            if r.cohort and r.batch_size > 0
        ]
        versions = [r.plan_version for r in served]
        assert set(versions) == {1, 2}
        assert versions == sorted(versions)

        # Telemetry pins the transition tick.
        transitions = scheduler.telemetry.plan_version_transitions()
        assert list(transitions) == ["default"]
        ((tick_index, old, new),) = transitions["default"]
        assert (old, new) == (1, 2)
        first_v2 = next(r for r in served if r.plan_version == 2)
        assert tick_index == first_v2.tick_index

        assert scheduler.plan_swaps == 1
        assert scheduler.plan_version("default") == 2
        assert scheduler.executor.acked_plan_version("default") == 2
        scheduler.shutdown()

    def test_swap_while_respawning_serves_new_plan_after_recovery(self):
        clock = FakeClock()
        scheduler = self._fleet(clock, max_batch_size=32)
        executor = scheduler.executor
        scheduler.submit("s0")
        executor.inject_kill("default", phase="idle")
        clock.advance(DEADLINE_S)
        scheduler.pump()  # death discovered at the flush; healed + requeued
        assert scheduler.worker_deaths == 1
        assert executor.worker_state("default") == WORKER_RESPAWNING

        version = scheduler.swap_plan(
            "default", classifier=ClockedStubClassifier(peak_class=2)
        )
        assert version == 2
        assert executor.plan_version("default") == 2
        assert executor.acked_plan_version("default") == 1  # not yet respawned

        clock.advance_to(executor.respawn_due_s("default"))
        events = scheduler.pump()
        assert [e.reason for e in events] == ["deadline"]
        record = scheduler.telemetry.records[-1]
        assert record.plan_version == 2  # respawn image was the new plan
        assert executor.acked_plan_version("default") == 2
        scheduler.shutdown()
