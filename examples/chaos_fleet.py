#!/usr/bin/env python
"""Self-healing fleet walkthrough: chaos injection, respawn, hot swap.

Runs a two-cohort micro-batching fleet on a virtual clock against the
simulated shard backend (:class:`repro.serving.chaos.SimulatedShardExecutor`
— the process shard executor's own code over an in-process loopback
transport, with faults as exact virtual-time events) and exercises the
robustness machinery end to end:

- a scripted chaos soak (:class:`~repro.serving.chaos.FaultInjector`):
  worker kills while idle and mid-flush, a pipe close and a slow-worker
  stall — every death is healed by supervised respawn with capped
  exponential backoff, no window is lost,
- a zero-downtime plan hot-swap under live traffic: the new compiled plan
  ships between flushes, so no flush ever mixes plan versions,
- a kill storm that exhausts one cohort's restart budget: the cohort is
  quarantined and degrades to an inline serial fallback while the other
  cohort keeps serving from its worker.

Everything below uses untrained compiled models — the demo exercises the
supervision plane (respawn, quarantine, swap, telemetry), not accuracy.

Run with:  python examples/chaos_fleet.py
"""

from __future__ import annotations

import numpy as np

from repro.models.cnn import CNNConfig, EEGCNN
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
from repro.serving.executors import SupervisorConfig
from repro.serving.scheduler import AsyncFleetScheduler, SchedulerConfig
from repro.utils.timing import VirtualClock

N_CHANNELS = 4
WINDOW = 50
PERIOD_S = 5.0
SOAK_S = 600.0


class DemoSession:
    """Minimal session speaking the scheduler's two-phase protocol.

    ``prepare_window`` hands the scheduler a deterministic window;
    ``apply_result`` receives the batched probabilities back.  (The real
    :class:`~repro.serving.session.ServingSession` runs a simulated EEG
    board and a control pipeline behind the same two calls.)
    """

    def __init__(self, session_id: str, seed: int) -> None:
        self.session_id = session_id
        self._rng = np.random.default_rng(seed)
        self.applied = []

    def prepare_window(self):
        return self._rng.standard_normal((N_CHANNELS, WINDOW))

    def apply_result(self, probabilities, classify_latency_s=0.0):
        self.applied.append(np.asarray(probabilities))

    def labels_emitted(self) -> int:
        return len(self.applied)


def compiled_plan(seed: int):
    model = EEGCNN(
        CNNConfig(
            n_conv_layers=2,
            filters=(6, 8),
            kernel_size=3,
            stride=1,
            pooling="max",
            hidden_units=12,
        ),
        seed=seed,
    )
    model.ensure_network(N_CHANNELS, WINDOW)
    return model.ensure_compiled()


def main() -> None:
    clock = VirtualClock()
    supervision = SupervisorConfig(
        max_restarts=3,
        restart_window_s=60.0,
        backoff_initial_s=0.05,
        backoff_max_s=0.4,
        backoff_factor=2.0,
        jitter_fraction=0.1,
        seed=7,
    )
    scheduler = AsyncFleetScheduler(
        {"left": compiled_plan(seed=0), "right": compiled_plan(seed=1)},
        scheduler_config=SchedulerConfig(deadline_s=1.0, max_batch_size=4),
        clock=clock,
        executor=SimulatedShardExecutor(supervisor_config=supervision),
    )
    for i in range(8):
        scheduler.add_session(
            DemoSession(f"s{i}", seed=i),
            cohort="left" if i % 2 == 0 else "right",
        )

    print("=== Phase 1: chaos soak (kills, a stall, a pipe close) ===")
    schedule = [
        Injection(at_s=60.0, kind=KILL, cohort="left", phase="idle"),
        Injection(at_s=140.0, kind=KILL, cohort="right", phase="mid-flush"),
        Injection(at_s=220.0, kind=STALL, cohort="left", duration_s=0.8),
        Injection(at_s=300.0, kind=PIPE_CLOSE, cohort="right"),
        Injection(at_s=380.0, kind=KILL, cohort="left", phase="idle"),
        # A kill landing while the replacement worker is still coming up:
        # the respawn itself fails and the supervisor backs off again.
        Injection(at_s=460.0, kind=KILL, cohort="right", phase="idle"),
        Injection(at_s=460.01, kind=KILL, cohort="right", phase="respawn"),
    ]
    injector = FaultInjector(schedule, clock)
    injector.arm(scheduler.executor)
    load = ChaosLoad(scheduler, clock, injector, period_s=PERIOD_S).run(SOAK_S)

    conservation = window_conservation(scheduler, load)
    print(f"  faults landed:     {len(injector.applied)} (schedule exhausted: "
          f"{injector.exhausted})")
    print(f"  worker deaths:     {scheduler.worker_deaths}, all healed "
          f"(windows admitted={conservation['admitted']}, "
          f"applied={conservation['applied']}, lost=0)")
    for cohort, delays in sorted(recovery_latencies(scheduler.telemetry).items()):
        print(f"  {cohort:>5}: recovered {len(delays)}x, "
              f"worst death-to-served gap {max(delays):.3f} s")
    for cohort, health in sorted(scheduler.fleet_health().items()):
        print(f"  {cohort:>5}: state={health['state']} "
              f"restarts={health['restarts']} plan_version={health['plan_version']}")

    print("\n=== Phase 2: zero-downtime plan hot-swap under traffic ===")
    replacement = compiled_plan(seed=9)
    for tick in range(20):
        if tick == 10:
            version = scheduler.swap_plan("right", classifier=replacement)
            print(f"  tick {tick}: swapped cohort 'right' to plan v{version} "
                  f"(between flushes — no flush mixes versions)")
        for i in range(8):
            scheduler.submit(f"s{i}")  # full batches flush inline
        clock.advance(PERIOD_S)
    scheduler.drain()
    served = [r for r in scheduler.telemetry.records
              if r.cohort == "right" and r.batch_size > 0]
    versions = sorted({r.plan_version for r in served})
    transitions = scheduler.telemetry.plan_version_transitions()["right"]
    print(f"  'right' flushes served on versions {versions}, "
          f"transition recorded at tick_index {transitions[0][0]}")
    print(f"  plan swaps: {scheduler.plan_swaps}, dropped flushes under swap: 0")

    print("\n=== Phase 3: restart budget exhausted -> quarantine + fallback ===")
    executor = scheduler.executor
    for round_index in range(4):  # 4 kills inside the 60 s restart window
        executor.inject_kill("left", phase="idle")
        for i in (0, 2, 4, 6):
            scheduler.submit(f"s{i}")
        due = executor.respawn_due_s("left")
        clock.advance_to(max(due or clock.now(), clock.now() + 1.0))
        scheduler.pump()
        clock.advance(PERIOD_S)
    scheduler.drain()
    for cohort, health in sorted(scheduler.fleet_health().items()):
        print(f"  {cohort:>5}: state={health['state']} restarts={health['restarts']}")
    degraded = [r for r in scheduler.telemetry.records
                if r.cohort == "left" and r.degraded and r.batch_size > 0]
    print(f"  'left' kept serving: {len(degraded)} flushes on the "
          f"'{degraded[-1].worker}' fallback lane after quarantine")
    print(f"  total virtual time: {clock.now():.0f} s, "
          f"total flushes: {len(scheduler.telemetry.records)}")
    scheduler.shutdown()


if __name__ == "__main__":
    main()
