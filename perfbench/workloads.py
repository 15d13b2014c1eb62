"""The three workloads: set-up, timed driving and the program's own counts.

Each workload builds its system only through public entry points
(``AsyncFleetScheduler``, ``StreamDuplex``, ``ServingSession``, the
classifiers) and runs it on one thread with ``SerialExecutor``.  Load
generation (:mod:`perfbench.load`) happens before any clock starts; set-up
(classifier build, plan compile and autotune, scheduler or duplex
construction, session attach and warm-up) is what ``setup_s`` times.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.compression.pruning import prune_classifier
from repro.core.config import CognitiveArmConfig
from repro.models.lstm_model import EEGLSTM, LSTMConfig
from repro.nn import autotune
from repro.serving.executors import SerialExecutor
from repro.serving.scheduler import AsyncFleetScheduler, ModelRouter
from repro.serving.session import ServingSession
from repro.signals.filters import PreprocessingPipeline
from repro.streams import StreamDuplex
from repro.streams.topology import StreamTopology

from perfbench import load
from perfbench.checks import WindowLedger, filter_span
from perfbench.hostspeed import HostSpeed, NormalizedClock

#: Label rate the paper promises each user (one label every 66.7 ms).
LABEL_RATE_HZ = 15.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Lock-step ticks (or rounds) run at the end of set-up, so plan arenas are
#: bound and caches warm before the clock starts.
WARM_TICKS = 2
#: Seconds of EEG synthesised per session for the closed-loop fleet; the
#: replay wraps around if a run consumes more.
FLEET_REPLAY_S = 30.0
#: The open loop samples the reference kernel only when it would otherwise
#: wait at least this long (normalised seconds).
CALIBRATE_MIN_IDLE_S = 0.015
#: The open loop wakes this long before a flush is due and pumps with this
#: horizon, so sleep overshoot does not start every deadline flush late.
PUMP_LEAD_S = 0.001
#: Cap on each cohort stream's retained entries.  With no cap the log keeps
#: every window, so its memory would grow with throughput and a faster
#: program would read as a memory regression; with a fixed cap the retained
#: working set is the same on every commit and shows in ``peak_rss_mb``.
STREAM_MAXLEN = 256
#: Filtered windows in the stream workload's bank.
BANK_WINDOWS = 256


def bench_config() -> CognitiveArmConfig:
    # Untrained weights rarely reach the default 0.5 confidence on three
    # classes; 0.34 lets them actuate the arm, so the apply path is exercised.
    return CognitiveArmConfig(confidence_threshold=0.34)


def lstm(hidden: int, seed: int, config: CognitiveArmConfig) -> EEGLSTM:
    classifier = EEGLSTM(LSTMConfig(hidden_size=hidden), seed=seed)
    classifier.ensure_network(config.n_channels, config.window_size)
    return classifier


class BenchSession(ServingSession):
    """A ``ServingSession`` whose board replays pre-synthesised EEG and which
    reports every prepared window and applied label to the ledger."""

    def __init__(self, session_id, profile, config, ledger, samples, cohort="default"):
        super().__init__(session_id, profile=profile, config=config, clock=ledger.clock)
        self.board.generator = load.ReplayGenerator(samples, config.sampling_rate_hz)
        self.ledger = ledger
        self.cohort = cohort

    def prepare_window(self):
        window = super().prepare_window()
        self.ledger.on_prepare(self, window)
        return window

    def apply_result(self, probabilities, classify_latency_s=0.0):
        tick = super().apply_result(probabilities, classify_latency_s)
        self.ledger.on_apply(self, probabilities, tick)
        return tick


class BankSession(BenchSession):
    """Serves fresh copies of already-filtered windows from a seeded bank, so
    the filter chain and the board do no work on the timed path."""

    def __init__(self, session_id, profile, config, ledger, samples, cohort, bank, order):
        super().__init__(session_id, profile, config, ledger, samples, cohort)
        self.bank = bank
        self.order = order

    def bank_index(self, window_index: int) -> int:
        return int(self.order[window_index % len(self.order)])

    def prepare_window(self):
        window = self.bank.windows[self.bank_index(self.tick_index)].copy()
        self.tick_index += 1
        self.ledger.on_prepare(self, window)
        return window


@dataclass
class System:
    """One set-up's serving system and the harness state around it."""

    server: object
    sessions: List[BenchSession]
    ledger: WindowLedger
    classifiers: Dict[str, EEGLSTM]
    config: CognitiveArmConfig
    topology: Optional[StreamTopology] = None
    lowering: Dict[str, list] = field(default_factory=dict)

    @property
    def telemetries(self):
        if isinstance(self.server, StreamDuplex):
            return [self.server.producer.telemetry, self.server.consumer.telemetry]
        return [self.server.telemetry]

    @property
    def flush_telemetry(self):
        """The telemetry holding one record per flush."""
        if isinstance(self.server, StreamDuplex):
            return self.server.consumer.telemetry
        return self.server.telemetry

    def accounted(self) -> Dict[str, int]:
        """Windows the program reports as shed or superseded, plus stalls."""
        if isinstance(self.server, StreamDuplex):
            producer = self.server.producer
            shed, superseded = producer.shed_by_session, producer.superseded_count
        else:
            shed = self.server.shed_by_session
            superseded = sum(self.server.superseded_by_session.values())
        return {
            "shed": sum(shed.values()),
            "superseded": superseded,
            "stalled": self.ledger.stalled,
        }

    def shutdown(self) -> None:
        self.server.shutdown()


def _lowering(classifiers: Dict[str, EEGLSTM]) -> Dict[str, list]:
    report = {}
    for cohort, classifier in classifiers.items():
        compiled = classifier.ensure_compiled()
        report[cohort] = [
            {"op": r.get("op"), "shape": list(r.get("shape", ())), "variant": r.get("variant")}
            for r in compiled.plan.lowering_report()
        ]
    return report


def _ledger(config: CognitiveArmConfig, clock: NormalizedClock, raw_of: Callable) -> WindowLedger:
    return WindowLedger(config.label_period_s, n_classes=3, raw_of=raw_of, clock=clock)


def _replay_raw(span: int) -> Callable:
    def raw_of(session, window_index):
        replay = session.board.generator
        return session.cohort, replay.span(replay.cursor - span, replay.cursor)

    return raw_of


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
class Workload:
    """A named workload: its load, its set-up and its load loop."""

    name = ""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.config = bench_config()
        self.clock = NormalizedClock(HostSpeed())

    def generate_load(self) -> None:
        raise NotImplementedError

    def setup(self) -> System:
        raise NotImplementedError

    def warm(self, system: System) -> None:
        for _ in range(WARM_TICKS):
            self.step(system, self.clock.now())

    def step(self, system: System, due: float) -> None:
        """One closed-loop step: every session prepares one window."""
        raise NotImplementedError

    def drive(self, system: System, seconds: float, invoke) -> None:
        """Closed loop: step for ``seconds`` of wall time, calibrating between steps.

        Busy time is the sum of the steps' normalised durations.
        """
        segment = system.ledger.segment
        clock = self.clock
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            applied = segment.applied
            start = clock.now()
            invoke(self.step_name, self.step, system, start)
            busy = clock.now() - start
            segment.busy_s += busy
            segment.step_rates.append((segment.applied - applied) / busy)
            if clock.calibration_due():
                clock.calibrate()

    step_name = "harness.step"


class FleetLockstep(Workload):
    """32 sessions in lock-step on ``AsyncFleetScheduler.tick()``."""

    name = "fleet-lockstep-32"
    n_sessions = 32
    step_name = "harness.tick"

    def generate_load(self) -> None:
        self.loads = load.fleet_load(
            self.n_sessions, self.seed, FLEET_REPLAY_S, self.config.sampling_rate_hz
        )

    def _build(self, scheduler_factory) -> System:
        config = self.config
        classifier = lstm(256, 0, config)
        scheduler = scheduler_factory(classifier)
        span = filter_span(config.filter_settings, config.window_size)
        ledger = _ledger(config, self.clock, _replay_raw(span))
        sessions = []
        for index, session_load in enumerate(self.loads):
            session = BenchSession(
                f"s{index:02d}", session_load.profile, config, ledger, session_load.samples
            )
            scheduler.add_session(session)
            sessions.append(session)
        classifiers = {"default": classifier}
        return System(scheduler, sessions, ledger, classifiers, config,
                      lowering=_lowering(classifiers))

    def setup(self) -> System:
        return self._build(
            lambda classifier: AsyncFleetScheduler(
                classifier, self.config, clock=self.clock, executor=SerialExecutor()
            )
        )

    def step(self, system: System, due: float) -> None:
        system.ledger.due = due
        system.server.tick()


class OpenLoop(FleetLockstep):
    """Five sessions each submitting every 66.7 ms (+-1.5%) from seeded phases.

    Runnable and traceable, but not listed in ``BENCHMARK.json``: see NOTES.md.
    """

    name = "open-loop-15hz"
    n_sessions = 5

    def generate_load(self) -> None:
        self.loads = load.fleet_load(
            self.n_sessions,
            self.seed,
            self.seconds + 10.0,
            self.config.sampling_rate_hz,
            period_s=self.config.label_period_s,
        )

    def drive(self, system: System, seconds: float, invoke) -> None:
        """Open loop: submit when due, pump when a flush is due.

        Arrivals, deadlines and waits run on the normalised clock.  Latency
        counts from each window's scheduled arrival, so a stall's cost to the
        windows queued behind it is measured; busy time is elapsed time minus
        time spent waiting or sampling the reference kernel, and the run has
        one rate: labels over busy time.
        """
        scheduler = system.server
        segment = system.ledger.segment
        clock = self.clock
        ids = [session.session_id for session in system.sessions]
        wall_end = time.perf_counter() + seconds
        start = clock.now()
        next_due = [start + session_load.phase_s for session_load in self.loads]
        idle = 0.0
        applied = segment.applied
        while time.perf_counter() < wall_end:
            index = int(np.argmin(next_due))
            submit_at = next_due[index]
            flush_at = scheduler.next_flush_due_s()
            flush_first = flush_at is not None and flush_at - PUMP_LEAD_S <= submit_at
            wake = flush_at - PUMP_LEAD_S if flush_first else submit_at
            now = clock.now()
            if wake - now >= CALIBRATE_MIN_IDLE_S and clock.calibration_due():
                clock.calibrate()
                idle += clock.now() - now
                continue
            # Poll rather than sleep: a sleeping vCPU on a shared host is
            # descheduled, and its wake-up delay and the caches other
            # tenants evict meanwhile would be measured as the program's.
            while clock.now() < wake:
                pass
            idle += clock.now() - now
            if flush_first:
                invoke("harness.pump", scheduler.pump, PUMP_LEAD_S)
                continue
            segment.generator_lags_s.append(clock.now() - submit_at)
            system.ledger.due = submit_at
            invoke("harness.submit", scheduler.submit, ids[index])
            next_due[index] = submit_at + self.loads[index].period_s
        invoke("harness.drain", scheduler.drain)
        segment.busy_s = clock.now() - start - idle
        segment.step_rates.append((segment.applied - applied) / segment.busy_s)


class StreamCohorts(Workload):
    """64 bank-fed sessions on ``StreamDuplex`` over a dense and a sparse cohort."""

    name = "stream-cohorts-64"
    n_sessions = 64
    step_name = "harness.round"

    def generate_load(self) -> None:
        config = self.config
        span = filter_span(config.filter_settings, config.window_size)
        self.bank = load.window_bank(
            BANK_WINDOWS,
            self.n_sessions,
            self.seed,
            config.window_size,
            span,
            config.sampling_rate_hz,
            PreprocessingPipeline(config.filter_settings),
        )
        # The board only fills its filter buffer at start(), from the bank's
        # own recordings.
        self.profiles = load.participant_profiles(self.n_sessions, self.seed)

    def setup(self) -> System:
        config = self.config
        dense = lstm(256, 0, config)
        sparse, _ = prune_classifier(lstm(512, 1, config), 0.9, tile=(8, 8))
        classifiers = {"dense": dense, "sparse": sparse}
        topology = StreamTopology(clock=self.clock, maxlen=STREAM_MAXLEN)
        duplex = StreamDuplex(
            ModelRouter(classifiers), config, clock=self.clock, topology=topology,
            executor=SerialExecutor(),
        )
        bank = self.bank

        def raw_of(session, window_index):
            return session.cohort, bank.raw[session.bank_index(window_index)]

        ledger = _ledger(config, self.clock, raw_of)
        cohorts = list(classifiers)
        sessions = []
        for index, profile in enumerate(self.profiles):
            cohort = cohorts[index % len(cohorts)]
            recording = bank.recordings[index % len(bank.recordings)]
            session = BankSession(
                f"s{index:02d}", profile, config, ledger, recording, cohort,
                bank, bank.orders[index],
            )
            duplex.add_session(session, cohort=cohort)
            sessions.append(session)
        return System(duplex, sessions, ledger, classifiers, config, topology,
                      lowering=_lowering(classifiers))

    def step(self, system: System, due: float) -> None:
        system.ledger.due = due
        duplex = system.server
        for session in system.sessions:
            duplex.submit(session.session_id)
        duplex.pump()


WORKLOADS = {w.name: w for w in (FleetLockstep, OpenLoop, StreamCohorts)}


def set_up(workload: Workload) -> tuple:
    """Run ``SETUP_REPEATS`` full set-ups; keep the last, return all timings.

    Each set-up gets a fresh in-memory autotune cache, so every one runs the
    autotune race itself and nothing is read from or written to the host's
    persistent cache.
    """
    timings = []
    lowerings = []
    system = None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            system.shutdown()
            system = None
            gc.collect()
        workload.clock.calibrate()
        start = workload.clock.now()
        autotune.set_default_cache(autotune.AutotuneCache(path=None))
        system = workload.setup()
        workload.warm(system)
        timings.append(workload.clock.now() - start)
        lowerings.append(system.lowering)
    return system, timings, lowerings
