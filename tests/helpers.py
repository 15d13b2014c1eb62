"""Shared test utilities: toy datasets and the virtual-clock serving harness.

Besides the quickly-learnable EEG-like dataset, this module hosts the
deterministic serving-test kit: :class:`FakeClock` (a virtual
:class:`repro.utils.timing.Clock`), :class:`ClockedStubClassifier` (latency
is *simulated* by advancing the fake clock, so measured flush latencies are
exact), :class:`ScriptedSession` (a board-free two-phase session) and
:class:`SimulatedLoad` (drives an ``AsyncFleetScheduler`` through thousands
of virtual seconds of arrivals in milliseconds of real time).
"""

import heapq
import itertools
import signal
import threading
from collections import Counter
from contextlib import contextmanager

import numpy as np

from repro.dataset.windows import WindowDataset
from repro.models.base import EEGClassifier, TrainingHistory
from repro.signals.synthetic import ACTIONS


@contextmanager
def hard_timeout(seconds, what="test"):
    """Kill the calling test with a clear error if it wall-clock hangs.

    SIGALRM-based, so it fires even when the hang is inside a blocking
    native call; on non-POSIX platforms it degrades to a no-op and the CI
    job timeout is the backstop.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"{what} exceeded the {seconds}s hard timeout — it is hanging "
            "instead of making progress"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class FakeClock:
    """Deterministic virtual clock implementing the ``Clock`` protocol.

    ``sleep`` advances virtual time instead of blocking, so code written
    against the injected clock runs thousands of virtual seconds per real
    millisecond and every measured duration is exact.

    Thread-safe: the thread-pool flush executor reads and advances the
    clock from worker threads concurrently with the driving thread, and a
    torn ``_now`` update would silently corrupt virtual time.
    """

    def __init__(self, start=0.0):
        self._now = float(start)
        self._lock = threading.Lock()
        self.sleep_calls = []

    def now(self):
        with self._lock:
            return self._now

    def sleep(self, duration_s):
        if duration_s < 0:
            raise ValueError("cannot sleep a negative duration")
        with self._lock:
            self.sleep_calls.append(float(duration_s))
            self._now += float(duration_s)

    def advance(self, duration_s):
        """Move virtual time forward without recording a sleep."""
        if duration_s < 0:
            raise ValueError("cannot advance backwards")
        with self._lock:
            self._now += float(duration_s)

    def advance_to(self, time_s):
        """Jump to an absolute virtual time (never backwards)."""
        with self._lock:
            if time_s < self._now - 1e-12:
                raise ValueError(
                    f"cannot rewind the clock from {self._now} to {time_s}"
                )
            self._now = max(self._now, float(time_s))


class ClockedStubClassifier(EEGClassifier):
    """Deterministic classifier whose *simulated* latency is clock-driven.

    Each ``predict_proba`` call advances the injected :class:`FakeClock` by
    ``base_latency_s + per_row_s * n`` — so batcher/scheduler latency
    measurements come out exact, and overload scenarios are scripted by
    making ``per_row_s`` large.  ``peak_class`` fixes which class wins,
    letting router tests prove each cohort was served by its own model.
    """

    family = "stub"

    def __init__(self, clock=None, base_latency_s=0.0, per_row_s=0.0, peak_class=0):
        self.clock = clock
        self.base_latency_s = float(base_latency_s)
        self.per_row_s = float(per_row_s)
        self.peak_class = int(peak_class)
        self.batch_sizes = []

    def fit(self, train, validation=None):
        return TrainingHistory()

    def predict_proba(self, windows):
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim == 2:
            windows = windows[None, ...]
        n = windows.shape[0]
        self.batch_sizes.append(n)
        if self.clock is not None:
            self.clock.advance(self.base_latency_s + self.per_row_s * n)
        # Window-dependent but deterministic, peaked at ``peak_class``.
        mean = windows.mean(axis=(1, 2))
        scores = np.full((n, 3), 1.0)
        scores[:, self.peak_class] = 2.0 + np.tanh(mean)
        return scores / scores.sum(axis=1, keepdims=True)

    def parameter_count(self):
        return 0


class DyingExecutor:
    """Unsupervised flush executor whose next flush dies with its worker.

    While ``fail_next`` is set, each flush's ticket raises
    :class:`~repro.serving.executors.WorkerDiedError` from ``result()``;
    otherwise flushes execute inline.  With ``hold=True`` a dying ticket
    stays not-done until :meth:`release` — a worker that dies mid-flush
    while the driver keeps polling.
    """

    serializes_flushes = False
    remote_execution = False

    class _DyingTicket:
        def __init__(self, cohort, held):
            self.cohort = cohort
            self.held = held

        def done(self):
            return not self.held

        def result(self, timeout=None):
            from repro.serving.executors import WorkerDiedError

            raise WorkerDiedError(self.cohort, pending=(self,), detail="test kill")

    def __init__(self, hold=False):
        self.fail_next = True
        self.hold = hold
        self.tickets = []

    def bind(self, classifiers, clock):
        self._classifiers = dict(classifiers)
        self._clock = clock

    def submit_flush(self, cohort, prepared):
        from repro.serving.batcher import execute_windows
        from repro.serving.executors import CompletedTicket

        if self.fail_next:
            ticket = self._DyingTicket(cohort, held=self.hold)
            self.tickets.append(ticket)
            return ticket
        return CompletedTicket(
            execute_windows(
                self._classifiers[cohort],
                prepared.windows,
                prepared.chunk_size,
                clock=self._clock,
            )
        )

    def release(self):
        """Let every held dying ticket complete (and raise)."""
        for ticket in self.tickets:
            ticket.held = False

    def shutdown(self):
        pass


class ScriptedSession:
    """Board-free stand-in for ``ServingSession`` (same two-phase protocol).

    Produces tiny deterministic windows instantly — no simulated EEG, no
    filtering — so a scheduler harness can push millions of submissions
    through virtual time quickly.  ``stall_every=k`` makes every k-th
    prepare return ``None`` (a stalled tick).
    """

    def __init__(self, session_id, n_channels=2, window_size=4, stall_every=None, seed=0):
        self.session_id = str(session_id)
        self.n_channels = n_channels
        self.window_size = window_size
        self.stall_every = stall_every
        self._rng = np.random.default_rng(seed)
        self.tick_index = 0
        self.backlog_depth = 0
        self.dropped_windows = 0
        self.applied = []  # (probabilities, classify_latency_s) per result

    def start(self):
        pass

    def stop(self):
        pass

    def prepare_window(self):
        index = self.tick_index
        self.tick_index += 1
        if self.stall_every and (index + 1) % self.stall_every == 0:
            self.backlog_depth += 1
            return None
        if self.backlog_depth:
            self.dropped_windows += self.backlog_depth
            self.backlog_depth = 0
        return self._rng.standard_normal((self.n_channels, self.window_size))

    def apply_result(self, probabilities, classify_latency_s=0.0):
        self.applied.append((np.asarray(probabilities), float(classify_latency_s)))
        return len(self.applied) - 1

    def labels_emitted(self):
        return len(self.applied)

    def accuracy(self):
        return 0.0


class SimulatedLoad:
    """Event-driven traffic generator for an ``AsyncFleetScheduler``.

    Each attached session submits periodically (staggered starts, optional
    deterministic jitter) on the scheduler's injected :class:`FakeClock`.
    The driver honours the scheduler's contract: before virtual time moves
    past any pending flush deadline it calls ``pump()``, so any remaining
    deadline violation is the scheduler's fault, not the harness's.

    After :meth:`run`, ``outcomes`` counts submissions by result
    ("queued"/"flushed"/"stalled"/"shed") and ``flush_events`` holds every
    ``FlushEvent`` in order.
    """

    def __init__(self, scheduler, clock, period_s=0.1, jitter_s=0.0, seed=0):
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.scheduler = scheduler
        self.clock = clock
        self.period_s = float(period_s)
        self.jitter_s = float(jitter_s)
        self._rng = np.random.default_rng(seed)
        self.outcomes = Counter()
        self.flush_events = []
        self.submissions = 0

    def _pump_until(self, time_s):
        """Service every flush deadline due at or before ``time_s``."""
        while True:
            due = self.scheduler.next_flush_due_s()
            if due is None or due > time_s:
                return
            self.clock.advance_to(max(due, self.clock.now()))
            self.flush_events.extend(self.scheduler.pump())

    def run(self, duration_s):
        """Drive ``duration_s`` virtual seconds of traffic, then settle.

        New arrivals stop at the horizon; windows already queued are still
        flushed at their deadlines, so nothing is silently dropped.
        """
        start = self.clock.now()
        horizon = start + float(duration_s)
        counter = itertools.count()  # heap tie-break for simultaneous events
        heap = []
        sessions = self.scheduler.sessions
        for i, session in enumerate(sessions):
            offset = (i / len(sessions)) * self.period_s
            heapq.heappush(heap, (start + offset, next(counter), session.session_id))
        while heap:
            arrival, _, session_id = heapq.heappop(heap)
            if arrival > horizon:
                break
            self._pump_until(arrival)
            # A long flush may already have pushed virtual time past this
            # arrival; the session then simply submits late (never rewind).
            self.clock.advance_to(max(arrival, self.clock.now()))
            outcome = self.scheduler.submit(session_id)
            if outcome == "flushed":  # batch filled: the flush ran inline
                self.flush_events.append(self.scheduler.last_flush_event)
            self.outcomes[outcome] += 1
            self.submissions += 1
            jitter = self._rng.uniform(0, self.jitter_s) if self.jitter_s else 0.0
            heapq.heappush(
                heap, (arrival + self.period_s + jitter, next(counter), session_id)
            )
        self._pump_until(float("inf"))  # settle: flush every pending deadline
        self.flush_events.extend(self.scheduler.drain())  # record danglers
        return self


def make_toy_dataset(
    n_per_class=20,
    n_channels=4,
    window_size=50,
    n_participants=2,
    sampling_rate_hz=125.0,
    noise=0.5,
    seed=0,
):
    """Build a small 3-class dataset whose classes differ in channel rhythm power.

    Class 0 ("left") carries a strong 10 Hz rhythm on channel 1, class 1
    ("right") carries it on channel 0 and class 2 ("idle") carries it on both;
    this mimics the ERD lateralisation structure of the real problem while
    remaining learnable by tiny models within a couple of epochs.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(window_size) / sampling_rate_hz
    carrier = np.sin(2 * np.pi * 10.0 * t)
    windows, labels, participants = [], [], []
    for class_idx in range(3):
        for i in range(n_per_class):
            window = noise * rng.standard_normal((n_channels, window_size))
            phase = rng.uniform(0, 2 * np.pi)
            shifted = np.sin(2 * np.pi * 10.0 * t + phase)
            if class_idx == 0:
                window[1] += 3.0 * shifted
            elif class_idx == 1:
                window[0] += 3.0 * shifted
            else:
                window[0] += 1.5 * shifted
                window[1] += 1.5 * shifted
            windows.append(window)
            labels.append(class_idx)
            participants.append(f"P{(i % n_participants) + 1:02d}")
    order = rng.permutation(len(windows))
    return WindowDataset(
        windows=np.stack(windows)[order],
        labels=np.array(labels)[order],
        label_names=ACTIONS,
        participant_ids=np.array(participants, dtype=object)[order],
        sampling_rate_hz=sampling_rate_hz,
    )
