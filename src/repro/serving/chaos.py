"""Deterministic fault injection for the self-healing shard fleet.

Supervision code is only as trustworthy as the failures it has been proven
against, and real worker crashes are the worst kind of test input: they
land at arbitrary wall-clock instants, so a soak that passes today says
little about tomorrow.  This module makes failure *scripted*:

- :class:`Injection` / :class:`FaultInjector` — a schedule of faults
  (worker kills mid-flush / idle / at respawn, pipe closes, slow-worker
  stalls) pinned to exact virtual times on the injected clock.  The
  injector drives any executor exposing the chaos surface
  (``inject_kill`` / ``inject_pipe_close`` / ``inject_stall``).
- :class:`SimulatedShardExecutor` — the real
  :class:`~repro.serving.executors.ProcessShardExecutor` over an
  in-process loopback transport instead of worker processes.  Submit,
  tickets, supervised respawn, hot-swap and fault injection all run the
  production code; the loopback drives the same worker protocol object a
  child process runs, on the virtual clock.  So deaths, backoffs and
  stalls are exact virtual-time events, which is what lets a
  10k-virtual-second, 32-session chaos soak with a dozen kills run in
  seconds of real time — and deterministically, so the recovered run can
  be compared row-for-row against an uninjected one.
- :class:`ChaosLoad` — :class:`tests.helpers.SimulatedLoad`-compatible
  driver that interleaves the injector with traffic, firing each fault at
  its scripted virtual time.
- :func:`window_conservation` / :func:`recovery_latencies` — the two soak
  assertions as reusable analyses: no admitted window may vanish
  (``admitted == applied + superseded + still-queued``), and every death
  must be followed by served traffic within the supervisor's backoff
  budget.
"""

from __future__ import annotations

import heapq
import itertools
import signal
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.models.base import EEGClassifier
from repro.serving.executors import ProcessShardExecutor, _Shard, _ShardWorker
from repro.serving.telemetry import FleetTelemetry
from repro.utils.timing import Clock

#: Injection kinds.
KILL = "kill"
PIPE_CLOSE = "pipe-close"
STALL = "stall"

#: Kill phases: where in the worker's lifecycle the fault lands.
#: ``idle`` kills the worker between flushes (discovered at the next
#: submit); ``mid-flush`` arms the *next accepted* flush to die before
#: answering; ``respawn`` (alias ``bind``) makes the next respawn attempt
#: fail its start handshake.
PHASES = ("idle", "mid-flush", "respawn", "bind")


@dataclass(frozen=True)
class Injection:
    """One scripted fault, pinned to a virtual time."""

    #: Absolute clock time at which the fault fires.
    at_s: float
    #: ``kill``, ``pipe-close`` or ``stall``.
    kind: str
    #: Cohort whose worker lane is faulted.
    cohort: str
    #: Lifecycle phase for kills (see :data:`PHASES`); ignored otherwise.
    phase: str = "idle"
    #: Stall length for ``stall`` injections.
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (KILL, PIPE_CLOSE, STALL):
            raise ValueError(f"unknown injection kind {self.kind!r}")
        if self.kind == KILL and self.phase not in PHASES:
            raise ValueError(
                f"unknown kill phase {self.phase!r}; expected one of {PHASES}"
            )
        if self.kind == STALL and self.duration_s <= 0:
            raise ValueError("stall injections need a positive duration_s")


class FaultInjector:
    """Applies a scripted fault schedule to an executor at exact clock times.

    The schedule is fixed up front and applied in time order by
    :meth:`poll`, which the driving loop calls whenever virtual time moves;
    :meth:`next_at_s` exposes the next fire time so an event-driven driver
    can advance the clock *to* it rather than past it.  Every applied
    injection is logged in :attr:`applied` for post-run assertions.
    """

    def __init__(self, schedule: Sequence[Injection], clock: Clock) -> None:
        self.schedule: List[Injection] = sorted(schedule, key=lambda i: i.at_s)
        self.clock = clock
        self.applied: List[Injection] = []
        self._next = 0
        self._executor: Optional[Any] = None

    def arm(self, executor: Any) -> None:
        """Point the injector at the executor whose lanes it will fault."""
        for hook in ("inject_kill", "inject_pipe_close", "inject_stall"):
            if not hasattr(executor, hook):
                raise TypeError(
                    f"{type(executor).__name__} has no {hook}; fault injection "
                    "needs an executor with the chaos surface"
                )
        self._executor = executor

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self.schedule)

    def next_at_s(self) -> Optional[float]:
        """Fire time of the next pending injection (None when exhausted)."""
        if self.exhausted:
            return None
        return self.schedule[self._next].at_s

    def poll(self) -> List[Injection]:
        """Apply every injection whose time has come; returns those fired."""
        if self._executor is None:
            raise RuntimeError("injector is not armed; call arm(executor) first")
        fired: List[Injection] = []
        now = self.clock.now()
        while not self.exhausted and self.schedule[self._next].at_s <= now + 1e-12:
            injection = self.schedule[self._next]
            self._next += 1
            self._apply(injection)
            self.applied.append(injection)
            fired.append(injection)
        return fired

    def _apply(self, injection: Injection) -> None:
        assert self._executor is not None
        if injection.kind == KILL:
            self._executor.inject_kill(injection.cohort, phase=injection.phase)
        elif injection.kind == PIPE_CLOSE:
            self._executor.inject_pipe_close(injection.cohort)
        else:
            self._executor.inject_stall(injection.cohort, injection.duration_s)


class _Loopback:
    """In-process stand-in for a worker process *and* its pipe end.

    Sent messages queue up; the :class:`_ShardWorker` answers them only
    when the parent reads (``poll``/``recv``), so a scripted stall moves
    virtual time at harvest, where a real worker's late reply would land.
    It fails the way a pipe does: once closed, ``send``/``poll`` raise
    ``OSError``; a dead worker reads as end-of-file (``poll`` is True,
    ``recv`` raises ``EOFError``).
    """

    def __init__(self, worker: _ShardWorker, handshake: tuple) -> None:
        self._worker = worker
        self._inbox: Deque[Optional[tuple]] = deque()
        self._replies: Deque[tuple] = deque([handshake])
        self._exitcode = 0
        self.closed = False

    def send(self, message: Optional[tuple]) -> None:
        if self.closed:
            raise OSError("handle is closed")
        self._inbox.append(message)

    def poll(self, timeout: Optional[float] = None) -> bool:
        if self.closed:
            raise OSError("handle is closed")
        while not self._replies and self._inbox and self._worker.alive:
            reply = self._worker.handle(self._inbox.popleft())
            if reply is not None:
                self._replies.append(reply)
        return bool(self._replies) or not self._worker.alive

    def recv(self) -> tuple:
        self.poll()
        if not self._replies:
            raise EOFError("loopback worker has exited")
        return self._replies.popleft()

    def close(self) -> None:
        self.closed = True

    def is_alive(self) -> bool:
        return self._worker.alive

    @property
    def exitcode(self) -> Optional[int]:
        return None if self._worker.alive else self._exitcode

    def kill(self) -> None:
        if self._worker.alive:
            self._worker.alive, self._exitcode = False, -signal.SIGKILL

    terminate = kill

    def join(self, timeout: Optional[float] = None) -> None:
        pass


def _served_as_is(payload: Any) -> EEGClassifier:
    """Loopback replica builder: objects serve as they are, bytes rebuild."""
    if isinstance(payload, bytes):
        from repro.models.compiled import CompiledClassifier

        return CompiledClassifier.from_payload(payload)
    return payload


class SimulatedShardExecutor(ProcessShardExecutor):
    """:class:`ProcessShardExecutor` over an in-process loopback transport.

    Every submit, ticket, respawn, hot-swap, fault-injection and shutdown
    path is the process backend's own; only the transport differs.  Each
    cohort's worker is the same :class:`_ShardWorker` a child process runs,
    driven through a loopback conn on the injected clock, so deaths,
    backoffs and stalls are exact virtual-time events and a scripted
    10k-virtual-second soak is deterministic and fast.  Workers serve the
    cohort classifier objects themselves (any ``EEGClassifier``, no
    transport requirement), which is what makes the recovered run exactly
    comparable to an uninjected one.  Worker ids read ``sim:<cohort>``.
    """

    @staticmethod
    def _payload_for(cohort: str, classifier: EEGClassifier) -> EEGClassifier:
        return classifier

    def _spawn_process(self, cohort: str) -> _Shard:
        payload, version, fail_start = self._spawn_args(cohort)
        worker = _ShardWorker(f"sim:{cohort}", self._clock, _served_as_is)
        loop = _Loopback(worker, worker.start(payload, version, fail_start))
        return _Shard(cohort, loop, loop, plan_version=version)


class ChaosLoad:
    """Traffic driver that fires scripted faults at exact virtual times.

    Same event loop as :class:`tests.helpers.SimulatedLoad` (periodic
    per-session submissions, pump at every flush deadline, settle + drain),
    with one addition: between any two events the injector is polled at
    each scripted fault time, so faults land exactly where the schedule
    says — including *between* a deadline and the submission that would
    have refilled the queue.
    """

    def __init__(
        self,
        scheduler: Any,
        clock: Any,
        injector: FaultInjector,
        period_s: float = 0.1,
        jitter_s: float = 0.0,
        seed: int = 0,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.scheduler = scheduler
        self.clock = clock
        self.injector = injector
        self.period_s = float(period_s)
        self.jitter_s = float(jitter_s)
        self._rng = np.random.default_rng(seed)
        self.outcomes: Any = Counter()
        self.flush_events: List[Any] = []
        self.submissions = 0

    def _pump_until(self, time_s: float) -> None:
        """Service every fault and flush deadline due at or before ``time_s``."""
        while True:
            due = self.scheduler.next_flush_due_s()
            fault_at = self.injector.next_at_s()
            targets = [
                t for t in (due, fault_at) if t is not None and t <= time_s
            ]
            if not targets:
                return
            target = min(targets)
            self.clock.advance_to(max(target, self.clock.now()))
            self.injector.poll()
            due = self.scheduler.next_flush_due_s()
            if due is not None and due <= self.clock.now() + 1e-12:
                self.flush_events.extend(self.scheduler.pump())

    def run(self, duration_s: float) -> "ChaosLoad":
        start = self.clock.now()
        horizon = start + float(duration_s)
        counter = itertools.count()
        heap: List[Any] = []
        sessions = self.scheduler.sessions
        for i, session in enumerate(sessions):
            offset = (i / len(sessions)) * self.period_s
            heapq.heappush(
                heap, (start + offset, next(counter), session.session_id)
            )
        while heap:
            arrival, _, session_id = heapq.heappop(heap)
            if arrival > horizon:
                break
            self._pump_until(arrival)
            self.clock.advance_to(max(arrival, self.clock.now()))
            self.injector.poll()
            outcome = self.scheduler.submit(session_id)
            if outcome == "flushed":
                self.flush_events.append(self.scheduler.last_flush_event)
            self.outcomes[outcome] += 1
            self.submissions += 1
            jitter = (
                self._rng.uniform(0, self.jitter_s) if self.jitter_s else 0.0
            )
            heapq.heappush(
                heap,
                (arrival + self.period_s + jitter, next(counter), session_id),
            )
        self._pump_until(float("inf"))
        self.flush_events.extend(self.scheduler.drain())
        return self


# ---------------------------------------------------------------------- #
# soak analyses
# ---------------------------------------------------------------------- #
def window_conservation(scheduler: Any, load: Any) -> Dict[str, int]:
    """Account for every admitted window; the soak's conservation invariant.

    Every submission that was admitted (``queued`` or ``flushed``) must end
    the run as exactly one of: a result applied to its session, a window
    superseded by a fresher one from the same session, or (only before
    drain) still queued.  ``holds`` is the post-drain identity
    ``admitted == applied + superseded`` — a worker death that loses even
    one window breaks it.
    """
    admitted = load.outcomes.get("queued", 0) + load.outcomes.get("flushed", 0)
    applied = sum(s.labels_emitted() for s in scheduler.sessions) + sum(
        s.labels_emitted() for s in getattr(scheduler, "_departed", [])
    )
    superseded = sum(scheduler.superseded_by_session.values())
    queued = sum(len(q) for q in scheduler._queues.values())
    return {
        "admitted": admitted,
        "applied": applied,
        "superseded": superseded,
        "queued": queued,
        "holds": int(admitted == applied + superseded + queued),
    }


def recovery_latencies(telemetry: FleetTelemetry) -> Dict[str, List[float]]:
    """Per-cohort delays from each worker death to the next served flush.

    A ``worker-died`` record marks the death (its ``completed_at_s`` is the
    detection time); recovery is the next record of the same cohort that
    actually classified something.  Deaths with no later served flush (end
    of run) report no latency — the conservation check covers those
    windows instead.
    """
    latencies: Dict[str, List[float]] = {}
    open_deaths: Dict[str, List[float]] = {}
    for record in telemetry.records:
        if not record.cohort:
            continue
        if record.flush_reason == "worker-died":
            open_deaths.setdefault(record.cohort, []).append(
                record.completed_at_s
            )
        elif record.batch_size > 0 and open_deaths.get(record.cohort):
            served_at = record.completed_at_s
            for died_at in open_deaths.pop(record.cohort):
                latencies.setdefault(record.cohort, []).append(
                    served_at - died_at
                )
    return latencies
