"""Pluggable execution backends for cohort flushes.

The :class:`~repro.serving.scheduler.AsyncFleetScheduler` decides *when* a
cohort's micro-batch flushes; the :class:`FlushExecutor` it is configured
with decides *where* the classification runs.  Three backends ship:

- :class:`SerialExecutor` — runs every flush inline on the caller's thread.
  The default, and bit-for-bit the pre-executor behaviour (same classifier
  objects, same injected clock, same sequence of ``clock.now()`` calls).
- :class:`ThreadPoolFlushExecutor` — runs flushes on a shared thread pool,
  so different cohorts' flushes overlap.  The shared classifier objects are
  used from worker threads; that is safe *across cohorts* (each cohort owns
  its own classifier/plan — plan scratch buffers are per-object) but the
  scheduler must never run two flushes of the same cohort concurrently,
  which it enforces by refusing double-flushes.
- :class:`ProcessShardExecutor` — one dedicated worker process per cohort.
  At bind time each worker receives the cohort classifier's transport
  payload (:meth:`repro.models.compiled.CompiledClassifier.to_payload`) and
  reconstructs the plan replica once; every flush then ships only the
  stacked windows and gets probabilities back.  Workers time their own
  service with their local monotonic clock (an injected virtual clock
  cannot cross a process boundary — see the README's clock caveats).

The worker side of the pipe protocol is one transport-free object,
:class:`_ShardWorker`, whose ``handle(message)`` answers one flush, swap,
stall or fault-injection control.  A child process drives it as
``recv → handle → send``; :class:`repro.serving.chaos.SimulatedShardExecutor`
drives the same object over an in-process loopback on the injected clock,
so chaos soaks exercise this module's submit, ticket, respawn, hot-swap
and fault-injection code rather than a copy of it.

The process backend is *supervised*: a :class:`ShardSupervisor` tracks each
cohort worker's lifecycle (``running`` → ``respawning`` → ``quarantined``).
When a worker dies, the executor respawns it from the cohort's cached
payload with capped exponential backoff + deterministic jitter, re-running
the ready handshake; more than ``max_restarts`` deaths inside a sliding
window quarantines the cohort, and the scheduler degrades it to an inline
:class:`SerialExecutor` fallback instead of crashing the fleet.  Workers
also support zero-downtime plan hot-swap (:meth:`ProcessShardExecutor.
swap_plan`): a new payload travels over the existing pipe as a versioned
control message, the worker double-buffers the replica and flips between
flushes, and every flush reply echoes the ``plan_version`` it served.

Executors hand back :class:`FlushTicket` futures; the scheduler tracks one
in-flight ticket per cohort and folds the completed
:class:`~repro.serving.batcher.ExecutionResult` back into session state on
its own thread, so sessions and telemetry are never touched concurrently.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor as _ThreadPool
from concurrent.futures import TimeoutError as _FutureTimeoutError
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Mapping,
    Optional,
    Protocol,
    Set,
    Tuple,
    runtime_checkable,
)

from repro.models.base import EEGClassifier
from repro.serving.batcher import ExecutionResult, PreparedBatch, execute_windows
from repro.utils.timing import SYSTEM_CLOCK, Clock

#: Supervisor states of one cohort's worker lane.
WORKER_RUNNING = "running"
WORKER_RESPAWNING = "respawning"
WORKER_QUARANTINED = "quarantined"


class FlushExecutionError(RuntimeError):
    """A flush failed inside an execution backend (worker error or loss)."""


class WorkerDiedError(FlushExecutionError):
    """A shard worker process died, with work possibly still assigned to it.

    Carries the cohort and any tickets that were in flight on the dead
    worker so callers can *requeue* instead of crashing the fleet: the
    scheduler puts the ticket's windows back on the cohort queue, and the
    stream consumer leaves the corresponding entries un-acked so another
    scheduler process claims them.  Before this error existed a dead worker
    raised a bare :class:`FlushExecutionError` and poisoned its cohort
    forever — nothing downstream could tell "the batch was bad" from "the
    lane is gone".
    """

    def __init__(
        self,
        cohort: str,
        pending: Tuple["FlushTicket", ...] = (),
        detail: str = "",
    ) -> None:
        message = f"shard worker {cohort!r} has died"
        if pending:
            message += f" with {len(pending)} flush(es) in flight"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        #: Cohort whose dedicated worker is gone.
        self.cohort = cohort
        #: Tickets for flushes handed to the worker and never answered.
        self.pending = tuple(pending)


class WorkerRespawnPending(FlushExecutionError):
    """The cohort's worker is between backoff and respawn; try again later.

    Raised by a supervised executor when a flush is submitted before the
    supervisor's backoff delay has elapsed.  The windows stay queued (the
    scheduler restores them) and :attr:`retry_at_s` tells the caller when
    the respawn attempt becomes due on the executor's clock.
    """

    def __init__(self, cohort: str, retry_at_s: float) -> None:
        super().__init__(
            f"shard worker {cohort!r} is respawning; retry at t={retry_at_s:.6f}"
        )
        self.cohort = cohort
        self.retry_at_s = retry_at_s


class CohortQuarantinedError(FlushExecutionError):
    """The cohort burned through its restart budget and is quarantined.

    The supervisor refuses further respawns; the scheduler degrades the
    cohort to its inline serial fallback so the fleet keeps serving.
    """

    def __init__(self, cohort: str, deaths: int, window_s: float) -> None:
        super().__init__(
            f"cohort {cohort!r} quarantined: {deaths} worker deaths within "
            f"{window_s}s exhausted the restart budget"
        )
        self.cohort = cohort
        self.deaths = deaths


class ExecutorClosedError(FlushExecutionError):
    """The executor was shut down; no further binds or flushes are accepted."""


@runtime_checkable
class FlushTicket(Protocol):
    """Future-shaped handle on one in-flight cohort flush."""

    def done(self) -> bool:
        """True once :meth:`result` will return without blocking."""
        ...

    def result(self, timeout: Optional[float] = None) -> ExecutionResult:
        """Block until the flush completes; raises on executor failure."""
        ...


class FlushExecutor(Protocol):
    """Where cohort flushes run.  Implementations must be bound exactly once.

    ``serializes_flushes`` tells the scheduler whether flushes share one
    executor lane (wake times must then budget for earlier cohorts' service
    time) or run concurrently (each cohort's deadline stands alone).
    ``remote_execution`` marks executors whose classification happens outside
    this process — the scheduler then skips local plan specialisation (the
    workers specialise their own replicas), so no arena memory is pinned on
    plans that never execute.
    """

    serializes_flushes: bool
    remote_execution: bool

    def bind(
        self, classifiers: Mapping[str, EEGClassifier], clock: Clock
    ) -> None: ...

    def submit_flush(self, cohort: str, prepared: PreparedBatch) -> FlushTicket: ...

    def shutdown(self) -> None: ...


class CompletedTicket:
    """A ticket for work that already ran (inline executors)."""

    def __init__(self, execution: ExecutionResult) -> None:
        self._execution = execution

    def done(self) -> bool:
        return True

    def result(self, timeout: Optional[float] = None) -> ExecutionResult:
        return self._execution


# ---------------------------------------------------------------------- #
# supervision policy
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SupervisorConfig:
    """Respawn/quarantine policy for supervised shard executors.

    Parameters
    ----------
    max_restarts:
        Worker deaths tolerated inside ``restart_window_s`` before the
        cohort is quarantined (the death that *exceeds* this count
        quarantines, so ``max_restarts=3`` allows three respawns in the
        window and quarantines on the fourth death).
    restart_window_s:
        Length of the sliding window the death count is measured over.
    backoff_initial_s / backoff_factor / backoff_max_s:
        Capped exponential backoff between a death and the respawn attempt:
        the n-th *consecutive* failure waits
        ``min(backoff_max_s, backoff_initial_s * backoff_factor**(n-1))``.
        A successful respawn resets the exponent.
    jitter_fraction:
        Uniform jitter added on top of the backoff, as a fraction of it,
        drawn from a per-cohort seeded RNG — deterministic under test (and
        across interpreter runs, so a failing soak replays exactly),
        decorrelated across cohorts in production.
    seed:
        Base seed of the jitter RNGs.
    """

    max_restarts: int = 3
    restart_window_s: float = 60.0
    backoff_initial_s: float = 0.05
    backoff_max_s: float = 2.0
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.restart_window_s <= 0:
            raise ValueError("restart_window_s must be positive")
        if self.backoff_initial_s < 0:
            raise ValueError("backoff_initial_s must be non-negative")
        if self.backoff_max_s < self.backoff_initial_s:
            raise ValueError("backoff_max_s must be >= backoff_initial_s")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")

    def max_backoff_budget_s(self) -> float:
        """Upper bound on any single death→retry delay (backoff + jitter)."""
        return self.backoff_max_s * (1.0 + self.jitter_fraction)


class ShardSupervisor:
    """Pure, clock-injected lifecycle policy for a fleet of worker lanes.

    Tracks one state machine per cohort (``running`` → ``respawning`` →
    back to ``running`` on a successful respawn, or ``quarantined`` once
    the sliding-window death count exceeds the budget) plus the capped
    exponential backoff + jitter that spaces respawn attempts.  It never
    touches processes itself — executors call :meth:`record_death` /
    :meth:`record_respawn_success` and ask :meth:`state` /
    :meth:`retry_at_s` before acting — which is what makes the policy
    exactly testable on a virtual clock, whichever transport (worker
    processes or the chaos loopback) carries the supervised executor's
    traffic.
    """

    def __init__(
        self,
        config: Optional[SupervisorConfig] = None,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        self.config = config or SupervisorConfig()
        self.clock = clock
        self._state: Dict[str, str] = {}
        self._deaths: Dict[str, Deque[float]] = {}
        self._consecutive: Dict[str, int] = {}
        self._retry_at: Dict[str, float] = {}
        self._restarts: Dict[str, int] = {}
        self._rng: Dict[str, random.Random] = {}

    def watch(self, cohort: str) -> None:
        """Start supervising a cohort lane (idempotent)."""
        if cohort not in self._state:
            self._state[cohort] = WORKER_RUNNING
            self._deaths[cohort] = deque()
            self._consecutive[cohort] = 0
            self._restarts[cohort] = 0
            # crc32, not hash(): string hashing is salted per interpreter.
            self._rng[cohort] = random.Random(
                zlib.crc32(f"{self.config.seed}:{cohort}".encode())
            )

    def state(self, cohort: str) -> str:
        return self._state.get(cohort, WORKER_RUNNING)

    def states(self) -> Dict[str, str]:
        return dict(self._state)

    def retry_at_s(self, cohort: str) -> Optional[float]:
        """Clock time the next respawn attempt becomes due (respawning only)."""
        if self.state(cohort) != WORKER_RESPAWNING:
            return None
        return self._retry_at[cohort]

    def restart_count(self, cohort: str) -> int:
        """Successful respawns of this cohort's lane so far."""
        return self._restarts.get(cohort, 0)

    def respawn_due(self, cohort: str) -> bool:
        retry_at = self.retry_at_s(cohort)
        return retry_at is not None and self.clock.now() >= retry_at

    def record_death(self, cohort: str) -> str:
        """Fold one worker death in; returns the cohort's new state."""
        self.watch(cohort)
        if self._state[cohort] == WORKER_QUARANTINED:
            return WORKER_QUARANTINED
        now = self.clock.now()
        deaths = self._deaths[cohort]
        horizon = now - self.config.restart_window_s
        while deaths and deaths[0] < horizon:
            deaths.popleft()
        deaths.append(now)
        if len(deaths) > self.config.max_restarts:
            self._state[cohort] = WORKER_QUARANTINED
            return WORKER_QUARANTINED
        failures = self._consecutive[cohort] = self._consecutive[cohort] + 1
        backoff = min(
            self.config.backoff_max_s,
            self.config.backoff_initial_s
            * self.config.backoff_factor ** (failures - 1),
        )
        jitter = backoff * self.config.jitter_fraction * self._rng[cohort].random()
        self._retry_at[cohort] = now + backoff + jitter
        self._state[cohort] = WORKER_RESPAWNING
        return WORKER_RESPAWNING

    def record_respawn_success(self, cohort: str) -> None:
        self.watch(cohort)
        self._state[cohort] = WORKER_RUNNING
        self._consecutive[cohort] = 0
        self._restarts[cohort] += 1

    def deaths_in_window(self, cohort: str) -> int:
        return len(self._deaths.get(cohort, ()))


class _BoundMixin:
    """Shared bind-once bookkeeping for the concrete executors."""

    def __init__(self) -> None:
        self._classifiers: Optional[Dict[str, EEGClassifier]] = None
        self._clock: Clock = SYSTEM_CLOCK

    @property
    def bound(self) -> bool:
        return self._classifiers is not None

    def _check_bind(self, classifiers: Mapping[str, EEGClassifier]) -> None:
        if self.bound:
            raise RuntimeError(
                "executor is already bound to a scheduler; build one executor "
                "per scheduler"
            )
        if not classifiers:
            raise ValueError("bind() needs at least one cohort classifier")

    def _classifier_for(self, cohort: str) -> EEGClassifier:
        if self._classifiers is None:
            raise RuntimeError("executor is not bound; call bind() first")
        try:
            return self._classifiers[cohort]
        except KeyError:
            raise KeyError(f"executor has no cohort {cohort!r}") from None

    def swap_classifier(self, cohort: str, classifier: EEGClassifier) -> None:
        """Replace a cohort's classifier between flushes (plan hot-swap).

        Local executors serve the shared classifier object directly, so the
        swap is a dictionary write; the caller (the scheduler) is
        responsible for never swapping while that cohort has a flush in
        flight.
        """
        if self._classifiers is None:
            raise RuntimeError("executor is not bound; call bind() first")
        if cohort not in self._classifiers:
            raise KeyError(f"executor has no cohort {cohort!r}")
        self._classifiers[cohort] = classifier


class SerialExecutor(_BoundMixin):
    """Inline execution on the caller's thread — today's behaviour, exactly.

    Uses the scheduler's injected clock for service timing, so virtual-clock
    tests stay exact, and returns already-completed tickets, so the
    scheduler's flush path is synchronous end to end.  ``label`` names the
    execution lane in telemetry — the scheduler's degraded-cohort fallback
    uses ``"degraded:<cohort>"`` so healed traffic is distinguishable.
    """

    serializes_flushes = True
    remote_execution = False

    def __init__(self, label: str = "serial") -> None:
        super().__init__()
        self.label = label

    def bind(self, classifiers: Mapping[str, EEGClassifier], clock: Clock) -> None:
        self._check_bind(classifiers)
        self._classifiers = dict(classifiers)
        self._clock = clock

    def submit_flush(self, cohort: str, prepared: PreparedBatch) -> CompletedTicket:
        classifier = self._classifier_for(cohort)
        return CompletedTicket(
            execute_windows(
                classifier,
                prepared.windows,
                prepared.chunk_size,
                self._clock,
                worker=self.label,
            )
        )

    def shutdown(self) -> None:
        self._classifiers = None


class _FutureTicket:
    """Adapter from ``concurrent.futures.Future`` to :class:`FlushTicket`."""

    def __init__(self, future) -> None:
        self._future = future

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> ExecutionResult:
        try:
            return self._future.result(timeout=timeout)
        except (TimeoutError, _FutureTimeoutError):
            # distinct classes on Python 3.10; aliases from 3.11 on
            raise TimeoutError(f"flush did not complete within {timeout}s")
        except Exception as exc:  # normalise backend failures
            raise FlushExecutionError(f"flush failed in worker thread: {exc}") from exc


class ThreadPoolFlushExecutor(_BoundMixin):
    """Overlap cohort flushes on a shared thread pool.

    The pool defaults to one worker per cohort, the natural shard width:
    the scheduler never runs two flushes of one cohort concurrently, so
    extra threads would idle.  NumPy kernels release the GIL inside BLAS,
    which is where the overlap pays off.
    """

    serializes_flushes = False
    remote_execution = False

    def __init__(self, max_workers: Optional[int] = None) -> None:
        super().__init__()
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self._max_workers = max_workers
        self._pool: Optional[_ThreadPool] = None

    def bind(self, classifiers: Mapping[str, EEGClassifier], clock: Clock) -> None:
        self._check_bind(classifiers)
        self._classifiers = dict(classifiers)
        self._clock = clock
        self._pool = _ThreadPool(
            max_workers=self._max_workers or len(classifiers),
            thread_name_prefix="flush-worker",
        )

    def submit_flush(self, cohort: str, prepared: PreparedBatch) -> _FutureTicket:
        classifier = self._classifier_for(cohort)
        assert self._pool is not None

        def run() -> ExecutionResult:
            return execute_windows(
                classifier,
                prepared.windows,
                prepared.chunk_size,
                self._clock,
                worker=threading.current_thread().name,
            )

        return _FutureTicket(self._pool.submit(run))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._classifiers = None


# ---------------------------------------------------------------------- #
# Process sharding
# ---------------------------------------------------------------------- #
class _ShardWorker:
    """One cohort worker's side of the pipe protocol, free of any transport.

    :meth:`start` builds the plan replica and returns the ready-handshake
    reply; :meth:`handle` answers one tagged message:

    - ``("flush", windows, chunk_size)`` → ``("ok", ExecutionResult)`` or
      ``("error", message)``;
    - ``("swap", version, payload)`` → builds the *new* replica fully
      (double-buffered: the old one keeps serving if the build fails) and
      flips to it between flushes, acking ``("swapped", version)`` or
      ``("swap-error", version, message)``;
    - ``("stall", duration_s)`` → sleeps on the worker's clock (slow-worker
      fault injection), acking ``("stalled", duration_s)``;
    - ``("crash-on-flush",)`` → acks ``("crash-armed",)``; the next flush
      then exits the worker without an answer (a mid-flush death).

    ``None`` means the worker has exited (:attr:`alive` turns False).  A
    worker is single-threaded, so a flip between flushes *is* atomic: no
    flush can ever observe a half-updated plan.  Service time is measured
    on the worker's own ``clock``; ``build`` turns a shipped payload into
    the replica it serves.
    """

    def __init__(
        self, worker_id: str, clock: Clock, build: Callable[[Any], EEGClassifier]
    ) -> None:
        self.worker_id = worker_id
        self.clock = clock
        self._build = build
        self._replica: Optional[EEGClassifier] = None
        self._version = 0
        self._crash_on_flush = False
        self.alive = True

    def start(self, payload: Any, plan_version: int, fail: bool = False) -> tuple:
        """Build the replica; ``("ready", worker_id)`` or ``("error", why)``."""
        try:
            if fail:
                raise RuntimeError("scripted start failure")
            self._replica = self._build(payload)
        except Exception as exc:  # noqa: BLE001 — report, do not crash silently
            self.alive = False
            return ("error", f"{type(exc).__name__}: {exc}")
        self._version = int(plan_version)
        return ("ready", self.worker_id)

    def handle(self, message: tuple) -> Optional[tuple]:
        tag = message[0]
        if tag == "flush":
            if self._crash_on_flush:
                self.alive = False
                return None
            _, windows, chunk_size = message
            try:
                execution = execute_windows(
                    self._replica,
                    windows,
                    chunk_size,
                    self.clock,
                    worker=self.worker_id,
                    plan_version=self._version,
                )
            except Exception as exc:  # noqa: BLE001
                return ("error", f"{type(exc).__name__}: {exc}")
            return ("ok", execution)
        if tag == "swap":
            _, version, payload = message
            try:
                fresh = self._build(payload)
            except Exception as exc:  # noqa: BLE001 — keep serving the old plan
                return ("swap-error", version, f"{type(exc).__name__}: {exc}")
            self._replica, self._version = fresh, int(version)
            return ("swapped", self._version)
        if tag == "stall":
            self.clock.sleep(float(message[1]))
            return ("stalled", float(message[1]))
        if tag == "crash-on-flush":
            self._crash_on_flush = True
            return ("crash-armed",)
        return ("error", f"unknown message tag {tag!r}")


def _build_replica(payload: bytes) -> EEGClassifier:
    from repro.models.compiled import CompiledClassifier

    replica = CompiledClassifier.from_payload(payload)
    # The worker owns this replica outright: let its plan pre-bind
    # zero-allocation arenas for the cohort's dominant flush sizes.
    replica.enable_auto_specialization()
    return replica


def _shard_worker_main(
    conn, cohort: str, payload: bytes, plan_version: int = 1, fail_start: bool = False
) -> None:
    """Child-process entry point: handshake, then ``recv → handle → send``.

    Runs on the system clock: an injected virtual clock cannot cross a
    process boundary.
    """
    worker = _ShardWorker(f"shard:{cohort}", SYSTEM_CLOCK, _build_replica)
    conn.send(worker.start(payload, plan_version, fail_start))
    while worker.alive:
        try:
            message = conn.recv()
        except EOFError:  # parent went away
            break
        if message is None:
            break
        reply = worker.handle(message)
        if reply is not None:
            conn.send(reply)
    conn.close()


class _ShardTicket:
    """Pending response from one shard worker's pipe."""

    def __init__(
        self,
        shard: "_Shard",
        timeout_s: Optional[float],
        executor: Optional["ProcessShardExecutor"] = None,
    ) -> None:
        self._shard = shard
        self._timeout_s = timeout_s
        self._executor = executor
        self._execution: Optional[ExecutionResult] = None

    def _died(self, detail: str) -> WorkerDiedError:
        self._shard.busy = False
        if self._executor is not None:
            self._executor._note_worker_death(self._shard)
        return WorkerDiedError(self._shard.cohort, pending=(self,), detail=detail)

    def done(self) -> bool:
        if self._execution is not None:
            return True
        try:
            return self._shard.conn.poll(0)
        except OSError:  # closed pipe: result() reports the dead worker
            return True

    def result(self, timeout: Optional[float] = None) -> ExecutionResult:
        if self._execution is not None:
            return self._execution
        timeout = self._timeout_s if timeout is None else timeout
        while True:
            try:
                answered = self._shard.conn.poll(timeout)
                message = self._shard.conn.recv() if answered else None
            except (EOFError, OSError):  # closed pipe, or EOF from a dead worker
                raise self._died("pipe closed") from None
            if message is None:
                if not self._shard.process.is_alive():
                    # The worker died mid-flush: the request will never be
                    # answered, so waiting longer only wedges the cohort.
                    raise self._died(f"exitcode {self._shard.process.exitcode}")
                raise TimeoutError(
                    f"shard worker {self._shard.cohort!r} did not answer within "
                    f"{timeout}s"
                )
            # Control acks (swap/stall issued while this flush was in
            # flight) arrive in pipe order ahead of or behind the flush
            # reply; fold them into parent-side state and keep reading.
            if self._shard.absorb_control(message):
                continue
            break
        self._shard.busy = False
        if message[0] == "error":
            raise FlushExecutionError(
                f"shard worker {self._shard.cohort!r} failed: {message[1]}"
            )
        self._execution = message[1]
        return self._execution


class _Shard:
    """Parent-side handle on one cohort's worker: its process and pipe, or
    the chaos loopback's stand-ins for both."""

    def __init__(self, cohort: str, process, conn, plan_version: int = 1) -> None:
        self.cohort = cohort
        self.process = process
        self.conn = conn
        self.busy = False
        #: Most recent ticket handed out; carried by :class:`WorkerDiedError`
        #: so a caller can recover the in-flight flush it maps to.
        self.ticket: Optional[_ShardTicket] = None
        #: Plan version the worker last acknowledged serving.
        self.plan_version = plan_version
        #: Version of a swap shipped while the worker was busy, until acked.
        self.pending_swap: Optional[int] = None
        #: Most recent worker-side swap failure (the old plan kept serving).
        self.swap_error: Optional[str] = None

    def absorb_control(self, message) -> bool:
        """Fold a control ack into parent state; True if it was one."""
        tag = message[0]
        if tag == "swapped":
            self.plan_version = int(message[1])
            if self.pending_swap == self.plan_version:
                self.pending_swap = None
            return True
        if tag == "swap-error":
            self.swap_error = str(message[2])
            if self.pending_swap == int(message[1]):
                self.pending_swap = None
            return True
        return tag in ("stalled", "crash-armed")


class ProcessShardExecutor(_BoundMixin):
    """One supervised worker process per cohort, each pinning a plan replica.

    Requires every cohort classifier to be transportable: a
    :class:`~repro.models.compiled.CompiledClassifier`, or a neural
    classifier whose ``ensure_compiled()`` yields one with a prepare spec.
    Workers never see the Module tree or autograd — they rebuild the fused
    kernels from the payload and serve those.

    Worker death is a recoverable event: the :class:`ShardSupervisor`
    schedules a respawn from the cohort's cached payload (capped
    exponential backoff + jitter), the executor re-runs the ready handshake
    on the next submit once the backoff elapses, and the in-flight flush is
    carried on the raised :class:`WorkerDiedError` so the scheduler can
    requeue it with a fresh deadline.  Past ``max_restarts`` deaths in the
    sliding window the cohort is quarantined
    (:class:`CohortQuarantinedError`) and the scheduler degrades it to an
    inline serial fallback.

    Parameters
    ----------
    mp_context:
        ``multiprocessing`` start method.  Defaults to ``"spawn"``: slower
        to start but immune to fork-after-threads hazards (the thread
        executor may have run in the same process) and identical across
        platforms.
    request_timeout_s:
        Default timeout a ticket waits for its worker before raising; the
        per-call ``result(timeout=...)`` overrides it.  ``None`` waits
        forever.
    start_timeout_s:
        How long :meth:`bind` (and every respawn) waits for a worker to
        reconstruct its plan and report ready.
    supervisor_config:
        Respawn/quarantine policy; defaults to :class:`SupervisorConfig`.
    """

    serializes_flushes = False
    remote_execution = True

    def __init__(
        self,
        mp_context: str = "spawn",
        request_timeout_s: Optional[float] = 60.0,
        start_timeout_s: float = 120.0,
        supervisor_config: Optional[SupervisorConfig] = None,
    ) -> None:
        super().__init__()
        self._ctx = multiprocessing.get_context(mp_context)
        self.request_timeout_s = request_timeout_s
        self.start_timeout_s = start_timeout_s
        self.supervisor_config = supervisor_config or SupervisorConfig()
        self.supervisor = ShardSupervisor(self.supervisor_config)
        self._shards: Dict[str, _Shard] = {}
        self._payloads: Dict[str, Any] = {}
        self._versions: Dict[str, int] = {}
        #: Cohorts whose next spawn fails its handshake (``respawn`` kills).
        self._fail_next_start: Set[str] = set()
        self.closed = False

    @staticmethod
    def _payload_for(cohort: str, classifier: EEGClassifier) -> Any:
        """What a cohort's worker is shipped to build its replica from."""
        from repro.models.compiled import CompiledClassifier

        compiled: Optional[CompiledClassifier]
        if isinstance(classifier, CompiledClassifier):
            compiled = classifier
        else:
            ensure = getattr(classifier, "ensure_compiled", None)
            compiled = ensure() if ensure is not None else None
        if compiled is None:
            raise ValueError(
                f"cohort {cohort!r}: process sharding needs a compiled "
                "inference plan (a CompiledClassifier or a neural classifier "
                f"with a compilable network); got {type(classifier).__name__}"
            )
        return compiled.to_payload()

    def bind(self, classifiers: Mapping[str, EEGClassifier], clock: Clock) -> None:
        if self.closed:
            raise ExecutorClosedError(
                "executor was shut down; build a fresh one instead of rebinding"
            )
        self._check_bind(classifiers)
        payloads = {
            cohort: self._payload_for(cohort, classifier)
            for cohort, classifier in classifiers.items()
        }
        self._classifiers = dict(classifiers)
        self._clock = clock  # supervisor timing; worker service uses its own
        self.supervisor = ShardSupervisor(self.supervisor_config, clock)
        self._payloads = payloads
        self._versions = {cohort: 1 for cohort in payloads}
        try:
            for cohort in payloads:
                self._shards[cohort] = self._spawn_process(cohort)
            deadline = time.monotonic() + self.start_timeout_s
            for shard in self._shards.values():
                self._await_ready(shard, deadline)
            for cohort in payloads:
                self.supervisor.watch(cohort)
        except Exception:
            self.shutdown()
            raise

    # ------------------------------------------------------------------ #
    # spawn / respawn machinery
    # ------------------------------------------------------------------ #
    def _spawn_args(self, cohort: str) -> Tuple[Any, int, bool]:
        """Payload, plan version and scripted start failure of a spawn."""
        fail_start = cohort in self._fail_next_start
        self._fail_next_start.discard(cohort)
        return self._payloads[cohort], self._versions[cohort], fail_start

    def _spawn_process(self, cohort: str) -> _Shard:
        payload, version, fail_start = self._spawn_args(cohort)
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, cohort, payload, version, fail_start),
            name=f"shard-{cohort}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Shard(cohort, process, parent_conn, plan_version=version)

    def _await_ready(self, shard: _Shard, deadline: float) -> None:
        remaining = max(0.0, deadline - time.monotonic())
        if not shard.conn.poll(remaining):
            raise FlushExecutionError(
                f"shard worker {shard.cohort!r} did not start within "
                f"{self.start_timeout_s}s"
            )
        message = shard.conn.recv()
        if message[0] != "ready":
            raise FlushExecutionError(
                f"shard worker {shard.cohort!r} failed to build its "
                f"plan replica: {message[1]}"
            )

    def _note_worker_death(self, shard: _Shard) -> str:
        """Record one death with the supervisor; returns the new state."""
        shard.busy = False
        return self.supervisor.record_death(shard.cohort)

    def _reap(self, shard: _Shard) -> None:
        """Release a dead shard's process/pipe resources, quietly."""
        try:
            shard.conn.close()
        except OSError:
            pass
        if shard.process.is_alive():
            shard.process.terminate()
        shard.process.join(timeout=5.0)

    def _respawn(self, cohort: str) -> None:
        """Respawn a cohort's worker from its cached payload (handshake too)."""
        old = self._shards.get(cohort)
        if old is not None:
            self._reap(old)
        try:
            # Tracked before the handshake, so a failed start is reaped by
            # the next respawn or by shutdown.
            self._shards[cohort] = shard = self._spawn_process(cohort)
            self._await_ready(shard, time.monotonic() + self.start_timeout_s)
        except FlushExecutionError as exc:
            state = self.supervisor.record_death(cohort)
            if state == WORKER_QUARANTINED:
                raise CohortQuarantinedError(
                    cohort,
                    deaths=self.supervisor.deaths_in_window(cohort),
                    window_s=self.supervisor_config.restart_window_s,
                ) from exc
            raise WorkerDiedError(
                cohort, detail=f"respawn failed: {exc}"
            ) from exc
        self.supervisor.record_respawn_success(cohort)

    # ------------------------------------------------------------------ #
    # supervision surface (the scheduler keys healing decisions off this)
    # ------------------------------------------------------------------ #
    def worker_state(self, cohort: str) -> str:
        """Supervisor state of the cohort lane (running/respawning/quarantined)."""
        return self.supervisor.state(cohort)

    def fleet_states(self) -> Dict[str, str]:
        return self.supervisor.states()

    def respawn_due_s(self, cohort: str) -> Optional[float]:
        """When the cohort's pending respawn becomes due (None if not pending)."""
        return self.supervisor.retry_at_s(cohort)

    def restart_count(self, cohort: str) -> int:
        return self.supervisor.restart_count(cohort)

    def plan_version(self, cohort: str) -> int:
        """Latest plan version shipped to (or cached for) the cohort."""
        return self._versions.get(cohort, 0)

    # ------------------------------------------------------------------ #
    # flush path
    # ------------------------------------------------------------------ #
    def submit_flush(self, cohort: str, prepared: PreparedBatch) -> _ShardTicket:
        if self.closed:
            raise ExecutorClosedError(
                f"cannot flush cohort {cohort!r}: executor was shut down"
            )
        self._classifier_for(cohort)  # raises on unknown cohort / unbound
        state = self.supervisor.state(cohort)
        if state == WORKER_QUARANTINED:
            raise CohortQuarantinedError(
                cohort,
                deaths=self.supervisor.deaths_in_window(cohort),
                window_s=self.supervisor_config.restart_window_s,
            )
        if state == WORKER_RESPAWNING:
            retry_at = self.supervisor.retry_at_s(cohort)
            assert retry_at is not None
            if self._clock.now() < retry_at:
                raise WorkerRespawnPending(cohort, retry_at)
            self._respawn(cohort)
        shard = self._shards[cohort]
        if shard.busy:
            raise FlushExecutionError(
                f"shard worker {cohort!r} already has a flush in flight; the "
                "scheduler must not double-flush a cohort"
            )
        if not shard.process.is_alive():
            # Idle death, detected at submit: any ticket the worker never
            # answered rides on the error so the caller can requeue it.
            unanswered = shard.ticket is not None and shard.ticket._execution is None
            self._note_worker_death(shard)
            raise WorkerDiedError(
                cohort,
                pending=(shard.ticket,) if unanswered else (),
                detail=f"exitcode {shard.process.exitcode}",
            )
        try:
            shard.conn.send(("flush", prepared.windows, prepared.chunk_size))
        except (BrokenPipeError, OSError):
            self._note_worker_death(shard)
            raise WorkerDiedError(cohort, detail="pipe closed") from None
        shard.busy = True
        shard.ticket = _ShardTicket(shard, self.request_timeout_s, executor=self)
        return shard.ticket

    # ------------------------------------------------------------------ #
    # plan hot-swap
    # ------------------------------------------------------------------ #
    def swap_plan(self, cohort: str, payload: Any) -> int:
        """Ship a new plan payload to the cohort's worker; returns its version.

        ``payload`` is transport bytes or a classifier object, which is
        lowered through :meth:`_payload_for` first.

        The worker double-buffers: it builds the new replica completely,
        then flips between flushes, so no flush ever observes a
        half-updated plan — a failed build keeps the old plan serving and
        surfaces as a :class:`FlushExecutionError` (idle worker) or on
        :meth:`last_swap_error` (swap shipped behind an in-flight flush).
        The payload also becomes the respawn image, so a worker that dies
        after the swap comes back on the *new* plan.
        """
        if self.closed:
            raise ExecutorClosedError(
                f"cannot swap cohort {cohort!r}: executor was shut down"
            )
        self._classifier_for(cohort)
        if isinstance(payload, (bytearray, memoryview)):
            payload = bytes(payload)
        elif not isinstance(payload, bytes):
            # A classifier object: lower it to what the transport ships so
            # callers can hand either form to any swap-capable executor.
            payload = self._payload_for(cohort, payload)
        version = self._versions[cohort] + 1
        self._versions[cohort] = version
        self._payloads[cohort] = payload
        shard = self._shards.get(cohort)
        if (
            shard is None
            or self.supervisor.state(cohort) != WORKER_RUNNING
            or not shard.process.is_alive()
        ):
            # Lane is down or respawning: the respawn serves the new image.
            return version
        try:
            shard.conn.send(("swap", version, payload))
        except (BrokenPipeError, OSError):
            self._note_worker_death(shard)
            return version
        if shard.busy:
            # In-order pipe: the worker answers the in-flight flush on the
            # old plan first, then flips; the ack folds in at harvest.
            shard.pending_swap = version
            return version
        self._await_swap_ack(shard, version)
        return version

    def _await_swap_ack(self, shard: _Shard, version: int) -> None:
        deadline = (
            None
            if self.request_timeout_s is None
            else time.monotonic() + self.request_timeout_s
        )
        while shard.plan_version < version:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                if not shard.conn.poll(remaining):
                    raise TimeoutError(
                        f"shard worker {shard.cohort!r} did not ack plan "
                        f"swap v{version} within {self.request_timeout_s}s"
                    )
                message = shard.conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                self._note_worker_death(shard)
                raise WorkerDiedError(
                    shard.cohort, detail="pipe closed during plan swap"
                ) from None
            if not shard.absorb_control(message):
                raise FlushExecutionError(
                    f"shard worker {shard.cohort!r} sent unexpected reply "
                    f"{message[0]!r} during plan swap"
                )
            if shard.swap_error is not None and shard.plan_version < version:
                error, shard.swap_error = shard.swap_error, None
                raise FlushExecutionError(
                    f"shard worker {shard.cohort!r} rejected plan swap "
                    f"v{version}: {error} (old plan keeps serving)"
                )

    def acked_plan_version(self, cohort: str) -> int:
        """Plan version the cohort's worker last acknowledged serving."""
        shard = self._shards.get(cohort)
        return shard.plan_version if shard is not None else 0

    def last_swap_error(self, cohort: str) -> Optional[str]:
        """Worker-side failure of a deferred swap, if one has surfaced."""
        shard = self._shards.get(cohort)
        return shard.swap_error if shard is not None else None

    # ------------------------------------------------------------------ #
    # fault injection surface (chaos harness)
    # ------------------------------------------------------------------ #
    def inject_kill(self, cohort: str, phase: str = "idle") -> None:
        """Kill the cohort's worker at a scripted point of its lifecycle.

        ``idle`` kills the worker now (``Process.kill`` sends SIGKILL); the
        next submit discovers the death.  ``mid-flush`` arms the worker to
        exit on its next flush without answering, so that flush's ticket
        raises :class:`WorkerDiedError` carrying it.  ``respawn`` (alias
        ``bind``) makes the cohort's next spawn answer its ready handshake
        with an error, failing that respawn.
        """
        if phase in ("respawn", "bind"):
            self._fail_next_start.add(cohort)
            return
        shard = self._shards.get(cohort)
        if shard is None or not shard.process.is_alive():
            return
        if phase == "mid-flush":
            try:
                shard.conn.send(("crash-on-flush",))
            except OSError:
                pass
            return
        shard.process.kill()
        shard.process.join(timeout=10.0)

    def inject_pipe_close(self, cohort: str) -> None:
        """Close the parent end of the cohort's pipe (transport loss)."""
        shard = self._shards.get(cohort)
        if shard is None:
            return
        try:
            shard.conn.close()
        except OSError:
            pass

    def inject_stall(self, cohort: str, duration_s: float) -> None:
        """Make the cohort's worker sleep before its next reply."""
        shard = self._shards.get(cohort)
        if shard is None:
            return
        try:
            shard.conn.send(("stall", float(duration_s)))
        except (BrokenPipeError, OSError):
            pass

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Stop every worker; idempotent, and terminal for this executor."""
        self.closed = True
        shards, self._shards = self._shards, {}
        for shard in shards.values():
            try:
                shard.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            try:
                shard.conn.close()
            except OSError:
                pass
        for shard in shards.values():
            shard.process.join(timeout=10.0)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=5.0)
        self._payloads = {}
        self._versions = {}
        self._classifiers = None
