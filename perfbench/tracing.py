"""Span tracing around the program's public entry points, and per-layer metrics.

The traced half of a run replaces each entry point with a wrapper that
records one span per call: name, start, end, parent span and the window it
belongs to.  Spans of one window share an id from ``prepare_window`` to
``apply_result``; batch-level spans (plan calls, batcher phases) carry none.
A span's self time is its duration minus the time its child spans cover.
Spans stay in memory and are written as JSONL when the run ends.  Every
wrapper is removed again when the traced half ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.acquisition.board import SimulatedCytonDaisyBoard
from repro.arm.controller import ArmController
from repro.core.realtime import RealTimeInferenceLoop
from repro.serving.batcher import MicroBatcher
from repro.serving.executors import SerialExecutor
from repro.serving.scheduler import AsyncFleetScheduler
from repro.serving.telemetry import FleetTelemetry
from repro.signals import filters
from repro.streams import StreamDuplex, WindowStream
from repro.streams.consumer import StreamConsumerScheduler
from repro.streams.producer import StreamFleetProducer

from perfbench.checks import WindowLedger

#: Top-level layers, named after the program's packages (plus the harness).
LAYERS = ("signals", "acquisition", "models", "serving", "streams", "core", "arm", "harness")


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``(id, parent, name, start, end, self_s, window)`` per span.
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._next_id = 1

    def wrap(
        self,
        name: str,
        fn: Callable,
        window_of: Optional[Callable] = None,
        note: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``window_of(args)`` names the window a call belongs to (default: the
        enclosing span's); ``note(args, result, start)`` runs after the span
        closes, outside its time.
        """
        spans = self.spans
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            if window_of is not None:
                window = window_of(args)
            else:
                window = parent[3] if parent is not None else None
            frame = [span_id, 0.0, 0.0, window]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                spans.append(
                    (span_id, parent[0] if parent is not None else None, name,
                     start, end, duration - frame[2], frame[3])
                )
            if note is not None:
                note(args, result, start)
            return result

        return traced

    def run(self, name: str, fn: Callable, *args):
        return self.wrap(name, fn)(*args)

    def write_jsonl(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "self", "window")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace attributes: ``targets`` is ``[(owner, attr, new)]``.

    ``owner`` is a class, a module or an instance; on exit each attribute is
    restored, or removed again where it was only inherited.
    """
    saved = []
    try:
        for owner, attr, new in targets:
            own = vars(owner)
            original = own.get(attr)
            if isinstance(original, staticmethod):
                new = staticmethod(new)
            saved.append((owner, attr, attr in own, original))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, had, original in reversed(saved):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Counters:
    """Counts taken where the work happens, alongside the spans."""

    def __init__(self) -> None:
        self.predict_rows = 0
        self.queue_waits_s: List[float] = []


def instrument(tracer: Tracer, system, counters: Counters):
    """Context manager tracing every entry point the system's window path uses."""
    ledger: WindowLedger = system.ledger
    session_cls = type(system.sessions[0])

    def method(owner, attr, name, **kwargs):
        original = getattr(owner, attr)
        if isinstance(vars(owner).get(attr), staticmethod):
            original = vars(owner)[attr].__func__
        return owner, attr, tracer.wrap(name, original, **kwargs)

    def new_window(args):
        session = args[0]
        return f"{session.session_id}#{session.tick_index}"

    def pending_window(args):
        return ledger.window_id_of(args[0])

    def count_rows(args, result, start):
        counters.predict_rows += int(np.shape(args[0])[0])

    def queue_waits(args, result, start):
        if result is None:
            return
        prepared_at = ledger.prepared_at
        counters.queue_waits_s.extend(start - prepared_at[sid] for sid in result.session_ids)

    targets = [
        method(AsyncFleetScheduler, "tick", "serving.scheduler"),
        method(AsyncFleetScheduler, "submit", "serving.scheduler"),
        method(AsyncFleetScheduler, "pump", "serving.scheduler"),
        method(AsyncFleetScheduler, "drain", "serving.scheduler"),
        method(AsyncFleetScheduler, "next_flush_due_s", "serving.scheduler"),
        method(StreamDuplex, "submit", "streams.duplex"),
        method(StreamDuplex, "pump", "streams.duplex"),
        method(StreamDuplex, "drain", "streams.duplex"),
        method(StreamFleetProducer, "submit", "streams.producer"),
        method(StreamFleetProducer, "harvest_results", "streams.producer"),
        method(StreamConsumerScheduler, "poll", "streams.consumer"),
        method(StreamConsumerScheduler, "pump", "streams.consumer"),
        method(StreamConsumerScheduler, "drain", "streams.consumer"),
        method(WindowStream, "append", "streams.append"),
        method(WindowStream, "read_group", "streams.read"),
        method(WindowStream, "ack", "streams.ack"),
        method(MicroBatcher, "prepare", "serving.batcher.prepare", note=queue_waits),
        method(MicroBatcher, "finalize", "serving.batcher.finalize"),
        method(SerialExecutor, "submit_flush", "serving.executor"),
        method(FleetTelemetry, "record", "serving.telemetry.record"),
        method(session_cls, "prepare_window", "serving.session.prepare", window_of=new_window),
        method(session_cls, "apply_result", "serving.session.apply", window_of=pending_window),
        method(WindowLedger, "on_prepare", "harness.ledger"),
        method(WindowLedger, "on_apply", "harness.ledger"),
        method(RealTimeInferenceLoop, "prepare_window", "core.realtime.prepare"),
        method(RealTimeInferenceLoop, "apply_result", "core.realtime.apply"),
        method(SimulatedCytonDaisyBoard, "advance", "acquisition.advance"),
        method(SimulatedCytonDaisyBoard, "get_current_board_data", "acquisition.read"),
        method(filters.PreprocessingPipeline, "process", "signals.filter"),
        method(filters, "bandpass_butterworth", "signals.bandpass"),
        method(filters, "notch_filter", "signals.notch"),
        method(filters, "remove_artifacts", "signals.artifacts"),
        method(ArmController, "apply_action", "arm.apply"),
    ]
    for classifier in system.classifiers.values():
        targets.append(method(classifier, "predict_proba", "models.predict", note=count_rows))
    return patched(targets)


def _pct_ms(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def layer_metrics(tracer: Tracer, counters: Counters, segment, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced segment (see NOTES.md for each)."""
    total: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for _, _, name, start, end, self_s, _ in tracer.spans:
        total[name] += end - start
        self_time[name] += self_s
        calls[name] += 1
    layer_self: Dict[str, float] = defaultdict(float)
    for name, value in self_time.items():
        layer_self[name.split(".", 1)[0]] += value
    all_self = sum(layer_self.values())
    windows = max(segment.attempted, 1)
    flushes = max(calls["serving.batcher.prepare"], 1)
    busy = segment.busy_s

    def per(name, denominator):
        return total[name] * 1e3 / denominator

    metrics = {
        "signals.filter_ms_per_window": per("signals.filter", windows),
        "signals.bandpass_ms_per_window": per("signals.bandpass", windows),
        "signals.notch_ms_per_window": per("signals.notch", windows),
        "signals.artifacts_ms_per_window": per("signals.artifacts", windows),
        "signals.filter_share": total["signals.filter"] / busy,
        "acquisition.advance_ms_per_window": per("acquisition.advance", windows),
        "acquisition.read_ms_per_window": per("acquisition.read", windows),
        "models.predict_ms_per_call": per("models.predict", max(calls["models.predict"], 1)),
        "models.predict_ms_per_window": per("models.predict", max(counters.predict_rows, 1)),
        "models.batch_size_mean": counters.predict_rows / max(calls["models.predict"], 1),
        "serving.batcher.prepare_ms_per_flush": per("serving.batcher.prepare", flushes),
        "serving.batcher.finalize_ms_per_flush": per("serving.batcher.finalize", flushes),
        "serving.scheduler.self_ms_per_window": self_time["serving.scheduler"] * 1e3 / windows,
        "serving.scheduler.queue_wait_p50_ms": _pct_ms(counters.queue_waits_s, 50),
        "serving.scheduler.queue_wait_p99_ms": _pct_ms(counters.queue_waits_s, 99),
        "streams.append_ms_per_window": per("streams.append", windows),
        "streams.read_ms_per_window": per("streams.read", windows),
        "streams.ack_ms_per_window": per("streams.ack", windows),
        "core.realtime.apply_ms_per_window": per("core.realtime.apply", max(segment.applied, 1)),
        "arm.actuation_ratio": calls["arm.apply"] / max(segment.applied, 1),
        "arm.apply_ms_per_actuation": per("arm.apply", max(calls["arm.apply"], 1)),
        "serving.telemetry.record_ms_per_flush": per("serving.telemetry.record", flushes),
        "harness.self_time_coverage": all_self / busy,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layer_self[layer] / all_self if all_self else 0.0
    metrics.update(extra)
    return metrics
