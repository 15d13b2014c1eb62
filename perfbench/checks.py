"""Output checks: every label is accounted for, every row is a distribution,
and a fixed sample of windows matches an independent recomputation.

A window that fails any check is one failed operation, counted against the
windows attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np
from scipy import signal as sps

from repro.signals.filters import FilterSettings

#: The real-time loop filters a rolling buffer of this many seconds (at least
#: one window) and classifies its trailing window; the recomputation filters
#: the same span of replayed samples.
FILTER_SPAN_S = 3.0

#: Largest difference allowed between a served window and its scipy
#: recomputation, in microvolts (signals are tens of microvolts).  Loose
#: enough for a reordered or batched filter, tight enough to catch any real
#: change to the chain.
WINDOW_ATOL_UV = 1e-6

#: Largest difference allowed between served probabilities (float32 plan)
#: and the float64 autograd path on the recomputed window.
PROBABILITY_ATOL = 1e-4

#: A probability row must sum to one within this.
ROW_SUM_ATOL = 1e-6

#: One window in this many is recomputed, up to ``MAX_SAMPLES`` per run.
SAMPLE_EVERY = 37
MAX_SAMPLES = 48


def filter_span(settings: FilterSettings, window_size: int) -> int:
    return max(window_size, int(FILTER_SPAN_S * settings.sampling_rate_hz))


def reference_preprocess(raw: np.ndarray, settings: FilterSettings) -> np.ndarray:
    """The paper's filter chain written directly against scipy.

    Butterworth band-pass (``butter`` + ``sosfiltfilt``), notch (``iirnotch``
    + ``filtfilt``), then the median-replacement rule: a sample further than
    the threshold from its channel median is replaced by the median of the
    in-threshold samples around it (the channel median when there are none),
    scanning left to right so earlier replacements feed later neighbourhoods.
    """
    fs = settings.sampling_rate_hz
    nyquist = fs / 2.0
    sos = sps.butter(
        settings.bandpass_order,
        [settings.bandpass_low_hz / nyquist, settings.bandpass_high_hz / nyquist],
        btype="band",
        output="sos",
    )
    out = sps.sosfiltfilt(sos, np.asarray(raw, dtype=float), axis=1)
    b, a = sps.iirnotch(settings.notch_hz, settings.notch_quality, fs=fs)
    out = sps.filtfilt(b, a, out, axis=1)
    if not settings.remove_artifacts:
        return out
    threshold = settings.artifact_threshold_uv
    half = max(1, int(settings.artifact_window_s * fs / 2))
    n = out.shape[1]
    for channel in out:
        baseline = np.median(channel)
        for i in np.flatnonzero(np.abs(channel - baseline) > threshold):
            near = channel[max(0, i - half) : min(n, i + half + 1)]
            good = near[np.abs(near - baseline) <= threshold]
            channel[i] = np.median(good) if good.size else baseline
    return out


def row_ok(probabilities: np.ndarray, n_classes: int) -> bool:
    p = np.asarray(probabilities)
    return (
        p.shape == (n_classes,)
        and bool(np.isfinite(p).all())
        and abs(float(p.sum()) - 1.0) <= ROW_SUM_ATOL
    )


@dataclass
class Sample:
    """One window kept for recomputation."""

    window_id: str
    cohort: str
    window: np.ndarray
    raw: np.ndarray
    probabilities: Optional[np.ndarray] = None


@dataclass
class Segment:
    """What one timed stretch of a run produced."""

    attempted: int = 0
    applied: int = 0
    on_time: int = 0
    busy_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    generator_lags_s: List[float] = field(default_factory=list)
    #: Labels applied per busy second: one per closed-loop step, one for a
    #: whole open-loop run.
    step_rates: List[float] = field(default_factory=list)


class WindowLedger:
    """Harness-side bookkeeping of every window from prepare to apply.

    The load loop sets :attr:`due` before each call that prepares windows (the
    tick or round start in a closed loop, the scheduled arrival in an open
    loop); the bench sessions report each prepared
    window and each applied label here.  A label is on time when it is valid
    and applied within one label period of due.
    """

    def __init__(self, period_s: float, n_classes: int, raw_of: Callable, clock) -> None:
        self.period_s = period_s
        self.clock = clock
        self.n_classes = n_classes
        #: ``raw_of(session, window_index) -> (cohort, raw span)`` for samples.
        self.raw_of = raw_of
        self.due = 0.0
        self.segment = Segment()
        self.pending: Dict[str, Tuple[str, float]] = {}
        self.prepared_at: Dict[str, float] = {}
        self.failed: Set[str] = set()
        self.samples: Dict[str, Sample] = {}
        self.prepared_total = 0
        self.applied_total = 0
        self.stalled = 0
        self.non_finite_non_idle = 0

    def new_segment(self) -> Segment:
        self.segment = Segment()
        return self.segment

    def on_prepare(self, session, window: Optional[np.ndarray]) -> None:
        self.prepared_total += 1
        if window is None:
            self.stalled += 1
            return
        sid = session.session_id
        index = session.tick_index - 1
        window_id = f"{sid}#{index}"
        self.pending[sid] = (window_id, self.due)
        self.prepared_at[sid] = self.clock.now()
        self.segment.attempted += 1
        if self.prepared_total % SAMPLE_EVERY == 1 and len(self.samples) < MAX_SAMPLES:
            cohort, raw = self.raw_of(session, index)
            self.samples[window_id] = Sample(window_id, cohort, window.copy(), raw)

    def window_id_of(self, session) -> Optional[str]:
        pending = self.pending.get(session.session_id)
        return pending[0] if pending else None

    def on_apply(self, session, probabilities: np.ndarray, tick) -> None:
        now = self.clock.now()
        window_id, due = self.pending.pop(session.session_id)
        latency = now - due
        segment = self.segment
        segment.applied += 1
        segment.latencies_s.append(latency)
        self.applied_total += 1
        if row_ok(probabilities, self.n_classes):
            segment.on_time += latency <= self.period_s
        else:
            self.failed.add(window_id)
            if tick.action != "idle" and not np.isfinite(probabilities).all():
                self.non_finite_non_idle += 1
        sample = self.samples.get(window_id)
        if sample is not None:
            sample.probabilities = np.array(probabilities, dtype=float)


@dataclass
class CheckReport:
    attempted: int
    failed: int
    conservation_gap: int
    bad_rows: int
    samples_checked: int
    sample_failures: int
    max_window_err_uv: float
    max_probability_err: float
    #: Non-finite rows that still came out as a non-idle action label.
    non_finite_non_idle: int

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def check_outputs(
    ledger: WindowLedger,
    accounted: Dict[str, int],
    settings: FilterSettings,
    classifiers: Dict[str, object],
) -> CheckReport:
    """Conservation, row validity and sampled recomputation, as failed windows.

    ``accounted`` holds the program's own counts of windows it shed,
    superseded or stalled; with the labels applied they must add up to the
    windows attempted.
    """
    failed = set(ledger.failed)
    bad_rows = len(failed)
    max_window_err = 0.0
    max_prob_err = 0.0
    checked = 0
    for sample in ledger.samples.values():
        if sample.probabilities is None:
            continue  # superseded or shed before a label came back
        checked += 1
        reference = reference_preprocess(sample.raw, settings)[:, -sample.window.shape[1] :]
        window_err = float(np.max(np.abs(reference - sample.window)))
        probs = classifiers[sample.cohort].predict_proba_autograd(reference[None])[0]
        prob_err = float(np.max(np.abs(probs - sample.probabilities)))
        if not (window_err <= WINDOW_ATOL_UV and prob_err <= PROBABILITY_ATOL):
            failed.add(sample.window_id)
        max_window_err = max(max_window_err, window_err)
        max_prob_err = max(max_prob_err, prob_err)
    lost = ledger.prepared_total - ledger.applied_total - sum(accounted.values())
    return CheckReport(
        attempted=ledger.prepared_total,
        failed=len(failed) + abs(lost),
        conservation_gap=lost,
        bad_rows=bad_rows,
        samples_checked=checked,
        sample_failures=len(failed) - bad_rows,
        max_window_err_uv=max_window_err,
        max_probability_err=max_prob_err,
        non_finite_non_idle=ledger.non_finite_non_idle,
    )
