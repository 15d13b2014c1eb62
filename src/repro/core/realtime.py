"""Real-time inference loop (paper §IV-A3).

Drives the (simulated) board forward in label-period steps, pulls the latest
classification window from the ring buffer, runs preprocessing and the
classifier, applies majority-vote smoothing and confidence gating, and emits
one :class:`InferenceTick` per label period — the 15 Hz action-label stream
the Arduino consumes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.acquisition.board import SimulatedCytonDaisyBoard
from repro.core.config import CognitiveArmConfig
from repro.models.base import EEGClassifier
from repro.signals.filters import PreprocessingPipeline
from repro.signals.synthetic import ACTION_IDLE
from repro.utils.timing import SYSTEM_CLOCK, Clock


@dataclass
class InferenceTick:
    """One output of the real-time loop."""

    time_s: float
    action: str
    confidence: float
    smoothed_action: str
    processing_latency_s: float

    def should_actuate(self, confidence_threshold: float) -> bool:
        """The actuation gate: move the arm only on a confident, non-idle label.

        Shared by the single-session pipeline and fleet serving so the two
        paths can never drift apart.
        """
        return (
            self.smoothed_action != ACTION_IDLE
            and self.confidence >= confidence_threshold
        )


class RealTimeInferenceLoop:
    """Window -> filter -> classify -> smooth, clocked at the label rate.

    The loop is built from two phases so the same primitives can serve either
    a single session (``tick`` runs both phases with an inline classifier
    call) or a fleet (``repro.serving`` runs phase one on every session,
    classifies all prepared windows in one micro-batch, then runs phase two
    per session):

    1. :meth:`prepare_window` — advance the board one label period and
       acquire the filtered classification window.
    2. :meth:`apply_result` — turn class probabilities for that window into
       a confidence-gated, majority-smoothed :class:`InferenceTick`.

    ``classifier`` may be ``None`` when the loop is only used through the
    two-phase API and classification happens elsewhere.
    """

    def __init__(
        self,
        board: SimulatedCytonDaisyBoard,
        classifier: Optional[EEGClassifier],
        config: Optional[CognitiveArmConfig] = None,
        class_names: Tuple[str, ...] = ("left", "right", "idle"),
        clock: Optional[Clock] = None,
    ) -> None:
        self.board = board
        self.classifier = classifier
        self.config = config or CognitiveArmConfig()
        self.clock = clock or SYSTEM_CLOCK
        if self.board.config.n_channels != self.config.n_channels:
            raise ValueError("Board channel count does not match system configuration")
        self.class_names = class_names
        self.preprocessing = PreprocessingPipeline(self.config.filter_settings)
        self._history: Deque[str] = deque(maxlen=self.config.smoothing_window)
        self.ticks: List[InferenceTick] = []
        # Zero-phase filtering of a bare classification window (~1 s) suffers
        # from edge transients, especially for the 0.5 Hz high-pass corner, so
        # the loop filters a longer rolling buffer and hands the classifier
        # only the trailing window — matching how the offline dataset was
        # filtered at session level before segmentation.
        self._filter_buffer_samples = max(
            self.config.window_size, int(3.0 * self.config.sampling_rate_hz)
        )
        self._prepare_latency_s = 0.0

    def warmup(self) -> None:
        """Advance the board until a full filter buffer is available."""
        needed = self._filter_buffer_samples - self.board.available_samples()
        if needed > 0:
            self.board.advance((needed + 1) / self.config.sampling_rate_hz)

    def prepare_window(self) -> np.ndarray:
        """Phase one: advance one label period and acquire the filtered window.

        Returns the ``(channels, window_size)`` array ready for
        ``predict_proba``.  The acquisition/filtering time is remembered and
        folded into the next :meth:`apply_result`'s processing latency.
        """
        cfg = self.config
        self.board.advance(cfg.label_period_s)
        if self.board.available_samples() < self._filter_buffer_samples:
            self.warmup()
        start = self.clock.now()
        buffer, _ = self.board.get_current_board_data(self._filter_buffer_samples)
        filtered = self.preprocessing.process(buffer)[:, -cfg.window_size:]
        self._prepare_latency_s = self.clock.now() - start
        return filtered

    def apply_result(
        self, probabilities: np.ndarray, classify_latency_s: float = 0.0
    ) -> InferenceTick:
        """Phase two: turn class probabilities into one smoothed action tick.

        ``classify_latency_s`` is the classification time attributable to this
        window (for a micro-batched call, the caller's per-window share); the
        tick's ``processing_latency_s`` is that plus the acquisition/filtering
        time measured by the matching :meth:`prepare_window`.

        Fails safe: a row with any NaN or inf (a corrupt window, a broken
        plan) yields ``ACTION_IDLE`` at zero confidence, so it can neither
        move the arm nor vote for a movement in the smoothing history.
        """
        cfg = self.config
        probabilities = np.asarray(probabilities, dtype=float)
        if not np.isfinite(probabilities).all():
            action, confidence = ACTION_IDLE, 0.0
        else:
            best = int(np.argmax(probabilities))
            confidence = float(probabilities[best])
            action = self.class_names[best]
            if confidence < cfg.confidence_threshold:
                action = ACTION_IDLE
        self._history.append(action)
        smoothed = self._majority_vote()
        tick = InferenceTick(
            time_s=self.board.sim_time_s,
            action=action,
            confidence=confidence,
            smoothed_action=smoothed,
            processing_latency_s=self._prepare_latency_s + classify_latency_s,
        )
        self._prepare_latency_s = 0.0
        self.ticks.append(tick)
        return tick

    def tick(self) -> InferenceTick:
        """Advance one label period and produce one action label."""
        if self.classifier is None:
            raise RuntimeError(
                "tick() needs a classifier; loops driven through the two-phase "
                "API (prepare_window/apply_result) classify externally"
            )
        window = self.prepare_window()
        start = self.clock.now()
        probabilities = self.classifier.predict_proba(window[None, :, :])[0]
        classify_latency = self.clock.now() - start
        return self.apply_result(probabilities, classify_latency)

    def run(self, duration_s: float) -> List[InferenceTick]:
        """Produce labels for ``duration_s`` of simulated time."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        n_ticks = int(round(duration_s * self.config.label_rate_hz))
        return [self.tick() for _ in range(n_ticks)]

    def _majority_vote(self) -> str:
        """Majority vote over the smoothing history.

        Tie-breaking rule: when several actions share the top vote count, the
        tie resolves toward the action whose most recent occurrence is latest
        in the history — the freshest evidence wins.  (Previously ties fell
        back on dict insertion order, i.e. whichever tied action entered the
        history first, which favoured stale predictions.)
        """
        votes: dict = {}
        last_seen: dict = {}
        for index, action in enumerate(self._history):
            votes[action] = votes.get(action, 0) + 1
            last_seen[action] = index
        return max(votes, key=lambda action: (votes[action], last_seen[action]))

    def mean_processing_latency_s(self) -> float:
        """Average per-label processing latency over the session so far."""
        if not self.ticks:
            return 0.0
        return float(np.mean([t.processing_latency_s for t in self.ticks]))

    def p95_processing_latency_s(self) -> float:
        """95th-percentile per-label processing latency.

        ``label_rate_achievable`` based on the mean hides tail stalls; the
        p95 is what a serving SLO budgets against.
        """
        if not self.ticks:
            return 0.0
        return float(
            np.percentile([t.processing_latency_s for t in self.ticks], 95)
        )

    def label_rate_achievable(self) -> bool:
        """Whether processing keeps up with the configured label rate."""
        return self.mean_processing_latency_s() <= self.config.label_period_s
