"""The fleet server: N lock-step sessions, one shared classifier.

``FleetServer`` is the lock-step alias of
:class:`~repro.serving.scheduler.AsyncFleetScheduler`: a single-cohort
scheduler clocked by :meth:`~repro.serving.scheduler.AsyncFleetScheduler.tick`
at the label rate.  Each tick runs the two-phase protocol — every attached
:class:`ServingSession` prepares its window (boards advance in lock-step
simulated time), all prepared windows are classified in one micro-batched
``predict_proba`` call, and each probability row goes back to the session
that produced the window.

Sessions may join and leave between ticks — mid-run churn is the normal
case, not an error — and fleets may mix heterogeneous participant profiles.
When a session stalls (produces no window), that tick's batch simply
shrinks, the other sessions are served on time, and the stalled session's
backlog is tracked in telemetry until it recovers.  The one thing the alias
adds is the lock-step clock check: every session must share the fleet's
label and sampling rates.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.config import CognitiveArmConfig
from repro.models.base import EEGClassifier
from repro.serving.scheduler import AsyncFleetScheduler
from repro.serving.telemetry import FleetReport
from repro.utils.timing import Clock


class FleetServer(AsyncFleetScheduler):
    """Schedules N serving sessions in lock-step against one classifier."""

    def __init__(
        self,
        classifier: EEGClassifier,
        config: Optional[CognitiveArmConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(classifier, config, clock=clock)

    def _check_session(self, session: Any) -> None:
        super()._check_session(session)
        if (
            session.config.label_rate_hz != self.config.label_rate_hz
            or session.config.sampling_rate_hz != self.config.sampling_rate_hz
        ):
            raise ValueError(
                "session clock does not match the fleet; all boards advance "
                "in lock-step simulated time at the fleet's label rate"
            )

    def run(self, duration_s: float) -> FleetReport:
        """Serve the whole fleet for ``duration_s`` of simulated time."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        n_ticks = int(round(duration_s * self.config.label_rate_hz))
        for _ in range(n_ticks):
            self.tick()
        return self.report()
