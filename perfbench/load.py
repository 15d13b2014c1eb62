"""Load generation: everything synthesised from the seed before the clock starts.

The system under test sees only what is built here.  EEG is synthesised with
the repo's :class:`~repro.signals.synthetic.SyntheticEEGGenerator` up front
and replayed into each board through :class:`ReplayGenerator`, so the
board's ring buffer and timestamping (the acquisition layer) stay on the
timed path while synthesis does not.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.signals.filters import PreprocessingPipeline
from repro.signals.montage import Montage
from repro.signals.synthetic import (
    ACTIONS,
    ParticipantProfile,
    SyntheticEEGGenerator,
)

#: Blink and EMG rates of the artifact-heavy half of a fleet, as multiples
#: of the participant's own rates.  ``remove_artifacts`` loops in Python over
#: every outlier sample, so this is the input property its cost depends on.
HEAVY_ARTIFACT_FACTOR = 4.0


class ReplayGenerator:
    """Drop-in for a board's ``generator``: serves pre-synthesised samples in order.

    ``generate`` returns the next ``round(duration_s * rate)`` samples and
    wraps around at the end of the recording, so a run never starves however
    fast the program gets.  ``cursor`` counts samples served so far.
    """

    def __init__(self, samples: np.ndarray, sampling_rate_hz: float) -> None:
        self.samples = samples
        self.sampling_rate_hz = float(sampling_rate_hz)
        self.cursor = 0

    def generate(
        self, duration_s: float, action: str = "idle", onset_elapsed_s: float = 0.0
    ) -> np.ndarray:
        n = int(round(duration_s * self.sampling_rate_hz))
        block = self.span(self.cursor, self.cursor + n)
        self.cursor += n
        return block

    def span(self, start: int, stop: int) -> np.ndarray:
        """Samples ``[start, stop)`` of the endless replay, as a fresh array."""
        length = self.samples.shape[1]
        lo = start % length
        if lo + (stop - start) <= length:
            return self.samples[:, lo : lo + (stop - start)].copy()
        return self.samples[:, np.arange(start, stop) % length]


#: Participant parameters (rhythms, artifact rates, noise levels) are drawn
#: from this fixed seed, so every run serves the same population and the
#: workload seed only changes the signal realisation and the task sequence.
#: Drawing the parameters from the run seed would make the filter chain's
#: cost, which depends on artifact rates, differ from seed to seed.
POPULATION_SEED = 1234


def participant_profiles(n: int, seed: int) -> List[ParticipantProfile]:
    """``n`` varied participants; every odd one is artifact-heavy."""
    profiles = ParticipantProfile.cohort(n, base_seed=POPULATION_SEED)
    realisations = np.random.default_rng(seed).integers(0, 2**31, size=n)
    for index, profile in enumerate(profiles):
        profile.seed = int(realisations[index])
        if index % 2:
            artifacts = profile.artifacts
            profile.artifacts = dataclasses.replace(
                artifacts,
                blink_rate_hz=artifacts.blink_rate_hz * HEAVY_ARTIFACT_FACTOR,
                emg_burst_rate_hz=artifacts.emg_burst_rate_hz * HEAVY_ARTIFACT_FACTOR,
            )
    return profiles


def synthesise_recording(
    profile: ParticipantProfile,
    duration_s: float,
    sampling_rate_hz: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Continuous EEG of one participant switching task every 2-4 s."""
    generator = SyntheticEEGGenerator(profile, Montage(), sampling_rate_hz)
    blocks = []
    elapsed = 0.0
    while elapsed < duration_s:
        phase = float(rng.uniform(2.0, 4.0))
        blocks.append(generator.generate(phase, ACTIONS[int(rng.integers(len(ACTIONS)))]))
        elapsed += phase
    return np.concatenate(blocks, axis=1)


#: Open-loop sessions' label clocks run at periods spread evenly over
#: +-CLOCK_DRIFT of the nominal one, as independent devices' clocks differ.
#: The drift sweeps every session through every phase relative to the
#: others several times per run; with fixed phases, the few phases a seed
#: draws would decide how often windows collide, and so the whole run's
#: latency.
CLOCK_DRIFT = 0.015


@dataclass
class SessionLoad:
    """One session's replayed EEG and, for open loops, its arrival schedule."""

    profile: ParticipantProfile
    samples: np.ndarray
    phase_s: float = 0.0
    period_s: float = 0.0


def fleet_load(
    n_sessions: int,
    seed: int,
    duration_s: float,
    sampling_rate_hz: float,
    period_s: float = 0.0,
) -> List[SessionLoad]:
    rng = np.random.default_rng(seed)
    drifts = np.linspace(-CLOCK_DRIFT, CLOCK_DRIFT, n_sessions) if n_sessions > 1 else [0.0]
    return [
        SessionLoad(
            profile=profile,
            samples=synthesise_recording(profile, duration_s, sampling_rate_hz, rng),
            phase_s=float(rng.uniform(0.0, period_s)) if period_s else 0.0,
            period_s=period_s * (1.0 + float(drift)),
        )
        for profile, drift in zip(participant_profiles(n_sessions, seed), drifts)
    ]


@dataclass
class WindowBank:
    """Already-filtered classification windows and the raw spans they came from."""

    windows: np.ndarray  # (n, channels, window_size), filtered
    raw: np.ndarray  # (n, channels, span), what the filter chain saw
    #: Per session, the bank index of each successive window it serves.
    orders: List[np.ndarray]
    #: The participants' continuous recordings the raw spans were cut from.
    recordings: List[np.ndarray]


def window_bank(
    n_windows: int,
    n_sessions: int,
    seed: int,
    window_size: int,
    span: int,
    sampling_rate_hz: float,
    pipeline: PreprocessingPipeline,
    n_participants: int = 8,
    order_length: int = 4096,
) -> WindowBank:
    """Filter ``n_windows`` raw spans from a few participants with the repo's chain."""
    rng = np.random.default_rng(seed)
    recordings = [
        synthesise_recording(profile, 20.0, sampling_rate_hz, rng)
        for profile in participant_profiles(n_participants, seed)
    ]
    raw = []
    for index in range(n_windows):
        recording = recordings[index % n_participants]
        start = int(rng.integers(0, recording.shape[1] - span))
        raw.append(recording[:, start : start + span])
    raw_arr = np.stack(raw)
    windows = np.stack([pipeline.process(r)[:, -window_size:] for r in raw_arr])
    orders = [rng.integers(0, n_windows, size=order_length) for _ in range(n_sessions)]
    return WindowBank(windows=windows, raw=raw_arr, orders=orders, recordings=recordings)
