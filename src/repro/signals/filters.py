"""Preprocessing filters used by CognitiveArm (Section III-A3 of the paper).

The paper applies, in order:

1. a 9th-order Butterworth band-pass retaining 0.5-45 Hz,
2. a 50 Hz notch filter with quality factor 30, and
3. BrainFlow-style artifact removal for eye blinks and muscle activity.

These are implemented here on top of :mod:`scipy.signal`, operating on
``(n_channels, n_samples)`` arrays so the same functions serve offline dataset
preparation and the real-time pipeline.

The real-time path filters every window of every session, so each filter is
designed once per parameter set (coefficients, initial conditions and pad
length, cached and read-only) rather than once per call.  The forward-backward
passes repeat scipy's own steps with the cached designs, so every stage's
output is bit-identical to ``butter`` + ``sosfiltfilt``, ``iirnotch`` +
``filtfilt`` and the per-outlier median rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import signal as sps


def _as_2d(data: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Promote a 1-D signal to a single-channel 2-D array."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise ValueError("EEG data must be 1-D (samples) or 2-D (channels, samples)")


def _frozen(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Mark cached design arrays read-only so no caller can corrupt them."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=32, typed=True)
def _bandpass_design(
    fs: float, low: float, high: float, order: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Butterworth band-pass ``(sos, sosfilt_zi, padlen)`` for one parameter set.

    ``zi`` is shaped ``(n_sections, 1, 2)`` to broadcast over channels, and
    ``padlen`` is :func:`scipy.signal.sosfiltfilt`'s default pad.
    """
    if not 0 < low < high:
        raise ValueError("Require 0 < low_hz < high_hz")
    nyquist = fs / 2.0
    if high >= nyquist:
        raise ValueError("high_hz must be below the Nyquist frequency")
    sos = sps.butter(order, [low / nyquist, high / nyquist], btype="band", output="sos")
    ntaps = 2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    sos, zi = _frozen(sos, sps.sosfilt_zi(sos)[:, None, :])
    return sos, zi, 3 * int(ntaps)


@lru_cache(maxsize=32, typed=True)
def _notch_design(
    fs: float, f0: float, q: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """IIR notch ``(b, a, lfilter_zi, padlen)`` for one parameter set.

    ``zi`` is shaped ``(1, order)`` to broadcast over channels, and
    ``padlen`` is :func:`scipy.signal.filtfilt`'s default pad.
    """
    if f0 <= 0:
        raise ValueError("notch_hz must be positive")
    if f0 >= fs / 2.0:
        raise ValueError("notch_hz must be below the Nyquist frequency")
    b, a = sps.iirnotch(f0, q, fs=fs)
    b, a, zi = _frozen(b, a, sps.lfilter_zi(b, a)[None, :])
    return b, a, zi, 3 * max(len(a), len(b))


def _forward_backward(
    arr: np.ndarray,
    zi: np.ndarray,
    padlen: int,
    step: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """scipy's "pad" filtfilt along axis 1, with precomputed initial conditions.

    Odd-extend by ``padlen``, filter forward from ``zi`` scaled by the first
    sample, filter the reversed output from ``zi`` scaled by its first
    sample, reverse and trim: the same operations, in the same order, as
    :func:`scipy.signal.sosfiltfilt` / :func:`scipy.signal.filtfilt`.
    """
    if arr.shape[1] <= padlen:
        raise ValueError(
            "The length of the input vector x must be greater than padlen, "
            f"which is {padlen}."
        )
    left = 2 * arr[:, :1] - arr[:, padlen:0:-1]
    right = 2 * arr[:, -1:] - arr[:, -2 : -(padlen + 2) : -1]
    ext = np.concatenate((left, arr, right), axis=1)
    y, _ = step(ext, zi * ext[:, :1])
    y, _ = step(y[:, ::-1], zi * y[:, -1:])
    return y[:, ::-1][:, padlen:-padlen]


def bandpass_butterworth(
    data: np.ndarray,
    sampling_rate_hz: float = 125.0,
    low_hz: float = 0.5,
    high_hz: float = 45.0,
    order: int = 9,
) -> np.ndarray:
    """Apply the paper's 9th-order Butterworth band-pass (0.5-45 Hz).

    The filter is applied forward-backward (zero phase) using second-order
    sections for numerical stability at high order.  The design is cached per
    parameter set; the output equals :func:`scipy.signal.sosfiltfilt`'s.
    """
    sos, zi, padlen = _bandpass_design(sampling_rate_hz, low_hz, high_hz, order)
    arr, was_1d = _as_2d(data)
    # scipy's compiled sosfilt kernel only takes a writable coefficient buffer.
    sos = sos.copy()
    filtered = _forward_backward(
        arr, zi, padlen, lambda x, z: sps.sosfilt(sos, x, axis=1, zi=z)
    )
    return filtered[0] if was_1d else filtered


def notch_filter(
    data: np.ndarray,
    sampling_rate_hz: float = 125.0,
    notch_hz: float = 50.0,
    quality_factor: float = 30.0,
) -> np.ndarray:
    """Apply the paper's 50 Hz notch filter with quality factor 30.

    The design is cached per parameter set; the output equals
    :func:`scipy.signal.filtfilt`'s.
    """
    b, a, zi, padlen = _notch_design(sampling_rate_hz, notch_hz, quality_factor)
    arr, was_1d = _as_2d(data)
    filtered = _forward_backward(
        arr, zi, padlen, lambda x, z: sps.lfilter(b, a, x, axis=1, zi=z)
    )
    return filtered[0] if was_1d else filtered


def remove_artifacts(
    data: np.ndarray,
    sampling_rate_hz: float = 125.0,
    amplitude_threshold_uv: float = 60.0,
    window_s: float = 0.3,
) -> np.ndarray:
    """Suppress high-amplitude transient artifacts (blinks, EMG bursts).

    This reproduces the role of BrainFlow's standard signal-cleaning helpers:
    samples whose magnitude exceeds ``amplitude_threshold_uv`` (after removing
    the channel median) are replaced by a local median computed over a
    ``window_s`` neighbourhood, which removes blink/EMG spikes while leaving
    the ongoing rhythms untouched.

    Outliers are replaced left to right, so earlier replacements feed later
    neighbourhoods; a neighbourhood with no in-threshold sample falls back to
    the channel median.  Baselines and outlier masks are computed for all
    channels at once and the replacement scan runs on Python floats; its
    medians are bit-equal to :func:`numpy.median`'s.
    """
    arr, was_1d = _as_2d(data)
    cleaned = arr.copy()
    half = max(1, int(window_s * sampling_rate_hz / 2))
    threshold = float(amplitude_threshold_uv)
    baselines = np.median(arr, axis=1)
    outliers = np.abs(arr - baselines[:, None]) > threshold
    for ch in np.flatnonzero(outliers.any(axis=1)):
        baseline = float(baselines[ch])
        channel = cleaned[ch].tolist()
        for i in np.flatnonzero(outliers[ch]).tolist():
            good = [
                v
                for v in channel[max(0, i - half) : i + half + 1]
                if abs(v - baseline) <= threshold
            ]
            good.sort()
            mid, odd = divmod(len(good), 2)
            if odd:
                channel[i] = good[mid]
            elif good:
                channel[i] = (good[mid - 1] + good[mid]) / 2
            else:
                channel[i] = baseline
        cleaned[ch] = channel
    return cleaned[0] if was_1d else cleaned


@dataclass
class FilterSettings:
    """Configuration of the full preprocessing chain."""

    sampling_rate_hz: float = 125.0
    bandpass_low_hz: float = 0.5
    bandpass_high_hz: float = 45.0
    bandpass_order: int = 9
    notch_hz: float = 50.0
    notch_quality: float = 30.0
    artifact_threshold_uv: float = 60.0
    artifact_window_s: float = 0.3
    remove_artifacts: bool = True


class PreprocessingPipeline:
    """The complete Butterworth -> notch -> artifact-removal chain.

    Instances are stateless with respect to the data (each call processes a
    complete segment), which matches the paper's windowed real-time operation:
    each classification window is filtered independently.

    ``settings`` is read on every call, so a changed field takes effect on
    the next one; the filter designs behind it are cached per parameter set,
    and the output is bit-identical to the chain written directly against
    :func:`scipy.signal.sosfiltfilt` and :func:`scipy.signal.filtfilt`.
    """

    def __init__(self, settings: Optional[FilterSettings] = None) -> None:
        self.settings = settings or FilterSettings()

    def __call__(self, data: np.ndarray) -> np.ndarray:
        return self.process(data)

    def process(self, data: np.ndarray) -> np.ndarray:
        """Run the full preprocessing chain on ``(channels, samples)`` data."""
        cfg = self.settings
        out = bandpass_butterworth(
            data,
            sampling_rate_hz=cfg.sampling_rate_hz,
            low_hz=cfg.bandpass_low_hz,
            high_hz=cfg.bandpass_high_hz,
            order=cfg.bandpass_order,
        )
        out = notch_filter(
            out,
            sampling_rate_hz=cfg.sampling_rate_hz,
            notch_hz=cfg.notch_hz,
            quality_factor=cfg.notch_quality,
        )
        if cfg.remove_artifacts:
            out = remove_artifacts(
                out,
                sampling_rate_hz=cfg.sampling_rate_hz,
                amplitude_threshold_uv=cfg.artifact_threshold_uv,
                window_s=cfg.artifact_window_s,
            )
        return out

    def minimum_samples(self) -> int:
        """Smallest segment length :meth:`process` accepts.

        Each zero-phase filter needs a segment longer than its pad length.
        """
        cfg = self.settings
        *_, bandpass_pad = _bandpass_design(
            cfg.sampling_rate_hz, cfg.bandpass_low_hz, cfg.bandpass_high_hz, cfg.bandpass_order
        )
        *_, notch_pad = _notch_design(cfg.sampling_rate_hz, cfg.notch_hz, cfg.notch_quality)
        return max(bandpass_pad, notch_pad) + 1
