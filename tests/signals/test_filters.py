"""Tests for the preprocessing filter chain."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from repro.signals import filters
from repro.signals.filters import (
    FilterSettings,
    PreprocessingPipeline,
    bandpass_butterworth,
    notch_filter,
    remove_artifacts,
)
from repro.signals.quality import band_power, line_noise_power

FS = 125.0


def _tone(freq_hz, duration_s=4.0, fs=FS, amplitude=1.0):
    t = np.arange(int(duration_s * fs)) / fs
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


class TestBandpass:
    def test_passband_tone_preserved(self):
        x = _tone(10.0)
        y = bandpass_butterworth(x, FS)
        assert band_power(y, (8, 12), FS) > 0.5 * band_power(x, (8, 12), FS)

    def test_dc_drift_removed(self):
        x = _tone(10.0) + 50.0
        y = bandpass_butterworth(x, FS)
        assert abs(np.mean(y)) < 1.0

    def test_high_frequency_attenuated(self):
        x = _tone(55.0)
        y = bandpass_butterworth(x, FS)
        assert np.std(y) < 0.1 * np.std(x)

    def test_invalid_band_raises(self):
        with pytest.raises(ValueError):
            bandpass_butterworth(_tone(10.0), FS, low_hz=40.0, high_hz=10.0)

    def test_high_above_nyquist_raises(self):
        with pytest.raises(ValueError):
            bandpass_butterworth(_tone(10.0), FS, high_hz=70.0)

    def test_2d_input_filters_each_channel(self):
        x = np.vstack([_tone(10.0), _tone(55.0)])
        y = bandpass_butterworth(x, FS)
        assert y.shape == x.shape
        assert np.std(y[0]) > 5 * np.std(y[1])

    def test_3d_input_rejected(self):
        with pytest.raises(ValueError):
            bandpass_butterworth(np.zeros((2, 2, 2)), FS)


class TestNotch:
    def test_line_noise_removed(self):
        clean = _tone(10.0)
        noisy = clean + _tone(50.0, amplitude=2.0)
        filtered = notch_filter(noisy, FS)
        assert line_noise_power(filtered, 50.0, 1.0, FS) < 0.05 * line_noise_power(
            noisy, 50.0, 1.0, FS
        )

    def test_neighbouring_frequencies_preserved(self):
        x = _tone(10.0)
        y = notch_filter(x, FS)
        assert band_power(y, (8, 12), FS) > 0.8 * band_power(x, (8, 12), FS)

    def test_notch_at_nyquist_raises(self):
        with pytest.raises(ValueError):
            notch_filter(_tone(10.0), FS, notch_hz=70.0)

    def test_negative_notch_raises(self):
        with pytest.raises(ValueError):
            notch_filter(_tone(10.0), FS, notch_hz=-1.0)


class TestArtifactRemoval:
    def test_blink_spike_suppressed(self):
        x = _tone(10.0, amplitude=5.0)
        x[200:220] += 150.0
        cleaned = remove_artifacts(x, FS, amplitude_threshold_uv=60.0)
        assert np.abs(cleaned[200:220]).max() < 80.0

    def test_clean_signal_untouched(self):
        x = _tone(10.0, amplitude=5.0)
        cleaned = remove_artifacts(x, FS, amplitude_threshold_uv=60.0)
        np.testing.assert_allclose(cleaned, x)

    def test_multichannel_independent_cleaning(self):
        a = _tone(10.0, amplitude=5.0)
        b = a.copy()
        b[100] = 500.0
        cleaned = remove_artifacts(np.vstack([a, b]), FS)
        np.testing.assert_allclose(cleaned[0], a)
        assert abs(cleaned[1, 100]) < 60.0


class TestPipeline:
    def test_full_chain_improves_line_noise(self):
        x = _tone(10.0, amplitude=8.0) + _tone(50.0, amplitude=5.0) + 30.0
        pipeline = PreprocessingPipeline()
        y = pipeline(x[None, :])
        assert line_noise_power(y[0], 50.0, 1.0, FS) < 0.1 * line_noise_power(
            x, 50.0, 1.0, FS
        )

    def test_minimum_samples_positive(self):
        assert PreprocessingPipeline().minimum_samples() > 0

    @pytest.mark.parametrize("order", [2, 9, 12])
    def test_minimum_samples_is_the_shortest_accepted_length(self, order):
        pipeline = PreprocessingPipeline(FilterSettings(bandpass_order=order))
        n = pipeline.minimum_samples()
        x = np.random.default_rng(order).standard_normal((3, n))
        assert pipeline.process(x).shape == (3, n)
        with pytest.raises(ValueError, match="greater than padlen"):
            pipeline.process(x[:, :-1])

    def test_artifact_stage_can_be_disabled(self):
        settings_obj = FilterSettings(remove_artifacts=False)
        pipeline = PreprocessingPipeline(settings_obj)
        x = _tone(10.0, amplitude=5.0)[None, :]
        assert pipeline(x).shape == x.shape

    @settings(max_examples=20, deadline=None)
    @given(
        freq=st.floats(min_value=2.0, max_value=40.0),
        amplitude=st.floats(min_value=0.5, max_value=50.0),
    )
    def test_property_output_finite_and_bounded(self, freq, amplitude):
        """Filtering any in-band tone yields finite output of comparable scale."""
        x = _tone(freq, amplitude=amplitude)
        y = PreprocessingPipeline()(x[None, :])
        assert np.isfinite(y).all()
        assert np.abs(y).max() <= 3.0 * amplitude + 1.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_filtering_is_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 500))
        p = PreprocessingPipeline()
        np.testing.assert_allclose(p(x), p(x))


def _reference_chain(data, cfg):
    """The chain written directly against scipy, with the per-outlier loop."""
    arr = np.asarray(data, dtype=float)
    was_1d = arr.ndim == 1
    arr = np.atleast_2d(arr)
    fs = cfg.sampling_rate_hz
    nyquist = fs / 2.0
    sos = sps.butter(
        cfg.bandpass_order,
        [cfg.bandpass_low_hz / nyquist, cfg.bandpass_high_hz / nyquist],
        btype="band",
        output="sos",
    )
    out = sps.sosfiltfilt(sos, arr, axis=1)
    b, a = sps.iirnotch(cfg.notch_hz, cfg.notch_quality, fs=fs)
    out = sps.filtfilt(b, a, out, axis=1)
    if cfg.remove_artifacts:
        out = _reference_artifacts(
            out, fs, cfg.artifact_threshold_uv, cfg.artifact_window_s
        )
    return out[0] if was_1d else out


def _reference_artifacts(arr, fs, threshold, window_s):
    cleaned = np.array(arr, dtype=float)
    half = max(1, int(window_s * fs / 2))
    n_samples = cleaned.shape[1]
    for channel in cleaned:
        baseline = np.median(channel)
        for i in np.flatnonzero(np.abs(channel - baseline) > threshold):
            near = channel[max(0, i - half) : min(n_samples, i + half + 1)]
            good = near[np.abs(near - baseline) <= threshold]
            channel[i] = np.median(good) if good.size else baseline
    return cleaned


@st.composite
def _filter_settings(draw):
    return FilterSettings(
        bandpass_low_hz=draw(st.floats(0.1, 8.0)),
        bandpass_high_hz=draw(st.floats(15.0, 60.0)),
        bandpass_order=draw(st.integers(1, 12)),
        notch_hz=draw(st.floats(30.0, 62.0)),
        notch_quality=draw(st.floats(2.0, 60.0)),
        artifact_threshold_uv=draw(st.floats(1.0, 300.0)),
        artifact_window_s=draw(st.floats(0.0, 1.0)),
        remove_artifacts=draw(st.booleans()),
    )


def _eeg(seed, n_channels, n_samples, amplitude, density, run_length):
    """Noise plus a strong in-band tone, with artifact runs at ``density``.

    ``density`` is the share of samples inside an artifact run; 1.0 puts a
    whole channel out of threshold.  Runs of up to 80 samples are longer
    than the default 18-sample half-window.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / FS
    freq = rng.uniform(2.0, 45.0, size=(n_channels, 1))
    x = amplitude * np.sin(2 * np.pi * freq * t) + 5.0 * rng.standard_normal(
        (n_channels, n_samples)
    )
    n_runs = int(round(density * n_samples / run_length))
    for ch in range(n_channels):
        for start in rng.integers(0, n_samples, size=n_runs):
            x[ch, start : start + run_length] += rng.choice([-1.0, 1.0]) * rng.uniform(
                100.0, 2000.0
            )
    return x


class TestChainEquivalence:
    """``process`` is bit-identical (no tolerance) to the scipy reference."""

    @settings(max_examples=120, deadline=None)
    @given(
        cfg=_filter_settings(),
        seed=st.integers(0, 2**32 - 1),
        two_d=st.booleans(),
        n_channels=st.integers(1, 4),
        extra=st.integers(0, 600),
        amplitude=st.floats(0.0, 1500.0),
        density=st.sampled_from([0.0, 0.01, 0.1, 0.4, 1.0]),
        run_length=st.integers(1, 80),
    )
    @example(  # the paper's settings, blink runs longer than the half-window
        cfg=FilterSettings(), seed=1, two_d=True, n_channels=4, extra=300,
        amplitude=20.0, density=0.4, run_length=60,
    )
    @example(  # whole channels out of threshold: empty neighbourhoods
        cfg=FilterSettings(artifact_threshold_uv=5.0, artifact_window_s=0.01),
        seed=2, two_d=True, n_channels=2, extra=200,
        amplitude=1500.0, density=1.0, run_length=80,
    )
    def test_process_matches_scipy_reference(
        self, cfg, seed, two_d, n_channels, extra, amplitude, density, run_length
    ):
        pipeline = PreprocessingPipeline(cfg)
        n_samples = min(pipeline.minimum_samples() + extra, 600)
        x = _eeg(seed, n_channels if two_d else 1, n_samples, amplitude, density, run_length)
        if not two_d:
            x = x[0]
        out = pipeline.process(x)
        assert out.shape == x.shape
        assert np.array_equal(out, _reference_chain(x, cfg))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_samples=st.integers(1, 400),
        threshold=st.floats(0.0, 200.0),
        window_s=st.floats(0.0, 1.0),
        density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        run_length=st.integers(1, 80),
    )
    def test_artifact_rule_matches_reference(
        self, seed, n_samples, threshold, window_s, density, run_length
    ):
        x = _eeg(seed, 3, n_samples, 30.0, density, run_length)
        expected = _reference_artifacts(x, FS, threshold, window_s)
        assert np.array_equal(remove_artifacts(x, FS, threshold, window_s), expected)

    def test_empty_neighbourhood_falls_back_to_the_baseline(self):
        """Every sample out of threshold: the first becomes the baseline."""
        x = np.tile([-500.0, 500.0], 20)[None, :]
        cleaned = remove_artifacts(x, FS, amplitude_threshold_uv=60.0, window_s=0.02)
        assert cleaned[0, 0] == np.median(x) == 0.0
        assert np.array_equal(cleaned, _reference_artifacts(x, FS, 60.0, 0.02))

    def test_each_filter_is_designed_once_per_settings(self, monkeypatch):
        calls = {}
        for name in ("butter", "iirnotch", "sosfilt_zi", "lfilter_zi"):
            original = getattr(sps, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(sps, name, counted)
        filters._bandpass_design.cache_clear()
        filters._notch_design.cache_clear()
        pipeline = PreprocessingPipeline()
        x = np.random.default_rng(0).standard_normal((4, 375))
        for _ in range(100):
            pipeline.process(x)
        assert calls == {"butter": 1, "iirnotch": 1, "sosfilt_zi": 1, "lfilter_zi": 1}

    def test_changed_settings_take_effect_on_the_next_call(self):
        x = np.random.default_rng(3).standard_normal((2, 375)) * 20.0
        pipeline = PreprocessingPipeline()
        before = pipeline.process(x)
        pipeline.settings.notch_hz = 40.0
        after = pipeline.process(x)
        fresh = PreprocessingPipeline(FilterSettings(notch_hz=40.0)).process(x)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, fresh)

    def test_cached_designs_are_read_only(self):
        sos, zi, _ = filters._bandpass_design(FS, 0.5, 45.0, 9)
        b, a, notch_zi, _ = filters._notch_design(FS, 50.0, 30.0)
        for array in (sos, zi, b, a, notch_zi):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
