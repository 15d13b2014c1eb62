"""The benchmark's own checks must catch bad output, not just pass clean runs.

A tiny fleet (two sessions) runs through the same set-up, load loop, ledger and
checks the benchmark uses; one NaN window, or one corrupted probability row,
must come out as exactly one failed window.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import checks, tracing
from perfbench.workloads import FleetLockstep, set_up
from repro.nn import autotune
from repro.signals import filters
from repro.signals.filters import FilterSettings, PreprocessingPipeline

STEPS = 4


class TinyFleet(FleetLockstep):
    n_sessions = 2


@pytest.fixture()
def fleet():
    # set_up installs a fresh in-memory autotune cache per set-up; give the
    # process-wide default back to later tests.
    previous = autotune.set_default_cache(None)
    workload = TinyFleet(seed=3, seconds=1.0)
    workload.generate_load()
    system, _, _ = set_up(workload)
    yield workload, system
    system.shutdown()
    autotune.set_default_cache(previous)


def _run(workload, system):
    for _ in range(STEPS):
        workload.step(system, due=0.0)
    system.shutdown()
    return checks.check_outputs(
        system.ledger, system.accounted(), system.config.filter_settings, system.classifiers
    )


def test_clean_run_passes_every_check(fleet):
    workload, system = fleet
    report = _run(workload, system)
    assert report.correct
    assert report.failed == 0 and report.conservation_gap == 0
    assert report.attempted == (STEPS + 2) * 2  # two warm-up ticks in set-up
    assert report.samples_checked >= 1


def test_nan_window_counts_as_one_failure(fleet):
    workload, system = fleet
    session = system.sessions[0]
    original = type(session).prepare_window
    poisoned = []

    def prepare_with_nan(self):
        window = original(self)
        if not poisoned:
            window[0, 0] = np.nan
            poisoned.append(self.ledger.window_id_of(self))
        return window

    session.prepare_window = prepare_with_nan.__get__(session)
    report = _run(workload, system)
    assert report.failed == 1 and not report.correct
    assert poisoned[0] in system.ledger.failed
    # ``apply_result`` compares a NaN confidence against the threshold, which
    # is False, so the row becomes the argmax-of-NaN action instead of idle
    # (the known NaN bug in ROADMAP.md).  The report counts such labels
    # rather than hiding them, whichever way the program behaves.
    nan_tick = session.ticks[2]
    assert report.non_finite_non_idle == int(nan_tick.action != "idle")


def test_corrupted_probability_row_counts_as_one_failure(fleet):
    workload, system = fleet
    classifier = system.classifiers["default"]
    original = classifier.predict_proba
    corrupted = []

    def predict_then_corrupt(windows):
        probabilities = np.array(original(windows))
        if not corrupted:
            probabilities[1] *= 2.0
            corrupted.append(True)
        return probabilities

    classifier.predict_proba = predict_then_corrupt
    try:
        report = _run(workload, system)
    finally:
        del classifier.predict_proba
    assert report.failed == 1 and report.bad_rows == 1 and not report.correct


def test_reference_chain_matches_the_pipeline_on_artifacts():
    rng = np.random.default_rng(0)
    raw = 10 * rng.standard_normal((4, 375))
    raw[1, 100:140] += 300.0  # a blink-sized excursion the median rule replaces
    settings = FilterSettings()
    expected = PreprocessingPipeline(settings).process(raw)
    np.testing.assert_allclose(checks.reference_preprocess(raw, settings), expected,
                               rtol=0, atol=checks.WINDOW_ATOL_UV)


def test_tracing_restores_every_entry_point(fleet):
    workload, system = fleet
    before = filters.bandpass_butterworth
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, system, tracing.Counters()):
        workload.step(system, due=0.0)
        assert filters.bandpass_butterworth is not before
    assert filters.bandpass_butterworth is before
    assert "predict_proba" not in vars(system.classifiers["default"])
    names = {span[2] for span in tracer.spans}
    assert {"signals.bandpass", "models.predict", "serving.session.apply"} <= names


def test_command_fails_without_the_program(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-lockstep-32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
