"""Tests for the annotation stage."""

import numpy as np
import pytest

from repro.dataset.annotation import TRANSITION_LABEL, AnnotationConfig, Annotator
from repro.dataset.protocol import CueEvent, ExperimentalProtocol, ProtocolConfig, Recording, RecordingSession
from repro.signals.synthetic import ACTION_IDLE, ACTION_LEFT, ACTION_RIGHT, ParticipantProfile

FS = 125.0


def _session_with_cues(cues, n_samples, participant="P01"):
    rng = np.random.default_rng(0)
    return RecordingSession(
        participant_id=participant,
        session_index=0,
        data=rng.standard_normal((4, n_samples)),
        timestamps=np.arange(n_samples) / FS,
        cues=cues,
        sampling_rate_hz=FS,
    )


class TestLabelsFromCues:
    def test_labels_follow_cue_blocks(self):
        cues = [CueEvent(0.0, ACTION_LEFT, 2.0), CueEvent(2.0, ACTION_IDLE, 2.0)]
        session = _session_with_cues(cues, 500)
        annotator = Annotator(AnnotationConfig(transition_period_s=0.0, apply_preprocessing=False))
        labels = annotator.labels_for_session(session)
        assert (labels[:250] == ACTION_LEFT).all()
        assert (labels[250:] == ACTION_IDLE).all()

    def test_transition_period_masks_start_of_blocks(self):
        cues = [CueEvent(0.0, ACTION_RIGHT, 2.0), CueEvent(2.0, ACTION_IDLE, 2.0)]
        session = _session_with_cues(cues, 500)
        annotator = Annotator(AnnotationConfig(transition_period_s=0.4, apply_preprocessing=False))
        labels = annotator.labels_for_session(session)
        n_trans = int(0.4 * FS)
        assert (labels[:n_trans] == TRANSITION_LABEL).all()
        assert (labels[n_trans:250] == ACTION_RIGHT).all()
        assert (labels[250:250 + n_trans] == TRANSITION_LABEL).all()

    def test_transition_can_be_kept(self):
        cues = [CueEvent(0.0, ACTION_RIGHT, 2.0)]
        session = _session_with_cues(cues, 250)
        annotator = Annotator(
            AnnotationConfig(transition_period_s=0.4, exclude_transition=False,
                             apply_preprocessing=False)
        )
        labels = annotator.labels_for_session(session)
        assert (labels == ACTION_RIGHT).all()

    def test_samples_before_first_cue_are_transition(self):
        cues = [CueEvent(1.0, ACTION_LEFT, 1.0)]
        session = _session_with_cues(cues, 375)
        annotator = Annotator(AnnotationConfig(transition_period_s=0.0, apply_preprocessing=False))
        labels = annotator.labels_for_session(session)
        assert (labels[: int(FS)] == TRANSITION_LABEL).all()

    def test_cue_beyond_data_ignored(self):
        cues = [CueEvent(0.0, ACTION_LEFT, 1.0), CueEvent(100.0, ACTION_RIGHT, 1.0)]
        session = _session_with_cues(cues, 125)
        annotator = Annotator(AnnotationConfig(transition_period_s=0.0, apply_preprocessing=False))
        labels = annotator.labels_for_session(session)
        assert (labels == ACTION_LEFT).all()


class TestAnnotateRecording:
    def test_annotate_recording_concatenates_sessions(self):
        config = ProtocolConfig(task_duration_s=1.0, rest_duration_s=1.0,
                                session_duration_s=4.0, n_sessions=2)
        protocol = ExperimentalProtocol(config, seed=1)
        profile = ParticipantProfile(participant_id="P02", seed=5)
        recording = protocol.record_participant(profile)
        annotated = Annotator(AnnotationConfig(apply_preprocessing=False)).annotate_recording(recording)
        assert annotated.n_samples == sum(s.data.shape[1] for s in recording.sessions)
        assert annotated.labels.shape[0] == annotated.n_samples

    def test_empty_recording_rejected(self):
        with pytest.raises(ValueError):
            Annotator().annotate_recording(Recording(participant_id="X"))

    def test_preprocessing_changes_data(self):
        cues = [CueEvent(0.0, ACTION_LEFT, 4.0)]
        session = _session_with_cues(cues, 500)
        raw = Annotator(AnnotationConfig(apply_preprocessing=False)).annotate_session(session)
        filtered = Annotator(AnnotationConfig(apply_preprocessing=True)).annotate_session(session)
        assert not np.allclose(raw.data, filtered.data)

    def test_session_at_the_filter_pad_length_is_left_unfiltered(self):
        """57 samples equals the band-pass pad; the filters need one more."""
        session = _session_with_cues([CueEvent(0.0, ACTION_LEFT, 1.0)], 57)
        annotated = Annotator(AnnotationConfig(apply_preprocessing=True)).annotate_session(session)
        np.testing.assert_array_equal(annotated.data, session.data)

    def test_session_of_minimum_length_is_filtered(self):
        annotator = Annotator(AnnotationConfig(apply_preprocessing=True))
        n = annotator.preprocessing.minimum_samples()
        session = _session_with_cues([CueEvent(0.0, ACTION_LEFT, 1.0)], n)
        annotated = annotator.annotate_session(session)
        assert annotated.data.shape == session.data.shape
        assert not np.allclose(annotated.data, session.data)

    def test_label_fractions_sum_to_one(self):
        cues = [CueEvent(0.0, ACTION_LEFT, 2.0), CueEvent(2.0, ACTION_IDLE, 2.0)]
        session = _session_with_cues(cues, 500)
        annotated = Annotator(AnnotationConfig(apply_preprocessing=False)).annotate_session(session)
        fractions = annotated.label_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
