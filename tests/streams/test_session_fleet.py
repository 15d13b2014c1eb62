"""The session side both fleet front ends share.

``AsyncFleetScheduler`` (through ``submit`` and the lock-step ``tick``) and
the stream plane's ``StreamFleetProducer`` (driven here through
``StreamDuplex``) inherit one ``SessionFleet``: membership, admission and
the stall/shed/reject accounting.  These tests pin the behaviour that must
come out the same on every path: counts left over after the last flush
reach telemetry, and a window holding a NaN or inf sample is rejected
before it can be queued or classified; its session gets an idle hold label
and the arm does not move.
"""

import numpy as np
import pytest

from tests.helpers import ClockedStubClassifier, FakeClock, ScriptedSession

from repro.arm.kinematics import JointState
from repro.core.config import CognitiveArmConfig
from repro.serving import FleetServer, ServingSession
from repro.serving.scheduler import AsyncFleetScheduler, SchedulerConfig
from repro.streams import StreamDuplex, StreamFleetProducer, StreamTopology

CONFIG = CognitiveArmConfig(
    window_size=100,
    label_rate_hz=10.0,
    smoothing_window=3,
    confidence_threshold=0.3,
)


def direct(classifier, clock, scheduler_config=None):
    return AsyncFleetScheduler(
        {"a": classifier}, CONFIG, scheduler_config=scheduler_config, clock=clock
    )


def streamed(classifier, clock, scheduler_config=None):
    return StreamDuplex(
        {"a": classifier}, CONFIG, scheduler_config=scheduler_config, clock=clock
    )


FRONT_ENDS = pytest.mark.parametrize(
    "front_end", [direct, streamed], ids=["scheduler", "stream"]
)


def sessions_of(fleet):
    """The front end's session fleet (the duplex's lives on its producer)."""
    return fleet.producer if isinstance(fleet, StreamDuplex) else fleet


def totals(fleet):
    records = fleet.telemetry.records
    return {
        "stalled": sum(r.stalled_sessions for r in records),
        "shed": sum(r.shed_sessions for r in records),
    }


class TestLeftoverCounts:
    def run_schedule(self, front_end):
        """Three served rounds, then a stall and a shed after the last flush."""
        clock = FakeClock()
        fleet = front_end(
            ClockedStubClassifier(clock, base_latency_s=0.01),
            clock,
            # Any flush blows the budget, so shedding starts after round one
            # and, at shed_ratio 0.5, refuses every other admitted window.
            SchedulerConfig(deadline_s=0.05, latency_budget_s=0.001),
        )
        fleet.add_session(ScriptedSession("s0", stall_every=2), cohort="a")
        fleet.add_session(ScriptedSession("s1"), cohort="a")
        outcomes = []
        for _ in range(3):
            outcomes += [fleet.submit("s0"), fleet.submit("s1")]
            clock.advance(0.06)
            fleet.pump()
        tail = [fleet.submit("s0"), fleet.submit("s1")]
        fleet.drain()
        return outcomes + tail, totals(fleet), fleet.telemetry.summary()

    def test_stalls_and_sheds_after_the_last_flush_reach_telemetry(self):
        scheduler = self.run_schedule(direct)
        stream = self.run_schedule(streamed)
        assert scheduler[0] == stream[0]
        assert scheduler[0][-2:] == ["stalled", "shed"]  # nothing left queued
        outcomes = scheduler[0]
        for _, counted, summary in (scheduler, stream):
            assert counted["stalled"] == outcomes.count("stalled") == 2
            assert summary["shed_windows"] == outcomes.count("shed") == 2
        assert scheduler[1] == stream[1]
        assert scheduler[2]["stall_rate"] == stream[2]["stall_rate"]

    @FRONT_ENDS
    def test_leftover_record_is_excluded_from_latency(self, front_end):
        clock = FakeClock()
        fleet = front_end(ClockedStubClassifier(clock, base_latency_s=0.01), clock)
        fleet.add_session(ScriptedSession("s0", stall_every=2), cohort="a")
        fleet.submit("s0")
        clock.advance(0.06)
        fleet.pump()
        assert fleet.submit("s0") == "stalled"
        fleet.drain()
        last = fleet.telemetry.records[-1]
        assert (last.flush_reason, last.batch_size, last.stalled_sessions) == (
            "drain",
            0,
            1,
        )
        assert fleet.telemetry.summary()["batch_latency_p50_s"] == pytest.approx(0.01)


def poisoned(session_id, value):
    """A real session whose next window carries one non-finite sample."""
    session = ServingSession(session_id, config=CONFIG)
    clean = session.loop.prepare_window

    def prepare_window():
        window = np.array(clean(), dtype=np.float64)
        window[0, 0] = value
        return window

    session.loop.prepare_window = prepare_window
    return session


NON_FINITE = pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
)


class TestNonFiniteWindows:
    def check_rejected(self, fleet, classifier, bad, good):
        assert classifier.batch_sizes == [1]  # only the healthy window ran
        (hold,) = bad.ticks  # answered with a hold label, not a classification
        assert (hold.action, hold.confidence) == ("idle", 0.0)
        assert bad.controller.arm.trajectory == [JointState()]  # never moved
        assert good.labels_emitted() == 1
        assert sessions_of(fleet).rejected_by_session == {"bad": 1, "good": 0}
        summary = fleet.telemetry.summary()
        assert summary["rejected_windows"] == 1.0
        assert summary["total_labels"] == 1.0
        assert sum(r.rejected_sessions for r in fleet.telemetry.records) == 1

    @NON_FINITE
    @FRONT_ENDS
    def test_submit_rejects_and_never_actuates(self, front_end, value):
        clock = FakeClock()
        classifier = ClockedStubClassifier(clock, base_latency_s=0.001)
        fleet = front_end(classifier, clock)
        bad = fleet.add_session(poisoned("bad", value), cohort="a")
        good = fleet.add_session(ServingSession("good", config=CONFIG), cohort="a")
        assert fleet.submit("bad") == "rejected"
        assert fleet.submit("good") == "queued"
        fleet.drain()
        self.check_rejected(fleet, classifier, bad, good)
        assert sessions_of(fleet).shed_by_session == {"bad": 0, "good": 0}

    @NON_FINITE
    def test_lockstep_tick_rejects_and_never_actuates(self, value):
        classifier = ClockedStubClassifier()
        fleet = FleetServer(classifier, CONFIG)
        bad = fleet.add_session(poisoned("bad", value))
        good = fleet.add_session(ServingSession("good", config=CONFIG))
        ticks = fleet.tick()
        assert list(ticks) == ["good"]
        self.check_rejected(fleet, classifier, bad, good)
        record = fleet.telemetry.records[-1]
        assert (record.batch_size, record.rejected_sessions) == (1, 1)

    def test_rejected_windows_count_as_opportunities(self):
        clock = FakeClock()
        fleet = direct(ClockedStubClassifier(clock), clock)
        fleet.add_session(poisoned("bad", np.nan), cohort="a")
        fleet.add_session(ScriptedSession("s0", stall_every=1), cohort="a")
        fleet.submit("bad")
        fleet.submit("s0")
        fleet.drain()
        # one stall out of two opportunities, not one out of one
        assert fleet.telemetry.stall_rate() == pytest.approx(0.5)


def test_a_refused_session_creates_no_cohort_stream():
    producer = StreamFleetProducer(StreamTopology(clock=FakeClock()), CONFIG)
    producer.add_session(ScriptedSession("s0"), cohort="a")
    with pytest.raises(ValueError, match="already attached"):
        producer.add_session(ScriptedSession("s0"), cohort="b")
    assert producer.topology.cohorts == ("a",)
