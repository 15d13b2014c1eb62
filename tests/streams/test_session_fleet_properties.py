"""Property test: the scheduler and the stream plane serve one fleet alike.

Hypothesis generates schedules of submit / advance / pump / join / leave
over sessions that stall and emit NaN windows, under configurations that
fill batches and trip admission shedding.  Each schedule drives an
``AsyncFleetScheduler`` and a ``StreamDuplex`` side by side, each on its
own virtual clock, and the two must agree on every outcome, every
probability row and every stalled, shed, superseded and rejected count.

The example count comes from the hypothesis profile: the default one
registered in ``tests/streams/conftest.py`` keeps tier-1 fast, and
``HYPOTHESIS_PROFILE=ci`` runs the larger CI profile.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from tests.helpers import ClockedStubClassifier, FakeClock, ScriptedSession

from repro.serving.scheduler import AsyncFleetScheduler, SchedulerConfig
from repro.streams import StreamDuplex


class FlakySession(ScriptedSession):
    """A scripted session whose window is poisoned with a NaN every k ticks."""

    def __init__(self, session_id, nan_every=None, **kwargs):
        super().__init__(session_id, **kwargs)
        self.nan_every = nan_every

    def prepare_window(self):
        window = super().prepare_window()
        if window is not None and self.nan_every and self.tick_index % self.nan_every == 0:
            window[-1, -1] = np.nan
        return window


session_specs = st.tuples(
    st.sampled_from([None, 2, 3, 5]),  # stall_every
    st.sampled_from([None, None, 2, 4]),  # nan_every
)

operations = st.one_of(
    *[st.tuples(st.just("submit"), st.integers(0, 7))] * 4,
    st.tuples(st.just("advance"), st.sampled_from([0.005, 0.02, 0.04, 0.07])),
    st.tuples(st.just("pump"), st.none()),
    st.tuples(st.just("join"), session_specs),
    st.tuples(st.just("leave"), st.integers(0, 7)),
)

schedules = st.fixed_dictionaries(
    {
        "sessions": st.lists(session_specs, min_size=1, max_size=4),
        "ops": st.lists(operations, min_size=8, max_size=60),
        "max_batch_size": st.sampled_from([2, 3, 8]),
        "latency_budget_s": st.sampled_from([None, 0.003, 0.005]),
        "per_row_s": st.sampled_from([0.0, 0.002]),
    }
)


def play(schedule, factory):
    """Run one schedule on a fresh front end; return what it observably did."""
    clock = FakeClock()
    config = SchedulerConfig(
        deadline_s=0.05,
        max_batch_size=schedule["max_batch_size"],
        latency_budget_s=schedule["latency_budget_s"],
    )
    classifier = ClockedStubClassifier(
        clock, base_latency_s=0.004, per_row_s=schedule["per_row_s"]
    )
    fleet = factory({"a": classifier}, scheduler_config=config, clock=clock)
    everyone = []

    def join(spec):
        stall_every, nan_every = spec
        session = FlakySession(
            f"s{len(everyone)}",
            nan_every=nan_every,
            stall_every=stall_every,
            seed=len(everyone),
        )
        everyone.append(fleet.add_session(session, cohort="a"))

    for spec in schedule["sessions"]:
        join(spec)
    outcomes = []
    admitted = {}  # windows queued per session
    rows_at_leave = {}  # rows a departed session had received when it left
    for op, arg in schedule["ops"]:
        attached = [s.session_id for s in fleet.sessions]
        if op == "submit" and attached:
            session_id = attached[arg % len(attached)]
            outcome = fleet.submit(session_id)
            outcomes.append(outcome)
            if outcome in ("queued", "flushed"):
                admitted[session_id] = admitted.get(session_id, 0) + 1
        elif op == "advance":
            clock.advance(arg)
        elif op == "pump":
            fleet.pump()
        elif op == "join":
            join(arg)
        elif op == "leave" and attached:
            session = fleet.remove_session(attached[arg % len(attached)])
            rows_at_leave[session.session_id] = len(session.applied)
    fleet.drain()
    owner = fleet.producer if isinstance(fleet, StreamDuplex) else fleet
    records = fleet.telemetry.records
    return {
        "outcomes": outcomes,
        "admitted": admitted,
        "rows_at_leave": rows_at_leave,
        "labels": fleet.telemetry.total_labels,
        "rows": {s.session_id: [probs for probs, _ in s.applied] for s in everyone},
        "stalled": sum(r.stalled_sessions for r in records),
        "shed": sum(r.shed_sessions for r in records),
        "rejected": sum(r.rejected_sessions for r in records),
        "shed_by_session": owner.shed_by_session,
        "superseded_by_session": owner.superseded_by_session,
        "rejected_by_session": owner.rejected_by_session,
    }


def classified(rows):
    """Rows a classifier produced; a rejected window's hold row is all NaN."""
    return sum(bool(np.isfinite(row).all()) for row in rows)


@given(schedules)
def test_scheduler_and_stream_plane_serve_the_same_fleet(schedule):
    direct = play(schedule, AsyncFleetScheduler)
    streamed = play(schedule, StreamDuplex)

    assert direct["outcomes"] == streamed["outcomes"]
    assert direct["rows"].keys() == streamed["rows"].keys()
    for session_id, rows in direct["rows"].items():
        assert len(rows) == len(streamed["rows"][session_id])
        for left, right in zip(rows, streamed["rows"][session_id]):
            np.testing.assert_allclose(left, right, atol=1e-12)
    for key in (
        "stalled",
        "shed",
        "rejected",
        "shed_by_session",
        "superseded_by_session",
        "rejected_by_session",
        "rows_at_leave",
    ):
        assert direct[key] == streamed[key], key

    outcomes = direct["outcomes"]
    assert direct["stalled"] == outcomes.count("stalled")
    assert direct["shed"] == outcomes.count("shed")
    assert direct["rejected"] == outcomes.count("rejected")
    for played in (direct, streamed):
        owed_to_departed = 0
        for session_id, rows in played["rows"].items():
            # Every rejected window was answered at once with a hold row.
            hold_rows = len(rows) - classified(rows)
            assert hold_rows == played["rejected_by_session"][session_id]
            # Conservation: after drain every admitted window was applied or
            # superseded by a fresher window from its session, except rows
            # still on their way to a session when it left, which are dropped.
            owed = (
                played["admitted"].get(session_id, 0)
                - classified(rows)
                - played["superseded_by_session"][session_id]
            )
            if session_id in played["rows_at_leave"]:
                assert len(rows) == played["rows_at_leave"][session_id]
                assert owed >= 0
                owed_to_departed += owed
            else:
                assert owed == 0, session_id
        # The telemetry's classified count covers exactly the applied rows
        # and the rows dropped for departed sessions.
        applied = sum(classified(rows) for rows in played["rows"].values())
        assert played["labels"] == applied + owed_to_departed
