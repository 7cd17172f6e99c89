"""Opening a session by design name runs only the pre-route stages.

``SessionFactory.open(<name>)`` and ``DesignSession.open`` build the
design through :func:`repro.flow.run_pre_route`.  Their predictions
and what-if answers must equal those of a session opened on the full
``run_flow`` result, array for array.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flow import run_flow, run_scenario_flow
from repro.serve import DesignSession, SessionFactory

from .conftest import FLOW_CONFIG
from .test_session import make_edits

SCENARIO = "clock_frac0.8"


def _arrays(predictions: dict):
    return (np.array(list(predictions), dtype=np.int64),
            np.array(list(predictions.values())))


def _assert_same_answers(session, ref) -> None:
    for got, want in zip(_arrays(session.predict()), _arrays(ref.predict())):
        assert np.array_equal(got, want)
    edits = make_edits(ref)
    got, want = session.whatif(edits), ref.whatif(edits)
    for a, b in zip(_arrays(got["predictions"]),
                    _arrays(want["predictions"])):
        assert np.array_equal(a, b)
    for key in ("pre_route", "shift"):
        assert np.array_equal(np.array(list(got[key].values())),
                              np.array(list(want[key].values()))), key


@pytest.fixture
def reference(served_predictor):
    return DesignSession(run_flow("xgate", FLOW_CONFIG), served_predictor)


def test_factory_open_by_name_equals_a_full_flow_session(
        served_predictor, reference):
    factory = SessionFactory(lambda: served_predictor,
                             flow_config=FLOW_CONFIG)
    _assert_same_answers(factory.open("xgate"), reference)


def test_design_session_open_equals_a_full_flow_session(
        served_predictor, reference):
    session = DesignSession.open("xgate", served_predictor,
                                 flow_config=FLOW_CONFIG)
    _assert_same_answers(session, reference)


def test_factory_open_at_a_sweep_point_equals_its_full_flow(
        served_predictor):
    factory = SessionFactory(lambda: served_predictor,
                             flow_config=FLOW_CONFIG, scenario=SCENARIO)
    ref = DesignSession(
        run_scenario_flow("xgate", FLOW_CONFIG, scenario=SCENARIO),
        served_predictor)
    session = factory.open("xgate")
    assert session.scenario == ref.scenario == SCENARIO
    _assert_same_answers(session, ref)
