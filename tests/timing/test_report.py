"""Tests for timing report generation."""

import pytest

from repro.timing import PreRouteEstimator, build_timing_graph, run_sta
from repro.timing.report import report_path, report_summary, report_timing


@pytest.fixture(scope="module")
def sta_result(tiny_placed):
    nl, pl = tiny_placed
    g = build_timing_graph(nl)
    res = run_sta(g, PreRouteEstimator(nl, pl), clock_period=800.0)
    return nl, res


def test_report_path_structure(sta_result):
    nl, res = sta_result
    ep = min(res.endpoint_slack, key=res.endpoint_slack.get)
    rpt = report_path(res, ep)
    assert rpt.endpoint_pin == ep
    assert rpt.steps[0].arc == "launch"
    assert rpt.arrival == pytest.approx(rpt.steps[-1].arrival)
    assert rpt.slack == pytest.approx(rpt.required - rpt.arrival)
    # Increments sum to the arrival (launch step includes clk-to-q).
    total = sum(s.incr for s in rpt.steps)
    assert total == pytest.approx(rpt.arrival)
    # Arc types alternate between net and cell after launch.
    arcs = [s.arc for s in rpt.steps[1:]]
    assert set(arcs) <= {"net", "cell"}


def test_report_path_rejects_non_endpoint(sta_result):
    nl, res = sta_result
    startpoint = nl.startpoint_pins()[0]
    with pytest.raises(ValueError):
        report_path(res, startpoint)


def test_report_timing_text(sta_result):
    _, res = sta_result
    text = report_timing(res, n_paths=3)
    assert "WNS" in text and "TNS" in text
    assert text.count("Endpoint:") == 3


def test_report_timing_slack_filter(sta_result):
    _, res = sta_result
    text = report_timing(res, n_paths=100, slack_below=res.wns + 1e-6)
    assert text.count("Endpoint:") == 1


def test_report_summary_sorted(sta_result):
    _, res = sta_result
    lines = report_summary(res).splitlines()[1:]
    slacks = [float(line.split()[-1]) for line in lines]
    assert slacks == sorted(slacks)
    assert len(lines) == len(res.endpoint_slack)
