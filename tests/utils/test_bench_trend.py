"""``scripts/bench_trend.py``: paired parent/change rows for the trend."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))

import bench_trend  # noqa: E402


def _run(workload, sha, setup_s, rss, **extra):
    run = {"workload": workload, "git_sha": sha, "nproc": 2,
           "traced": False, "smoke": False,
           "metrics": {"setup_s": setup_s, "setup_rss_mb": rss}}
    run.update(extra)
    return run


def _write(path, runs):
    path.write_text("".join(json.dumps(r) + "\n" for r in runs))
    return path


@pytest.fixture
def run_sets(tmp_path):
    parent = [_run("whatif-move", "aaa", s, r) for s, r in
              ((2.0, 70.0), (2.4, 72.0), (1.6, 71.0), (2.2, 70.0))]
    change = [_run("whatif-move", "bbb", s, r) for s, r in
              ((1.8, 56.0), (2.4, 57.6), (1.2, 56.8), (2.3, 56.0))]
    # Traced and smoke runs never enter a row.
    change.append(_run("whatif-move", "bbb", 99.0, 999.0, traced=True))
    change.append(_run("flow-build", "bbb", 99.0, 999.0, smoke=True))
    return (_write(tmp_path / "parent.jsonl", parent),
            _write(tmp_path / "change.jsonl", change))


def test_rows_pair_runs_in_order(run_sets, tmp_path, capsys):
    out = tmp_path / "BENCH_e2e.json"
    assert bench_trend.main([*map(str, run_sets), "--out", str(out)]) == 0
    rows = {r["metric"]: r for r in json.loads(out.read_text())["rows"]}
    assert set(rows) == {"setup_s", "setup_rss_mb"}
    rss = rows["setup_rss_mb"]
    assert (rss["workload"], rss["parent_sha"], rss["change_sha"],
            rss["nproc"], rss["pairs"]) == ("whatif-move", "aaa", "bbb", 2, 4)
    assert rss["parent_median"] == pytest.approx(70.5)
    assert rss["change_median"] == pytest.approx(56.4)
    assert rss["ratio_q1"] == rss["ratio_median"] == rss["ratio_q3"] == (
        pytest.approx(0.8))
    assert rss["wins"] == 4
    t = rows["setup_s"]
    # Pair ratios 0.9, 1.0, 0.75, 1.045: the change won pairs 1 and 3.
    assert t["wins"] == 2
    assert t["ratio_median"] == pytest.approx((0.9 + 1.0) / 2)
    assert t["ratio_q1"] < t["ratio_median"] < t["ratio_q3"]
    assert "appended 2 row(s)" in capsys.readouterr().out


def test_rows_append_to_the_trend(run_sets, tmp_path):
    out = tmp_path / "BENCH_e2e.json"
    for _ in range(2):
        assert bench_trend.main([*map(str, run_sets),
                                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["rows"]) == 4


def test_mixed_shas_are_refused(run_sets, tmp_path, capsys):
    parent, change = run_sets
    runs = [json.loads(x) for x in change.read_text().splitlines()]
    runs[0]["git_sha"] = "ccc"
    _write(change, runs)
    out = tmp_path / "BENCH_e2e.json"
    assert bench_trend.main([str(parent), str(change),
                             "--out", str(out)]) == 1
    assert "disagree on git_sha" in capsys.readouterr().err
    assert not out.exists()
