import json

import pytest

import compare

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_no_change_is_ok():
    assert compare.verdict(STEADY, STEADY, "lower", 0.1) == "ok"


def test_worsening_within_the_bound_is_ok():
    worse = [v * 1.09 for v in STEADY]
    assert compare.verdict(STEADY, worse, "lower", 0.1) == "ok"


def test_worsening_beyond_the_bound_regresses():
    worse = [v * 1.12 for v in STEADY]
    assert compare.verdict(STEADY, worse, "lower", 0.1) == "regressed"


def test_direction_follows_better():
    lower = [v * 0.85 for v in STEADY]
    assert compare.verdict(STEADY, lower, "lower", 0.1) == "ok"
    assert compare.verdict(STEADY, lower, "higher", 0.1) == "regressed"


def test_wide_spread_is_unresolved():
    noisy = [70.0, 130.0, 90.0, 110.0, 60.0, 140.0, 100.0, 95.0, 105.0, 80.0]
    assert compare.verdict(STEADY, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, STEADY, "lower", 0.1) == "unresolved"


def test_wide_spread_that_is_better_on_every_run_resolves():
    noisy_but_faster = [50.0, 70.0, 55.0, 65.0, 52.0, 68.0, 60.0]
    assert compare.verdict(STEADY, noisy_but_faster, "lower", 0.1) == "ok"


def test_worsening_is_relative_to_the_baseline():
    assert compare.worsening(100.0, 110.0, "lower") == pytest.approx(0.1)
    assert compare.worsening(100.0, 110.0, "higher") == pytest.approx(-0.1)


def _record(workload, values, traced=False):
    return json.dumps({"workload": workload, "traced": traced,
                       "metrics": values})


def test_main_exit_code(tmp_path):
    spec = json.loads(compare.SPEC.read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    base = tmp_path / "base.jsonl"
    same = tmp_path / "same.jsonl"
    worse = tmp_path / "worse.jsonl"
    base.write_text("\n".join(_record("w", {n: v for n in names})
                              for v in STEADY) + "\n")
    same.write_text(base.read_text())
    worse.write_text("\n".join(_record("w", {n: v * (1.5 if n == "setup_s"
                                                     else 1.0)
                                             for n in names})
                               for v in STEADY) + "\n")
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(worse)]) == 1
