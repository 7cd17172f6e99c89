import pytest

from percentiles import percentile, quartiles, spread, supports, tail


def test_p99_needs_a_thousand_samples():
    assert not supports(999, 99.0)
    assert supports(1000, 99.0)
    with pytest.raises(ValueError, match="p99 needs at least 1000"):
        percentile(list(range(999)), 99.0)
    assert percentile(list(range(1000)), 99.0) == pytest.approx(989.01)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(99))) is None          # p90 needs 100
    assert tail(list(range(100)))[0] == "p90"
    assert tail(list(range(199)))[0] == "p90"
    assert tail(list(range(200)))[0] == "p95"
    assert tail(list(range(999)))[0] == "p95"
    assert tail(list(range(1000)))[0] == "p99"
    assert tail(list(range(10000)))[0] == "p99.9"


def test_tail_value_counts_exactly_ten_beyond_at_the_threshold():
    values = list(range(200))
    label, value = tail(values)
    assert label == "p95"
    assert sum(v > value for v in values) == 10


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == (11.75, 14.5, 17.25)
    assert spread(values) == pytest.approx(5.5 / 14.5)
