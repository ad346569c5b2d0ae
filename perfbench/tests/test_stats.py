"""The percentile rule: report only the highest percentile with >= 10 samples beyond it."""

import pytest

from perfbench.stats import harrell_davis, percentile, samples_beyond, tail, tail_or_median


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 0.5), (99, 0.5), (100, 0.9), (999, 0.9),
     (1000, 0.99), (9999, 0.99), (10000, 0.999)],
)
def test_highest_percentile_with_ten_beyond(n, expected):
    samples = [float(i) for i in range(n)]
    found = tail(samples)
    if expected is None:
        assert found is None
    else:
        q, value = found
        assert q == expected
        assert samples_beyond(n, q) >= 10
        assert value == harrell_davis(samples, q)


def test_nearest_rank_percentile():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    assert percentile(samples, 0.5) == 50.0
    assert percentile(samples, 0.9) == 90.0
    assert percentile(samples, 1.0) == 100.0
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_tail_or_median_falls_back_to_the_median():
    assert tail_or_median([1.0, 2.0, 9.0]) == ("p50", 2.0)
    label, value = tail_or_median([float(i) for i in range(100)])
    assert label == "p90"
    assert value == pytest.approx(89.5, abs=0.05)


def test_harrell_davis_weights_the_ranks_around_q():
    assert harrell_davis([5.0] * 50, 0.9) == pytest.approx(5.0)
    uniform = [float(i) for i in range(1, 1001)]
    assert harrell_davis(uniform, 0.5) == pytest.approx(500.5, abs=0.5)
    assert harrell_davis(uniform, 0.9) == pytest.approx(900.5, abs=1.0)
    # A lone outlier far beyond the rank barely moves the estimate, and
    # the estimate moves smoothly where the nearest rank would jump.
    gap = [10.0] * 107 + [20.0] * 13
    assert 10.0 < harrell_davis(gap, 0.9) < 20.0
    assert harrell_davis(gap[:-1] + [1e6], 0.9) == pytest.approx(harrell_davis(gap, 0.9), rel=0.01)
