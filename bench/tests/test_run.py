import pytest

from run import per_operation_medians, tail_percentile


@pytest.mark.parametrize(
    "n, pct",
    [(1, 100.0), (10, 100.0), (19, 100.0), (20, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    samples = list(range(n, 0, -1))  # order must not matter
    got_pct, value = tail_percentile(samples)
    assert got_pct == pct
    if pct == 100.0:
        assert value == n
    else:
        assert sum(x > value for x in samples) >= 10


def test_each_operation_takes_its_median_over_the_passes():
    passes = [{"latencies": [1.0, 10.0]}, {"latencies": [3.0, 90.0]}, {"latencies": [2.0, 20.0]}]
    assert per_operation_medians(passes, "latencies") == [2.0, 20.0]
