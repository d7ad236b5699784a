import math

import pytest

from ledger import stats


def test_percentile_interpolates_between_order_statistics():
    values = [40, 10, 30, 20]
    assert stats.percentile(values, 0.0) == 10
    assert stats.percentile(values, 1.0) == 40
    assert stats.median(values) == 25
    assert stats.percentile(values, 0.9) == pytest.approx(37.0)
    assert stats.percentile([7], 0.9) == 7


def test_percentile_rejects_empty_samples_and_bad_ranks():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1, 2], 1.5)


def test_geomean_weighs_ratios_not_magnitudes():
    assert stats.geomean([1.5, 38.0]) == pytest.approx(math.sqrt(1.5 * 38.0))
    # A 2x on the small cell moves it exactly as a 2x on the large one.
    base = stats.geomean([1.5, 38.0])
    assert stats.geomean([3.0, 38.0]) / base == pytest.approx(
        stats.geomean([1.5, 76.0]) / base
    )
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        stats.geomean([])


def test_ranks_average_ties():
    assert stats.ranks([10, 30, 20]) == [1.0, 3.0, 2.0]
    assert stats.ranks([5, 5, 1, 9]) == [2.5, 2.5, 1.0, 4.0]


def test_spearman():
    assert stats.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1)
    assert stats.spearman([1, 2, 3, 4], [9, 7, 5, 1]) == pytest.approx(-1)
    # Monotone but not linear is still a perfect rank correlation.
    assert stats.spearman([1, 2, 3, 4], [1, 10, 100, 1000]) == pytest.approx(1)
    # Textbook value: d^2 = 0+1+1+0+0 -> 1 - 6*2/(5*24) = 0.9
    assert stats.spearman(
        [1, 2, 3, 4, 5], [1, 3, 2, 4, 5]
    ) == pytest.approx(0.9)
    assert stats.spearman([1, 2, 3], [4, 4, 4]) == 0.0
    with pytest.raises(ValueError):
        stats.spearman([1, 2], [1])
