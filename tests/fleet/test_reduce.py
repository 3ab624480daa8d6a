"""WearDigest: the mergeable reducer the fleet layer's claims rest on."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import WEAR_BIN_WIDTH, WearDigest


def _digest(values, keep_exact=False):
    d = WearDigest(keep_exact=keep_exact)
    d.add_many(values)
    return d


class TestMergeAlgebra:
    def test_associative(self):
        rng = np.random.default_rng(1)
        a, b, c = (_digest(rng.random(n) * 1.8, keep_exact=True)
                   for n in (13, 29, 7))
        left = a.merged_with(b).merged_with(c)
        right = a.merged_with(b.merged_with(c))
        assert left.counts == right.counts
        assert left.count == right.count
        assert left.total == right.total
        assert left.min == right.min and left.max == right.max
        assert sorted(left.exact) == sorted(right.exact)

    def test_commutative_stats(self):
        rng = np.random.default_rng(2)
        a, b = _digest(rng.random(20)), _digest(rng.random(31))
        ab, ba = a.merged_with(b), b.merged_with(a)
        assert ab.counts == ba.counts
        assert ab.count == ba.count
        assert ab.min == ba.min and ab.max == ba.max

    def test_empty_is_identity(self):
        d = _digest([0.1, 0.5, 1.2], keep_exact=True)
        merged = d.merged_with(WearDigest(keep_exact=True))
        assert merged.counts == d.counts
        assert merged.exact == d.exact
        assert merged.min == d.min and merged.max == d.max

    def test_merge_in_leaves_other_untouched(self):
        a, b = _digest([0.1]), _digest([0.2])
        before = (list(b.counts), b.count, b.total)
        a.merge_in(b)
        assert (list(b.counts), b.count, b.total) == before


class TestExactFallback:
    def test_exact_plus_exact_stays_exact(self):
        merged = _digest([0.1], keep_exact=True).merged_with(
            _digest([0.2], keep_exact=True)
        )
        assert sorted(merged.exact) == [0.1, 0.2]

    def test_exact_plus_histogram_drops_exactness(self):
        exact = _digest([0.1], keep_exact=True)
        hist = _digest([0.2], keep_exact=False)
        assert exact.merged_with(hist).exact is None
        assert hist.merged_with(exact).exact is None

    def test_exact_quantile_matches_numpy_bitwise(self):
        values = np.random.default_rng(3).random(257) * 1.5
        d = _digest(values, keep_exact=True)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert d.quantile(q) == float(np.quantile(values, q))

    def test_exact_worn_out_fraction(self):
        d = _digest([0.5, 0.9999, 1.0, 1.3], keep_exact=True)
        assert d.worn_out_fraction() == 0.5
        assert d.worn_out_fraction(threshold=0.9) == 0.75


class TestHistogramEstimates:
    def test_quantiles_within_one_bin_width(self):
        values = np.random.default_rng(4).gamma(2.0, 0.05, size=5000)
        d = _digest(values)
        for q in (0.1, 0.5, 0.9, 0.99):
            exact = float(np.quantile(values, q))
            assert abs(d.quantile(q) - exact) <= WEAR_BIN_WIDTH, q

    def test_quantile_clamped_to_observed_range(self):
        d = _digest([0.0101, 0.0102])
        assert d.min <= d.quantile(0.0) <= d.quantile(1.0) <= d.max

    def test_worn_out_fraction_exact_on_bin_edge(self):
        # 1.0 is a bin edge, so the histogram path is exact there
        values = [0.2, 0.999, 1.0, 1.5, 2.5]
        assert _digest(values).worn_out_fraction() == \
            _digest(values, keep_exact=True).worn_out_fraction()

    def test_overflow_bin(self):
        d = _digest([5.0, 7.0])
        assert d.count == 2
        assert d.quantile(0.9) == d.max == 7.0

    def test_mean_and_count(self):
        d = _digest([0.1, 0.2, 0.3])
        assert d.count == 3
        assert d.mean() == pytest.approx(0.2)


class TestValidation:
    def test_rejects_bad_values(self):
        d = WearDigest()
        for bad in (float("nan"), float("inf"), -0.1):
            with pytest.raises(ValueError):
                d.add(bad)

    def test_empty_digest_has_no_stats(self):
        d = WearDigest()
        with pytest.raises(ValueError):
            d.quantile(0.5)
        with pytest.raises(ValueError):
            d.mean()
        with pytest.raises(ValueError):
            d.worn_out_fraction()

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            _digest([0.1]).quantile(1.5)
