"""WearDigest: the mergeable reducer the fleet layer's claims rest on."""

from __future__ import annotations

import numpy as np
import pytest
import wear_digest_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import WEAR_BIN_WIDTH, WEAR_N_BINS, WearDigest


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
        assert np.array_equal(left.counts, right.counts)
        assert left.count == right.count
        assert left.total == right.total
        assert left.min == right.min and left.max == right.max
        assert sorted(left.exact) == sorted(right.exact)

    def test_commutative_stats(self):
        rng = np.random.default_rng(2)
        a, b = _digest(rng.random(20)), _digest(rng.random(31))
        ab, ba = a.merged_with(b), b.merged_with(a)
        assert np.array_equal(ab.counts, ba.counts)
        assert ab.count == ba.count
        assert ab.min == ba.min and ab.max == ba.max

    def test_empty_is_identity(self):
        d = _digest([0.1, 0.5, 1.2], keep_exact=True)
        merged = d.merged_with(WearDigest(keep_exact=True))
        assert np.array_equal(merged.counts, d.counts)
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
                d.add_many([bad])

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


# -- the array digest against the per-value oracle ------------------------------

#: values on a bin edge (k * W), zeros, ordinary wear, the overflow bin
_VALUE = st.one_of(
    st.integers(0, WEAR_N_BINS + 40).map(lambda k: k * WEAR_BIN_WIDTH),
    st.just(0.0),
    st.floats(min_value=0.0, max_value=2.5),
    st.floats(min_value=2.0, max_value=1e6),
)
_COLUMN = st.lists(_VALUE, max_size=40)
_BAD = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.1, -1e-300])


def _bits(value) -> str:
    assert type(value) is float
    return value.hex()


def _fields(digest) -> tuple:
    counts = digest.counts
    if isinstance(counts, np.ndarray):
        assert counts.dtype == np.int64 and counts.shape == (WEAR_N_BINS + 1,)
        counts = counts.tolist()
    assert type(digest.count) is int
    return (counts, digest.count, _bits(digest.total), _bits(digest.min),
            _bits(digest.max), digest.exact)


def _assert_same(digest: WearDigest, expected: oracle.WearDigest, qs=(0.5,),
                 threshold=1.0) -> None:
    """Every field and every query of ``digest`` is the oracle's, bit
    for bit: quantiles at 0, 1 and ``qs``, ``worn_out_fraction`` at the
    default 1.0 and at ``threshold``."""
    assert _fields(digest) == _fields(expected)
    if expected.count == 0:
        return
    assert _bits(digest.mean()) == _bits(expected.mean())
    for q in (0.0, 1.0, *qs):
        assert _bits(digest.quantile(q)) == _bits(expected.quantile(q)), q
    assert _bits(digest.worn_out_fraction()) == _bits(expected.worn_out_fraction())
    assert _bits(digest.worn_out_fraction(threshold)) == \
        _bits(expected.worn_out_fraction(threshold)), threshold


def _both(keep_exact: bool, columns) -> tuple[list, list]:
    """Each column digested alone by the array digest and the oracle."""
    ours, theirs = [], []
    for column in columns:
        ours.append(WearDigest(keep_exact=keep_exact))
        ours[-1].add_many(np.asarray(column, dtype=float))
        theirs.append(oracle.WearDigest(keep_exact=keep_exact))
        theirs[-1].add_many(column)
    return ours, theirs


_QS = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4)
_THRESHOLD = st.one_of(_VALUE, st.floats(min_value=0.0, max_value=2.5))


class TestQuantiles:
    """``quantiles`` answers ``quantile`` at each q, bit for bit: an exact
    digest makes one ``np.quantile`` call over its values as one array,
    where the per-value oracle makes one call per q."""

    @given(
        column=st.lists(_VALUE, min_size=1, max_size=300),
        keep_exact=st.booleans(),
        qs=st.lists(
            st.one_of(st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]),
                      st.floats(min_value=0.0, max_value=1.0)),
            max_size=8,
        ),
        threshold=_THRESHOLD,
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_q_path(self, column, keep_exact, qs, threshold):
        (ours,), (theirs,) = _both(keep_exact, [column])
        assert [_bits(v) for v in ours.quantiles(qs)] == \
            [_bits(theirs.quantile(q)) for q in qs]
        assert _bits(ours.worn_out_fraction(threshold)) == \
            _bits(theirs.worn_out_fraction(threshold))

    @pytest.mark.parametrize("keep_exact", [False, True], ids=["histogram", "exact"])
    def test_checks_each_q_like_quantile(self, keep_exact):
        empty = WearDigest(keep_exact=keep_exact)
        assert empty.quantiles([]) == []
        with pytest.raises(ValueError, match="empty digest"):
            empty.quantiles([0.5])
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            _digest([0.1], keep_exact).quantiles([0.5, 1.5])
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            _digest([0.1], keep_exact).quantiles([float("nan")])


class TestAgainstPerValueOracle:
    @given(column=_COLUMN, keep_exact=st.booleans(), qs=_QS, threshold=_THRESHOLD)
    @settings(max_examples=150, deadline=None)
    def test_one_column_matches(self, column, keep_exact, qs, threshold):
        (ours,), (theirs,) = _both(keep_exact, [column])
        _assert_same(ours, theirs, qs, threshold)

    @pytest.mark.parametrize("keep_exact", [False, True], ids=["histogram", "exact"])
    @pytest.mark.parametrize("column", [[], [0.0], [WEAR_BIN_WIDTH], [2.0], [7.5]],
                             ids=["empty", "zero", "edge", "ceiling", "overflow"])
    def test_empty_and_one_value_columns(self, column, keep_exact):
        (ours,), (theirs,) = _both(keep_exact, [column])
        _assert_same(ours, theirs)

    @given(
        population=_COLUMN,
        cuts=st.lists(st.integers(0, 40), max_size=6),
        keep_exact=st.booleans(),
        qs=_QS,
        threshold=_THRESHOLD,
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_shard_splits_merge_like_the_oracle(self, population, cuts, keep_exact,
                                                qs, threshold, data):
        """Shards merged in shard order match the oracle in every field
        (``total`` is a sum in that order); merged in any order, the
        order-free lanes still match."""
        bounds = sorted({0, len(population), *(c for c in cuts if c <= len(population))})
        shards = [population[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        ours, theirs = _both(keep_exact, shards)
        fleet, expected = WearDigest(keep_exact), oracle.WearDigest(keep_exact)
        for shard, reference in zip(ours, theirs):
            fleet.merge_in(shard)
            expected.merge_in(reference)
        _assert_same(fleet, expected, qs, threshold)
        order = data.draw(st.permutations(range(len(ours))))
        shuffled = WearDigest(keep_exact)
        for index in order:
            shuffled.merge_in(ours[index])
        assert _fields(shuffled)[:2] == _fields(expected)[:2]
        assert (shuffled.min, shuffled.max) == (expected.min, expected.max)

    @given(
        before=_COLUMN,
        column=_COLUMN,
        bad=_BAD,
        where=st.integers(0, 40),
        keep_exact=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_bad_value_anywhere_raises_and_changes_nothing(self, before, column,
                                                             bad, where, keep_exact):
        digest = WearDigest(keep_exact=keep_exact)
        digest.add_many(before)
        state = _fields(digest)
        counts = digest.counts
        column = list(column)
        column.insert(min(where, len(column)), bad)
        with pytest.raises(ValueError, match="finite and >= 0"):
            digest.add_many(np.asarray(column))
        assert digest.counts is counts
        assert _fields(digest) == state
