"""Streaming, associatively mergeable reducers for fleet observables.

A fleet-of-fleets run (:mod:`repro.fleet.run`) never holds every
device's result at once: the coordinator digests each shard's wear
column as the shard completes and folds the shard digest into the
fleet's.  That only works if the digest's merge is **associative and
commutative** -- any shard partition, any completion order, same
answer -- which is the design constraint behind :class:`WearDigest`:

* the histogram lanes (integer bin counts, count, min, max) merge
  exactly under any grouping, so distribution *estimates* are
  shard-partition invariant by construction;
* small fleets additionally carry the raw per-device values (the
  *exact fallback*), making quantiles bit-identical to a flat
  ``np.quantile`` over the whole population -- the property the E16
  golden percentiles pin.  Whether a fleet is exact is decided once,
  up front, from the fleet size (see ``FleetPlan``), never from how
  merging happens to proceed.

The histogram is one int64 array of 401 bins: a shard's wear column is
validated and binned in one array pass (:meth:`WearDigest.add_many`)
and two digests merge with one array add.  The running ``total`` is the
one float lane whose last bits follow the order of addition: a column
adds left to right, value after value, and the fleet layer sums shard
totals in shard order, so its ``mean`` is completion-order invariant
too.  The per-value digest this replaced is the test oracle in
``tests/fleet/wear_digest_oracle.py``.

Digests live only in the coordinator's memory: a shard's persisted
value is its observable columns, and a finished fleet's digest is
rebuilt from the wear column whenever it is needed.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "WEAR_BIN_WIDTH",
    "WEAR_N_BINS",
    "WearDigest",
]

#: Width of one wear histogram bin (fraction of rated endurance).
WEAR_BIN_WIDTH = 0.005

#: Regular bins covering wear 0 .. 2.0; one overflow bin rides at the end.
WEAR_N_BINS = 400


class WearDigest:
    """Mergeable summary of a wear-fraction distribution.

    ``counts`` is one int64 array: ``counts[i]`` holds devices with wear
    in ``[i*W, (i+1)*W)`` for bin width ``W``, and the final slot
    collects everything at or above the histogram ceiling.  ``count``
    is a Python int and ``total``, ``min`` and ``max`` Python floats, so
    a summary of them encodes as JSON.  ``keep_exact=True`` additionally
    retains every observed value in insertion order (the exact
    fallback); merging two exact digests concatenates their values, and
    merging with a non-exact digest drops exactness -- both rules are
    associative, so exactness of a fleet merge depends only on which
    shards carried values, not on merge order.
    """

    __slots__ = ("counts", "count", "total", "min", "max", "exact")

    def __init__(self, keep_exact: bool = False) -> None:
        self.counts = np.zeros(WEAR_N_BINS + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.exact: list[float] | None = [] if keep_exact else None

    # -- accumulation -----------------------------------------------------------

    def add_many(self, values: np.ndarray | Sequence[float]) -> None:
        """Fold a column of device wear fractions in, in one pass.

        Every value must be finite and >= 0; otherwise this raises
        ``ValueError`` and the digest is unchanged.  ``total`` adds the
        values one after another, left to right.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        low, high = float(values.min()), float(values.max())
        # NaN fails both comparisons; -inf and inf fail one each
        if not (low >= 0.0 and high < math.inf):
            bad = float(values[~(np.isfinite(values) & (values >= 0.0))][0])
            raise ValueError(f"wear fractions must be finite and >= 0, got {bad!r}")
        # clip before the cast: a huge value's bin index must not wrap
        index = np.minimum(values / WEAR_BIN_WIDTH, WEAR_N_BINS).astype(np.int64)
        self.counts += np.bincount(index, minlength=WEAR_N_BINS + 1)
        self.count += int(values.size)
        self.total = float(
            np.add.accumulate(np.concatenate(([self.total], values)))[-1]
        )
        self.min = min(self.min, low)
        self.max = max(self.max, high)
        if self.exact is not None:
            self.exact.extend(values.tolist())

    # -- merging ----------------------------------------------------------------

    def merge_in(self, other: "WearDigest") -> None:
        """Fold another digest into this one (associative, commutative
        up to exact-value order; quantiles sort, so order never shows)."""
        self.counts += other.counts
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        if self.exact is not None and other.exact is not None:
            self.exact.extend(other.exact)
        else:
            self.exact = None

    def merged_with(self, other: "WearDigest") -> "WearDigest":
        """Functional merge: a new digest, both inputs untouched."""
        out = self.copy()
        out.merge_in(other)
        return out

    def copy(self) -> "WearDigest":
        out = WearDigest()
        out.counts = self.counts.copy()
        out.count = self.count
        out.total = self.total
        out.min = self.min
        out.max = self.max
        out.exact = None if self.exact is None else list(self.exact)
        return out

    # -- queries ----------------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        """Whether quantiles come from raw values (vs histogram bins)."""
        return self.exact is not None

    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("empty digest has no mean")
        return self.total / self.count

    def quantile(self, q: float) -> float:
        """The ``q``-quantile of the observed wear values.

        Exact digests defer to ``np.quantile`` over the raw values
        (bit-identical to a flat population array); histogram digests
        interpolate linearly inside the covering bin, so the estimate
        is within one bin width (:data:`WEAR_BIN_WIDTH`) of exact for
        any in-range value.
        """
        return self.quantiles([q])[0]

    def quantiles(self, qs: Sequence[float]) -> list[float]:
        """:meth:`quantile` at each of ``qs``, in order.

        An exact digest turns its values into an array once and makes
        one ``np.quantile`` call for all of ``qs``.
        """
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError("quantile must be in [0, 1]")
            if self.count == 0:
                raise ValueError("empty digest has no quantiles")
        if self.exact is None or len(qs) == 0:
            return [self._bin_quantile(q) for q in qs]
        return np.quantile(self._values(), qs).tolist()

    def _values(self) -> np.ndarray:
        """An exact digest's values as one float64 array."""
        return np.array(self.exact, dtype=np.float64)

    def _bin_quantile(self, q: float) -> float:
        """The histogram estimate of the ``q``-quantile."""
        target = q * self.count
        cumulative = 0
        for index, bin_count in enumerate(self.counts.tolist()):
            if bin_count == 0:
                continue
            if cumulative + bin_count >= target:
                if index >= WEAR_N_BINS:
                    return self.max  # overflow bin: no upper edge to lerp to
                fraction = (
                    (target - cumulative) / bin_count if bin_count else 0.0
                )
                value = (index + min(max(fraction, 0.0), 1.0)) * WEAR_BIN_WIDTH
                return min(max(value, self.min), self.max)
            cumulative += bin_count
        return self.max

    def worn_out_fraction(self, threshold: float = 1.0) -> float:
        """Fraction of devices with wear >= ``threshold``.

        Exact for exact digests (one count over their values as an
        array); histogram digests count whole bins at or above the
        threshold (exact whenever ``threshold`` lands on a bin edge, as
        the default 1.0 does).
        """
        if self.count == 0:
            raise ValueError("empty digest has no worn-out fraction")
        if self.exact is not None:
            worn = np.count_nonzero(self._values() >= threshold)
            return int(worn) / self.count
        first = min(int(math.ceil(threshold / WEAR_BIN_WIDTH)), WEAR_N_BINS)
        return int(self.counts[first:].sum()) / self.count
