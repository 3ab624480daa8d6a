"""The per-value wear digest: the test oracle for the array-backed one.

:class:`repro.fleet.reduce.WearDigest` bins a whole column in one array
pass and merges its bins with one array add.  This is the digest it
replaced, which folds values in one Python ``add`` at a time and keeps
its bins as a list of ints.  ``tests/fleet/test_reduce.py`` pins the
array digest to it field for field: bin counts, count, total, min, max,
exact values, quantiles, ``worn_out_fraction`` and ``mean``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fleet.reduce import WEAR_BIN_WIDTH, WEAR_N_BINS


class WearDigest:
    """Per-value digest: bins are a list, every value is one ``add``."""

    def __init__(self, keep_exact: bool = False) -> None:
        self.counts = [0] * (WEAR_N_BINS + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.exact: list[float] | None = [] if keep_exact else None

    def add(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"wear fractions must be finite and >= 0, got {value!r}")
        index = min(int(value / WEAR_BIN_WIDTH), WEAR_N_BINS)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.exact is not None:
            self.exact.append(value)

    def add_many(self, values) -> None:
        for value in values:
            self.add(value)

    def merge_in(self, other: "WearDigest") -> None:
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        if self.exact is not None and other.exact is not None:
            self.exact.extend(other.exact)
        else:
            self.exact = None

    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("empty digest has no mean")
        return self.total / self.count

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            raise ValueError("empty digest has no quantiles")
        if self.exact is not None:
            return float(np.quantile(np.asarray(self.exact), q))
        target = q * self.count
        cumulative = 0
        for index, bin_count in enumerate(self.counts):
            if bin_count == 0:
                continue
            if cumulative + bin_count >= target:
                if index >= WEAR_N_BINS:
                    return self.max
                fraction = (
                    (target - cumulative) / bin_count if bin_count else 0.0
                )
                value = (index + min(max(fraction, 0.0), 1.0)) * WEAR_BIN_WIDTH
                return min(max(value, self.min), self.max)
            cumulative += bin_count
        return self.max

    def worn_out_fraction(self, threshold: float = 1.0) -> float:
        if self.count == 0:
            raise ValueError("empty digest has no worn-out fraction")
        if self.exact is not None:
            return sum(1 for v in self.exact if v >= threshold) / self.count
        first = min(int(math.ceil(threshold / WEAR_BIN_WIDTH)), WEAR_N_BINS)
        return sum(self.counts[first:]) / self.count
