"""Closed-form ECC failure model.

Lifetime simulations cannot run a bit-exact BCH decode for every page of a
multi-year trace, so they use the standard analytic form: for a codeword
of ``n`` bits protected against ``t`` errors, with independent bit errors
at rate ``rber``, the codeword fails when more than ``t`` bits flip:

    P(fail) = P[Binomial(n, rber) > t] = 1 - BinomCDF(t; n, rber)

Page-level failure composes codeword failures across the interleaved
codewords covering the page.  The model also exposes the expected count of
*residual* bit errors delivered to the application when a codeword fails
(or when no ECC is used), which drives media-quality degradation in the
approximate-storage experiments.

Cross-validated against the bit-exact :class:`repro.ecc.bch.BCHCode` in
``tests/ecc/test_model_vs_bch.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CodewordSpec",
    "codeword_failure_prob",
    "page_failure_prob",
    "residual_ber",
    "page_failure_prob_many",
    "residual_ber_many",
]


def _binom():
    """``scipy.stats.binom``, imported on first use.

    ``scipy.stats`` is most of the import time and resident memory of
    any program that imports :mod:`repro.ecc`, yet only the four
    binomial functions below need it; the bit-exact codecs, the FTL and
    the stores never do.
    """
    from scipy import stats

    return stats.binom


@dataclass(frozen=True, slots=True)
class CodewordSpec:
    """Shape of one ECC codeword: ``n`` total bits protecting ``k`` data bits
    against up to ``t`` bit errors (``t = 0`` models no ECC)."""

    n: int
    k: int
    t: int

    def __post_init__(self) -> None:
        if self.n < 1 or not 0 < self.k <= self.n or self.t < 0:
            raise ValueError(f"invalid codeword spec {self}")

    @property
    def overhead(self) -> float:
        """Parity overhead as a fraction of data bits."""
        return (self.n - self.k) / self.k


def codeword_failure_prob(spec: CodewordSpec, rber: float) -> float:
    """Probability one codeword exceeds its correction budget at ``rber``."""
    if not 0.0 <= rber <= 1.0:
        raise ValueError("rber must be in [0, 1]")
    if rber == 0.0:
        return 0.0
    return float(_binom().sf(spec.t, spec.n, rber))


def page_failure_prob(spec: CodewordSpec, rber: float, codewords_per_page: int) -> float:
    """Probability at least one of a page's codewords fails at ``rber``."""
    if codewords_per_page < 1:
        raise ValueError("codewords_per_page must be >= 1")
    p_cw = codeword_failure_prob(spec, rber)
    # log-space to stay accurate for tiny probabilities
    if p_cw >= 1.0:
        return 1.0
    return float(-math.expm1(codewords_per_page * math.log1p(-p_cw)))


def residual_ber(spec: CodewordSpec, rber: float) -> float:
    """Expected bit error rate delivered to the application after ECC.

    When the codeword decodes (<= t errors) all are corrected and the
    residual is zero for those words.  When it fails (> t errors), the
    decoder typically returns the raw word (or a miscorrection of similar
    weight), so the residual error count approximates the raw count.

        residual = E[errors | fail] * P(fail) / n

    For ``t = 0`` (no ECC) this reduces to exactly ``rber``.
    """
    if spec.t == 0:
        return rber
    p_fail = codeword_failure_prob(spec, rber)
    if p_fail == 0.0:
        return 0.0
    mean_errors = spec.n * rber
    # E[X | X > t] for X ~ Binomial(n, p), computed from the tail sums.
    # E[X] = E[X | X<=t] P(X<=t) + E[X | X>t] P(X>t)
    below = 0.0
    for j in range(spec.t + 1):
        below += j * float(_binom().pmf(j, spec.n, rber))
    mean_given_fail = (mean_errors - below) / p_fail
    # floating-point cancellation can leave a tiny negative residue
    return max(0.0, mean_given_fail * p_fail / spec.n)


def page_failure_prob_many(
    spec: CodewordSpec, rber: np.ndarray, codewords_per_page: int
) -> np.ndarray:
    """Vectorized :func:`page_failure_prob` over an array of RBER values."""
    if codewords_per_page < 1:
        raise ValueError("codewords_per_page must be >= 1")
    rber = np.asarray(rber, dtype=float)
    if np.any((rber < 0.0) | (rber > 1.0)):
        raise ValueError("rber must be in [0, 1]")
    p_cw = np.where(rber > 0.0, _binom().sf(spec.t, spec.n, rber), 0.0)
    saturated = p_cw >= 1.0
    # log-space to stay accurate for tiny probabilities
    safe = np.where(saturated, 0.0, p_cw)
    out = -np.expm1(codewords_per_page * np.log1p(-safe))
    return np.where(saturated, 1.0, out)


def residual_ber_many(spec: CodewordSpec, rber: np.ndarray) -> np.ndarray:
    """Vectorized :func:`residual_ber` over an array of RBER values.

    Accepts any input shape (the batched fleet engine passes
    ``(n_devices, n_groups)``); the result matches the input shape.
    """
    rber = np.asarray(rber, dtype=float)
    if spec.t == 0:
        return rber.astype(float, copy=True)
    flat = rber.ravel()
    p_fail = np.where(flat > 0.0, _binom().sf(spec.t, spec.n, flat), 0.0)
    mean_errors = spec.n * flat
    j = np.arange(spec.t + 1, dtype=float)
    below = (j[:, None] * _binom().pmf(j[:, None], spec.n, flat[None, :])).sum(axis=0)
    # mean_given_fail * p_fail == mean_errors - below; guard the p_fail == 0
    # branch of the scalar form and clamp the cancellation residue
    out = np.where(p_fail > 0.0, np.maximum(0.0, mean_errors - below) / spec.n, 0.0)
    return out.reshape(rber.shape)
