"""Named ECC protection policies used by SOS partitions.

The paper's §4.2 distinguishes two protection regimes:

* **SYS** blocks are "stored conservatively with additional redundancy
  (e.g., parity)" -- we model this as strong BCH plus a block-level parity
  page (RAID-5-style across the block);
* **SPARE** blocks use "weak protection (e.g., no ECC)" -- we model a
  spectrum: NONE, WEAK (Hamming-class, t=1), and, for ablation, the same
  STRONG code used on SYS.

A policy bundles the analytic :class:`~repro.ecc.model.CodewordSpec` used
by lifetime sims with a factory for the bit-exact codec used in
small-scale experiments, so both fidelities apply identical protection.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .bch import BCHCode
from .hamming import HammingSecDed
from .model import (
    CodewordSpec,
    page_failure_prob,
    page_failure_prob_many,
    residual_ber,
    residual_ber_many,
)

__all__ = ["ProtectionLevel", "ProtectionPolicy", "POLICIES"]


class ProtectionLevel(enum.Enum):
    """Spectrum of per-page protection strengths."""

    NONE = "none"
    WEAK = "weak"
    STRONG = "strong"


@functools.lru_cache(maxsize=None)
def _bch_codec(m: int, t: int) -> BCHCode:
    """Shared bit-exact BCH instance per ``(m, t)``.

    Construction builds the generator polynomial over GF(2^m) and the
    codec's lookup tables -- milliseconds of work that ``make_codec``
    callers would otherwise repeat per partition per run.  BCHCode is
    immutable after ``__init__`` (encode/decode are pure), so one
    instance is safe to share across every policy and thread.
    """
    return BCHCode(m=m, t=t)


@dataclass(frozen=True, slots=True)
class ProtectionPolicy:
    """One protection operating point.

    Attributes
    ----------
    level:
        Named strength.
    spec:
        Analytic codeword shape for the lifetime model.
    block_parity:
        Whether a block-level parity page is reserved (SYS redundancy);
        costs one page per block and recovers any single failed page.
    """

    level: ProtectionLevel
    spec: CodewordSpec
    block_parity: bool = False

    def make_codec(self) -> BCHCode | HammingSecDed | None:
        """Bit-exact codec matching :attr:`spec` (None for unprotected)."""
        if self.level is ProtectionLevel.NONE:
            return None
        if self.level is ProtectionLevel.WEAK:
            return HammingSecDed(r=6)  # n=64, k=57, t=1
        return _bch_codec(m=10, t=8)  # n=1023, k=943, t=8

    def page_failure_prob(self, rber: float, page_bits: int) -> float:
        """P(page uncorrectable) for a page of ``page_bits`` at ``rber``."""
        if self.level is ProtectionLevel.NONE:
            # no ECC: a page "fails" only in the sense of carrying errors;
            # callers treat residual BER, not failure, as the signal
            return 0.0
        codewords = max(1, page_bits // self.spec.k)
        return page_failure_prob(self.spec, rber, codewords)

    def page_failure_prob_many(self, rber: np.ndarray, page_bits: int) -> np.ndarray:
        """Vectorized :meth:`page_failure_prob` over an RBER array."""
        if self.level is ProtectionLevel.NONE:
            return np.zeros_like(np.asarray(rber, dtype=float))
        codewords = max(1, page_bits // self.spec.k)
        return page_failure_prob_many(self.spec, rber, codewords)

    def residual_ber(self, rber: float) -> float:
        """Application-visible bit error rate after this protection."""
        return residual_ber(self.spec, rber)

    def residual_ber_many(self, rber: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`residual_ber` over an RBER array."""
        return residual_ber_many(self.spec, rber)

    @property
    def capacity_overhead(self) -> float:
        """Fraction of raw capacity consumed by parity (codeword + block)."""
        cw = (self.spec.n - self.spec.k) / self.spec.n
        return cw if not self.block_parity else cw + (1.0 - cw) * (1.0 / 64.0)


#: Canonical policy instances.  WEAK mirrors HammingSecDed(r=6); STRONG
#: mirrors BCH(m=10, t=8); NONE is a degenerate t=0 "code".
POLICIES: dict[ProtectionLevel, ProtectionPolicy] = {
    ProtectionLevel.NONE: ProtectionPolicy(
        ProtectionLevel.NONE, CodewordSpec(n=1024, k=1024, t=0)
    ),
    ProtectionLevel.WEAK: ProtectionPolicy(
        ProtectionLevel.WEAK, CodewordSpec(n=64, k=57, t=1)
    ),
    ProtectionLevel.STRONG: ProtectionPolicy(
        ProtectionLevel.STRONG, CodewordSpec(n=1023, k=943, t=8), block_parity=True
    ),
}
