"""The physics model the empirical flash error model is pinned to.

:class:`VoltageModel` is a threshold-voltage distribution model: RBER
from first principles.

§2.1-§2.2 describe the physics our empirical
:class:`~repro.flash.error_model.ErrorModel` abstracts: cells are charged
to one of ``2^bits`` threshold-voltage levels inside a fixed window;
"cells can store more bits using more precise, slower programming which
differentiates between smaller voltage level ranges"; wear and retention
widen and shift the per-level charge distributions until neighbours
overlap and reads misclassify.

This module derives the raw bit error rate from that picture directly:

* levels are Gaussians, evenly spaced in a normalized [0, 1] window;
* programming noise sets the fresh sigma; wear adds variance (oxide
  damage) and retention shifts distributions downward (charge leakage)
  while widening them;
* a read misclassifies when the cell's voltage crosses the midpoint
  between adjacent levels; with Gray coding, one level misread costs one
  bit flip out of ``bits`` stored.

It exists to *validate* the empirical model: ``test_voltage.py`` checks
both models agree on every qualitative ordering the experiments rely on
(denser is worse, pseudo-modes relieve, wear and retention hurt).
Nothing in ``repro`` runs it.

Tests import this module as ``from flash_oracles import VoltageModel``.
"""

from __future__ import annotations

import math

from repro.flash.cell import CellMode
from repro.flash.reliability import endurance_pec

__all__ = ["VoltageModel"]

#: Fresh programming-noise sigma as a fraction of the full window.
_SIGMA_FRESH = 0.010
#: Additional sigma (window fraction) at rated wear.
_SIGMA_WEAR = 0.012
#: Mean downward drift (window fraction) per retention year, amplified
#: by wear (damaged oxide leaks faster).
_DRIFT_PER_YEAR = 0.004
#: Program precision improves for lower densities (slower ISPP with
#: finer steps is *possible*, but pseudo modes reuse the native pulse),
#: so sigma is technology-fixed while spacing is mode-dependent.


def _phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class VoltageModel:
    """Gaussian threshold-voltage model for one operating mode.

    Parameters
    ----------
    mode:
        Cell technology + operating density.
    rated_pec:
        Wear normalization (defaults to the mode's table rating when
        used through :meth:`rber`); exposed for calibration studies.
    """

    def __init__(self, mode: CellMode, rated_pec: int | None = None) -> None:
        self.mode = mode
        self.levels = mode.operating_levels
        self.spacing = 1.0 / (self.levels - 1) if self.levels > 1 else 1.0
        self.rated_pec = rated_pec if rated_pec is not None else endurance_pec(mode)

    def sigma(self, pec: float) -> float:
        """Per-level voltage sigma at a given wear (window fraction)."""
        if pec < 0:
            raise ValueError("pec must be non-negative")
        return _SIGMA_FRESH + _SIGMA_WEAR * (pec / self.rated_pec)

    def drift(self, pec: float, years: float) -> float:
        """Mean retention drift of a level at given wear/age."""
        if years < 0:
            raise ValueError("years must be non-negative")
        return _DRIFT_PER_YEAR * years * (1.0 + pec / self.rated_pec)

    def level_error_prob(self, pec: float, years: float = 0.0) -> float:
        """Probability a cell is read at a neighbouring level.

        The cell's distribution N(mu - drift, sigma^2) is compared to the
        read thresholds at mu +- spacing/2; an interior level can err in
        both directions.
        """
        sigma = self.sigma(pec)
        drift = self.drift(pec, years)
        half = self.spacing / 2.0
        # downward crossing (drift moves the mean toward the lower threshold)
        p_down = _phi((-half + drift) / sigma)
        # upward crossing
        p_up = 1.0 - _phi((half + drift) / sigma)
        interior_fraction = max(0.0, (self.levels - 2) / self.levels)
        edge_fraction = 1.0 - interior_fraction
        # edge levels can only err inward; approximate with the larger side
        p_edge = max(p_down, p_up)
        return interior_fraction * (p_down + p_up) + edge_fraction * p_edge

    def rber(self, pec: float, years: float = 0.0) -> float:
        """Raw bit error rate: one misread level costs ~1 bit of ``bits``
        under Gray coding."""
        bits = self.mode.operating_bits
        return min(0.5, self.level_error_prob(pec, years) / bits)
