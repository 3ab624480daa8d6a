"""Raw bit error rate (RBER) model for simulated NAND flash.

§2.1/§2.2 of the paper describe three error sources that the SOS design
manipulates:

* **wear (endurance) errors** -- tunnel-oxide damage accumulates with
  program/erase cycles (PEC), growing RBER super-linearly;
* **retention errors** -- charge leaks over time after a program, growing
  roughly linearly-to-polynomially with time since write and amplified by
  wear;
* **read disturb** -- each read of a block mildly stresses its other pages.

The model below is the standard multiplicative form used by flash
simulators (cf. Sampson et al., "Approximate Storage in Solid-State
Memories"; Cai et al.'s error-characterization series):

    RBER(pec, t, reads) = base * margin^-2
                        * (1 + (pec/rated)^g)
                        * (1 + t/t_ret * (1 + pec/rated))
                        * (1 + reads/READ_DISTURB_SCALE)

where ``margin`` is the pseudo-mode voltage margin factor (wider margins
suppress errors quadratically, since both the level spacing and the noise
integration window grow), ``g`` is a technology growth exponent, and
``t_ret`` the nominal retention horizon for the operating density.

Absolute values are calibrated so that a device at its rated PEC and
rated retention sits near the UBER knee for typical ECC (RBER ~ 1e-3 for
QLC-class parts), matching published characterization data to first order.
The experiments only rely on *relative* behaviour (PLC vs QLC vs TLC,
pseudo vs native), which the structure above guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cell import CellMode
from .reliability import ENDURANCE_TABLE, EnduranceSpec, endurance_pec, retention_years

__all__ = ["ErrorModel", "RberBreakdown", "cached_error_model"]

#: Reads to a block before read-disturb contributes ~100% extra RBER.
READ_DISTURB_SCALE = 500_000.0

#: Multiplier applied to baseline RBER so a part at rated PEC and nominal
#: retention lands near the ECC capability knee (calibration constant).
_WEAR_KNEE_MULTIPLIER = 150.0


@dataclass(frozen=True, slots=True)
class RberBreakdown:
    """Decomposition of an RBER prediction into its physical sources."""

    baseline: float
    wear_factor: float
    retention_factor: float
    read_disturb_factor: float

    @property
    def total(self) -> float:
        """Combined RBER (product of baseline and the three stress factors)."""
        return (
            self.baseline
            * self.wear_factor
            * self.retention_factor
            * self.read_disturb_factor
        )


class ErrorModel:
    """Analytic RBER model for one cell operating mode.

    Parameters
    ----------
    mode:
        Cell technology + operating density.  Pseudo modes inherit the
        underlying silicon's baseline noise but gain quadratic margin
        relief.
    """

    def __init__(self, mode: CellMode) -> None:
        self.mode = mode
        spec = ENDURANCE_TABLE[mode.technology]
        # Wider pseudo-mode margins suppress the baseline quadratically.
        self._baseline = spec.baseline_rber / (mode.margin_factor**2)
        self._growth = spec.rber_growth
        self._rated_pec = endurance_pec(mode)
        self._retention_horizon_years = retention_years(mode)

    @property
    def rated_pec(self) -> int:
        """Rated endurance of the operating mode in program/erase cycles."""
        return self._rated_pec

    @property
    def retention_horizon_years(self) -> float:
        """Nominal retention horizon of the operating density."""
        return self._retention_horizon_years

    def breakdown(
        self, pec: float, years_since_write: float = 0.0, reads_since_write: float = 0.0
    ) -> RberBreakdown:
        """Per-source RBER decomposition at a given stress point.

        Parameters
        ----------
        pec:
            Program/erase cycles the block has endured.
        years_since_write:
            Retention time of the data being read, in years.
        reads_since_write:
            Reads issued to the block since the page was written.
        """
        wear, retention, disturb = self._factors(pec, years_since_write, reads_since_write)
        return RberBreakdown(
            baseline=self._baseline,
            wear_factor=wear,
            retention_factor=retention,
            read_disturb_factor=disturb,
        )

    def rber(
        self, pec: float, years_since_write: float = 0.0, reads_since_write: float = 0.0
    ) -> float:
        """Raw bit error rate at the given stress point (capped at 0.5).

        The product :attr:`RberBreakdown.total` forms, in the same order,
        without building the breakdown.
        """
        wear, retention, disturb = self._factors(pec, years_since_write, reads_since_write)
        return min(0.5, self._baseline * wear * retention * disturb)

    def _factors(
        self, pec: float, years_since_write: float, reads_since_write: float
    ) -> tuple[float, float, float]:
        """(wear, retention, read-disturb) factors of one stress point."""
        if pec < 0 or years_since_write < 0 or reads_since_write < 0:
            raise ValueError("stress parameters must be non-negative")
        wear_ratio = pec / self._rated_pec
        wear = 1.0 + _WEAR_KNEE_MULTIPLIER * wear_ratio**self._growth
        retention = 1.0 + (years_since_write / self._retention_horizon_years) * (
            1.0 + wear_ratio
        )
        disturb = 1.0 + reads_since_write / READ_DISTURB_SCALE
        return wear, retention, disturb

    def rber_many(
        self,
        pec: np.ndarray,
        years_since_write: np.ndarray | float = 0.0,
        reads_since_write: np.ndarray | float = 0.0,
    ) -> np.ndarray:
        """Vectorized :meth:`rber` over arrays of stress points.

        The same formula as the scalar form, but not always the same
        bits: numpy's vectorized ``power`` can round differently from
        Python's ``**``, so an element may differ from :meth:`rber` by a
        few ulp (up to ~7e-16 relative; ``tests/flash/test_error_model.py``
        pins the two within 1e-15).  Used by the epoch model to evaluate
        whole partitions of block groups in one call; code that must
        match the scalar form bit for bit calls :meth:`rber`.  Unlike
        the scalar form, inputs are not validated -- callers must pass
        non-negative stress values (negative wear would silently produce
        nonsense through the power law).
        """
        pec = np.asarray(pec, dtype=float)
        years = np.asarray(years_since_write, dtype=float)
        reads = np.asarray(reads_since_write, dtype=float)
        wear_ratio = pec / self._rated_pec
        wear = 1.0 + _WEAR_KNEE_MULTIPLIER * wear_ratio**self._growth
        retention = 1.0 + (years / self._retention_horizon_years) * (1.0 + wear_ratio)
        disturb = 1.0 + reads / READ_DISTURB_SCALE
        return np.minimum(0.5, self._baseline * wear * retention * disturb)

    def pec_for_rber(
        self, target_rber: float, years_since_write: float = 0.0
    ) -> float:
        """Invert the wear axis: PEC at which RBER reaches ``target_rber``.

        Used to answer "how many cycles until this block can no longer be
        protected by ECC of strength t" -- the effective lifetime question
        at the heart of §4.2.  Solved by bisection (the model is monotone
        in ``pec``).  Returns ``inf`` if the target is unreachable below
        100x rated endurance; 0.0 if already exceeded at zero wear.
        """
        if target_rber <= 0:
            raise ValueError("target_rber must be positive")
        if self.rber(0, years_since_write) >= target_rber:
            return 0.0
        lo, hi = 0.0, float(self._rated_pec) * 100.0
        if self.rber(hi, years_since_write) < target_rber:
            return float("inf")
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if self.rber(mid, years_since_write) < target_rber:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0


@lru_cache(maxsize=64)
def _cached_model(
    mode: CellMode, spec: EnduranceSpec, rated_pec: int, retention: float
) -> ErrorModel:
    return ErrorModel(mode)


def cached_error_model(mode: CellMode) -> ErrorModel:
    """Shared :class:`ErrorModel` instance for ``mode``.

    An ``ErrorModel`` snapshots the endurance/retention tables at
    construction, and experiments (A6) temporarily override those tables,
    so the cache key includes every table value the model reads -- a
    table override transparently yields a different cached instance.
    """
    return _cached_model(
        mode, ENDURANCE_TABLE[mode.technology], endurance_pec(mode), retention_years(mode)
    )
