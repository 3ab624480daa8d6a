"""Worn-block handling: retirement and density resuscitation.

§4.3 of the paper proposes two fates for a block that can no longer
reliably store data at its operating density:

* **retire** it, shrinking device capacity (capacity variance, exposed to
  a tolerant host file system);
* **resuscitate** it at a reduced density (e.g. worn PLC reborn as
  pseudo-TLC), trading capacity for renewed margin, citing FlexFS-style
  reduced-density reuse.

A block is deemed unreliable when its *predicted* end-of-retention RBER
exceeds what the partition's ECC can correct (for protected partitions)
or a quality-driven RBER ceiling (for approximate partitions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.block import Block
from repro.flash.cell import CellMode
from repro.flash.error_model import ErrorModel, cached_error_model

__all__ = [
    "BlockHealthPolicy",
    "BlockVerdict",
    "assess_block",
    "infant_mortality_deaths",
]


@dataclass(frozen=True, slots=True)
class BlockHealthPolicy:
    """Thresholds for declaring a block unreliable at its current mode.

    Attributes
    ----------
    max_rber:
        RBER ceiling the partition tolerates (derived from ECC strength or
        acceptable quality loss).
    retention_horizon_years:
        Data must stay below ``max_rber`` for this long after a write.
    resuscitation_modes:
        Decreasing-density fallback ladder to try before retiring, e.g.
        ``[pseudo_mode(PLC, 3), pseudo_mode(PLC, 1)]``.  Empty = retire
        immediately.
    """

    max_rber: float
    retention_horizon_years: float
    resuscitation_modes: tuple[CellMode, ...] = ()


@dataclass(frozen=True, slots=True)
class BlockVerdict:
    """Assessment outcome for one block."""

    healthy: bool
    #: mode to reconfigure to, if resuscitation is recommended
    resuscitate_to: CellMode | None = None
    #: True when the block should be retired outright
    retire: bool = False


def _is_reliable(model: ErrorModel, pec: int, policy: BlockHealthPolicy) -> bool:
    """Whether a block at ``pec`` under ``model`` can hold data for the
    retention horizon."""
    predicted = model.rber(pec=pec, years_since_write=policy.retention_horizon_years)
    return predicted <= policy.max_rber


def assess_block(block: Block, policy: BlockHealthPolicy) -> BlockVerdict:
    """Decide whether a block is healthy, resuscitable, or worn out.

    The assessment uses the block's accrued PEC and the *predicted* RBER at
    the policy's retention horizon -- i.e. "if I write data here today,
    will it still be readable at the end of the horizon?", which is the
    question an allocation-time health check must answer.  The block's
    own mode is judged by the block's error model; a resuscitation
    candidate by the shared model of that mode, whose cache key covers
    the endurance tables, so a table override gets a fresh model.
    """
    if block.retired:
        return BlockVerdict(healthy=False, retire=True)
    if _is_reliable(block.error_model, block.pec, policy):
        return BlockVerdict(healthy=True)
    for mode in policy.resuscitation_modes:
        if mode.operating_bits >= block.mode.operating_bits:
            continue  # only consider strictly lower densities
        if _is_reliable(cached_error_model(mode), block.pec, policy):
            return BlockVerdict(healthy=False, resuscitate_to=mode)
    return BlockVerdict(healthy=False, retire=True)


def infant_mortality_deaths(
    n_units: int, rate: float, rng: np.random.Generator
) -> list[int]:
    """Sample which of ``n_units`` blocks die in infancy.

    Real flash failure populations are not uniform wear-out: "The Dirty
    Secret of SSDs" reports failures clustered in early life (latent
    manufacturing defects) on top of the wear-driven tail.  Each unit
    dies independently with probability ``rate``; callers (the fault
    planner) schedule *when* inside the infant window.

    Consumes exactly one ``rng.random(n_units)`` draw, so plan
    generation stays reproducible as other fault classes are added.
    """
    if n_units <= 0:
        return []
    draws = rng.random(n_units)
    if rate <= 0.0:
        return []
    return [int(i) for i in np.flatnonzero(draws < rate)]
