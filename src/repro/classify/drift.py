"""User-preference drift and periodic re-evaluation (§4.4).

"We plan to periodically re-evaluate user preferences as these tend to
change over time" [Khan et al., Ramokapane et al.].  A file's value is
not static: yesterday's throwaway shot becomes treasured after a loss;
a favorited document stops mattering when its project ends.

The drift model evolves each file's latent value with a mean-reverting
random walk and re-emits the observable attributes from the new value
(a valued file keeps being accessed; a devalued one goes idle).  The A5
ablation compares classify-once-at-creation against periodic
re-evaluation under this drift.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.host.files import FileAttributes, SYSTEM_KINDS

from .corpus import (
    CRITICAL_VALUE_THRESHOLD, DELETE_VALUE_THRESHOLD, CorpusConfig, LabelledFile,
)

__all__ = ["DriftConfig", "drift_corpus"]


@dataclasses.dataclass(frozen=True, slots=True)
class DriftConfig:
    """Latent-value drift parameters.

    Attributes
    ----------
    volatility:
        Stddev of the annual value innovation.
    reversion:
        Pull toward the long-run mean per year (0..1).
    long_run_mean:
        Value files drift toward absent user signals.
    """

    volatility: float = 0.18
    reversion: float = 0.10
    long_run_mean: float = 0.40


def _drift_value(value: float, dt_years: float, config: DriftConfig,
                 rng: np.random.Generator) -> float:
    pulled = value + config.reversion * dt_years * (config.long_run_mean - value)
    noisy = pulled + rng.normal(0.0, config.volatility * np.sqrt(dt_years))
    return float(np.clip(noisy, 0.0, 1.0))


def _reemit_attributes(
    attrs: FileAttributes, value: float, now: float, dt_years: float,
    rng: np.random.Generator,
) -> FileAttributes:
    """Update observable attributes to reflect the (new) latent value."""
    # valued files keep being accessed; devalued ones go idle
    new_accesses = int(rng.poisson(30.0 * value * dt_years))
    last_access = now if new_accesses > 0 else attrs.last_access_years
    favorite = attrs.user_favorite
    if rng.random() < 0.4 * dt_years:
        favorite = value > 0.6  # favorites tracked to current value
    return dataclasses.replace(
        attrs,
        access_count=attrs.access_count + new_accesses,
        last_access_years=last_access,
        user_favorite=favorite,
    )


def drift_corpus(
    corpus: list[LabelledFile],
    dt_years: float,
    config: DriftConfig | None = None,
    corpus_config: CorpusConfig | None = None,
    seed: int = 0,
) -> list[LabelledFile]:
    """Evolve a corpus ``dt_years`` forward; returns a new corpus.

    Latent values random-walk (system files stay pinned at value 1),
    attributes are re-emitted, and ground-truth labels are recomputed
    from the corpus thresholds.
    """
    config = config or DriftConfig()
    corpus_config = corpus_config or CorpusConfig()
    rng = np.random.default_rng(seed)
    now = corpus_config.now_years + dt_years
    out: list[LabelledFile] = []
    for item in corpus:
        if item.record.kind in SYSTEM_KINDS:
            out.append(item)
            continue
        value = _drift_value(item.latent_value, dt_years, config, rng)
        record = dataclasses.replace(
            item.record,
            attributes=_reemit_attributes(
                item.record.attributes, value, now, dt_years, rng
            ),
            extents=list(item.record.extents),
        )
        out.append(
            LabelledFile(
                record=record,
                critical=value >= CRITICAL_VALUE_THRESHOLD,
                user_would_delete=value <= DELETE_VALUE_THRESHOLD,
                latent_value=value,
            )
        )
    return out
