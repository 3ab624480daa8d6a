"""Residual BER against the exact upper-tail sum it models.

:func:`repro.ecc.model.residual_ber_many` evaluates
``E[X * 1{X > t}] / n`` for ``X ~ Binomial(n, rber)`` through one
binomial survival function.  The oracle here sums the tail term by term,
``sum_{j > t} j * pmf(j; n, rber) / n``: every term is positive, so the
sum has no cancellation, even at RBERs where the residual is many orders
of magnitude below ``rber``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import binom

from repro.ecc.model import CodewordSpec, residual_ber, residual_ber_many
from repro.ecc.policy import POLICIES, ProtectionLevel

RBERS = (1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 2e-2)
SPECS = {
    "strong": POLICIES[ProtectionLevel.STRONG].spec,  # BCH n=1023, t=8
    "weak": POLICIES[ProtectionLevel.WEAK].spec,  # SEC-DED n=64, t=1
}


def _upper_tail(spec: CodewordSpec, rber: float) -> float:
    j = np.arange(spec.t + 1, spec.n + 1)
    return math.fsum(j * binom.pmf(j, spec.n, rber)) / spec.n


@pytest.mark.parametrize("rber", RBERS)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_residual_matches_upper_tail_sum(name, rber):
    spec = SPECS[name]
    expected = _upper_tail(spec, rber)
    assert expected > 0.0
    assert residual_ber(spec, rber) == pytest.approx(expected, rel=1e-12, abs=0)
    many = residual_ber_many(spec, np.full((2, 3), rber))
    assert many.shape == (2, 3)
    np.testing.assert_allclose(many, expected, rtol=1e-12, atol=0)


def test_scalar_is_the_size_one_case():
    spec = SPECS["strong"]
    rbers = np.geomspace(1e-7, 0.5, 40)
    many = residual_ber_many(spec, rbers)
    assert [residual_ber(spec, float(r)) for r in rbers] == many.tolist()


def test_range_check_applies_only_with_ecc():
    unprotected = CodewordSpec(n=1024, k=1024, t=0)
    assert residual_ber(unprotected, 1.5) == 1.5
    for rber in (-1e-9, 1.5, math.nan):
        with pytest.raises(ValueError):
            residual_ber(SPECS["strong"], rber)
        with pytest.raises(ValueError):
            residual_ber_many(SPECS["weak"], np.array([1e-3, rber]))
    assert residual_ber(SPECS["strong"], 0.0) == 0.0
    assert residual_ber(SPECS["strong"], 1.0) == 1.0
