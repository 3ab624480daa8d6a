"""RBER model structure: monotonicity, pseudo-mode relief, inversion."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.cell import CellMode, CellTechnology, native_mode, pseudo_mode
from repro.flash.error_model import ErrorModel


@pytest.fixture
def plc_model() -> ErrorModel:
    return ErrorModel(native_mode(CellTechnology.PLC))


class TestMonotonicity:
    def test_rber_increases_with_wear(self, plc_model):
        values = [plc_model.rber(pec) for pec in (0, 100, 250, 500, 1000)]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_rber_increases_with_retention_age(self, plc_model):
        values = [plc_model.rber(100, years_since_write=t) for t in (0, 0.5, 1, 2, 5)]
        assert values == sorted(values)

    def test_rber_increases_with_read_disturb(self, plc_model):
        values = [plc_model.rber(100, reads_since_write=r) for r in (0, 1e4, 1e5, 1e6)]
        assert values == sorted(values)

    def test_rber_capped_at_half(self, plc_model):
        assert plc_model.rber(1_000_000, years_since_write=100) == 0.5

    def test_negative_stress_rejected(self, plc_model):
        with pytest.raises(ValueError):
            plc_model.rber(-1)
        with pytest.raises(ValueError):
            plc_model.rber(0, years_since_write=-0.1)


class TestTechnologyOrdering:
    def test_denser_technology_has_higher_rber_at_same_absolute_wear(self):
        """At equal PEC and age, PLC must be noisier than TLC than SLC."""
        pec, age = 400, 0.5
        rbers = [
            ErrorModel(native_mode(t)).rber(pec, age)
            for t in (CellTechnology.SLC, CellTechnology.TLC, CellTechnology.PLC)
        ]
        assert rbers == sorted(rbers)

    def test_pseudo_qlc_on_plc_quieter_than_native_plc(self):
        native = ErrorModel(native_mode(CellTechnology.PLC))
        pseudo = ErrorModel(pseudo_mode(CellTechnology.PLC, 4))
        for pec in (0, 200, 500):
            assert pseudo.rber(pec) < native.rber(pec)

    def test_resuscitation_reduces_rber_at_same_wear(self):
        """§4.3: a worn PLC block reborn as pseudo-TLC must be usable."""
        worn_pec = 600  # past native PLC rating
        native = ErrorModel(native_mode(CellTechnology.PLC)).rber(worn_pec)
        ptlc = ErrorModel(pseudo_mode(CellTechnology.PLC, 3)).rber(worn_pec)
        assert ptlc < native / 10


class TestInversion:
    def test_pec_for_rber_inverts_rber(self, plc_model):
        target = 1e-3
        pec = plc_model.pec_for_rber(target)
        assert plc_model.rber(pec) == pytest.approx(target, rel=1e-3)

    def test_pec_for_rber_zero_when_already_exceeded(self, plc_model):
        tiny = plc_model.rber(0) / 2
        assert plc_model.pec_for_rber(tiny) == 0.0

    def test_pec_for_rber_rejects_nonpositive_target(self, plc_model):
        with pytest.raises(ValueError):
            plc_model.pec_for_rber(0.0)

    def test_pec_for_rber_with_retention_is_smaller(self, plc_model):
        """Aged data reaches any RBER threshold at lower wear."""
        fresh = plc_model.pec_for_rber(1e-3, years_since_write=0.0)
        aged = plc_model.pec_for_rber(1e-3, years_since_write=1.0)
        assert aged < fresh


class TestBreakdown:
    def test_breakdown_product_equals_total(self, plc_model):
        b = plc_model.breakdown(300, 0.7, 1e5)
        expected = b.baseline * b.wear_factor * b.retention_factor * b.read_disturb_factor
        assert b.total == pytest.approx(expected)

    def test_fresh_unstressd_breakdown_is_baseline(self, plc_model):
        b = plc_model.breakdown(0, 0, 0)
        assert b.wear_factor == 1.0
        assert b.retention_factor == 1.0
        assert b.read_disturb_factor == 1.0


#: every operating mode: each technology at each density up to native
ALL_MODES = [
    CellMode(tech, bits) for tech in CellTechnology for bits in range(1, tech.value + 1)
]

#: ``rber_many``'s vectorized power may round differently from ``**``:
#: up to ~7.3e-16 relative (~3 ulp) was seen over 300k random points
RBER_MANY_REL = 1e-15


class TestVectorized:
    """``rber_many`` agrees with the scalar ``rber`` within a few ulp."""

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.name)
    def test_rber_many_matches_rber_on_random_stress(self, mode, make_rng):
        model = ErrorModel(mode)
        rng = make_rng(2024 + 7 * mode.technology.value + mode.operating_bits)
        n = 4000
        pec = rng.uniform(0.0, 3.0 * model.rated_pec, n)
        years = rng.uniform(0.0, 10.0, n)
        reads = rng.uniform(0.0, 2e6, n)
        many = model.rber_many(pec, years, reads)
        scalar = np.array([
            model.rber(p, y, r)
            for p, y, r in zip(pec.tolist(), years.tolist(), reads.tolist())
        ])
        np.testing.assert_allclose(many, scalar, rtol=RBER_MANY_REL, atol=0.0)

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.name)
    def test_zero_stress_and_cap_agree_exactly(self, mode):
        model = ErrorModel(mode)
        pec = np.array([0.0, 1000.0 * model.rated_pec, 0.0])
        years = np.array([0.0, 100.0, 2.5])
        reads = np.array([0.0, 1e9, 3e5])
        many = model.rber_many(pec, years, reads)
        assert many[0] == model.rber(0, 0.0, 0.0) == model.breakdown(0, 0, 0).baseline
        assert many[1] == model.rber(pec[1], years[1], reads[1]) == 0.5
        # no wear, so no power: the same IEEE operations in both forms
        assert many[2] == model.rber(0, 2.5, 3e5)

    def test_rber_is_capped_breakdown_total(self, plc_model):
        for stress in [(0, 0, 0), (300, 0.7, 1e5), (5000, 3.0, 1e7)]:
            assert plc_model.rber(*stress) == min(0.5, plc_model.breakdown(*stress).total)


@given(
    pec=st.floats(min_value=0, max_value=5000),
    age=st.floats(min_value=0, max_value=10),
    reads=st.floats(min_value=0, max_value=1e7),
)
@settings(max_examples=200, deadline=None)
def test_rber_always_in_valid_range(pec, age, reads):
    """Property: RBER is a probability for any stress point."""
    model = ErrorModel(native_mode(CellTechnology.QLC))
    value = model.rber(pec, age, reads)
    assert 0.0 < value <= 0.5
