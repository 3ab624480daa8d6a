"""Voltage-distribution model and its agreement with the empirical model.

The empirical :class:`ErrorModel` drives all experiments; the
first-principles :class:`VoltageModel` validates it -- both must agree
on every qualitative ordering the paper's arguments rest on.
"""

from __future__ import annotations

import pytest

from flash_oracles import VoltageModel
from repro.flash.cell import CellTechnology, native_mode, pseudo_mode
from repro.flash.error_model import ErrorModel


class TestVoltagePhysics:
    def test_denser_modes_have_tighter_spacing(self):
        spacings = [
            VoltageModel(native_mode(t)).spacing
            for t in (CellTechnology.SLC, CellTechnology.TLC, CellTechnology.PLC)
        ]
        assert spacings == sorted(spacings, reverse=True)

    def test_rber_increases_with_wear(self):
        model = VoltageModel(native_mode(CellTechnology.PLC))
        values = [model.rber(pec) for pec in (0, 100, 300, 500)]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_rber_increases_with_retention(self):
        model = VoltageModel(native_mode(CellTechnology.PLC))
        values = [model.rber(200, years) for years in (0, 0.5, 1, 2)]
        assert values == sorted(values)

    def test_negative_inputs_rejected(self):
        model = VoltageModel(native_mode(CellTechnology.TLC))
        with pytest.raises(ValueError):
            model.sigma(-1)
        with pytest.raises(ValueError):
            model.drift(0, -1)

    def test_rber_bounded(self):
        model = VoltageModel(native_mode(CellTechnology.PLC))
        assert model.rber(100_000, 50.0) <= 0.5


class TestAgreementWithEmpiricalModel:
    """Qualitative orderings must match between the two models."""

    @pytest.mark.parametrize("pec,years", [(0, 0), (250, 0.5), (450, 1.0)])
    def test_density_ordering_matches(self, pec, years):
        techs = (CellTechnology.TLC, CellTechnology.QLC, CellTechnology.PLC)
        voltage = [VoltageModel(native_mode(t)).rber(pec, years) for t in techs]
        empirical = [ErrorModel(native_mode(t)).rber(pec, years) for t in techs]
        assert voltage == sorted(voltage)
        assert empirical == sorted(empirical)

    def test_pseudo_mode_relief_matches(self):
        """Both models: pseudo-QLC on PLC silicon beats native PLC."""
        pec = 400
        v_native = VoltageModel(native_mode(CellTechnology.PLC)).rber(pec)
        v_pseudo = VoltageModel(pseudo_mode(CellTechnology.PLC, 4)).rber(pec)
        e_native = ErrorModel(native_mode(CellTechnology.PLC)).rber(pec)
        e_pseudo = ErrorModel(pseudo_mode(CellTechnology.PLC, 4)).rber(pec)
        assert v_pseudo < v_native
        assert e_pseudo < e_native

    def test_resuscitation_ladder_monotone_in_both(self):
        """Dropping density on worn PLC silicon strictly reduces RBER."""
        worn = 600
        v = [
            VoltageModel(pseudo_mode(CellTechnology.PLC, bits)).rber(worn)
            for bits in (4, 3, 2, 1)
        ]
        e = [
            ErrorModel(pseudo_mode(CellTechnology.PLC, bits)).rber(worn)
            for bits in (4, 3, 2, 1)
        ]
        assert v == sorted(v, reverse=True)
        assert e == sorted(e, reverse=True)

    def test_wear_retention_interaction_same_sign(self):
        """Retention hurts more on worn cells in both models."""
        for model_cls in (VoltageModel, ErrorModel):
            model = model_cls(native_mode(CellTechnology.PLC))
            fresh_delta = model.rber(0, 1.0) - model.rber(0, 0.0)
            worn_delta = model.rber(400, 1.0) - model.rber(400, 0.0)
            assert worn_delta > fresh_delta
