"""SOS configuration validation and the design constants."""

from __future__ import annotations

import pytest

from repro.core.config import (
    SPARE_HEALTH,
    SPARE_MAX_RBER,
    SPARE_MODE,
    SPARE_WEAR_LEVELING,
    SYS_HEALTH,
    SYS_MAX_RBER,
    SYS_MODE,
    SYS_WEAR_LEVELING,
    TECHNOLOGY,
    default_config,
)
from repro.flash.cell import CellTechnology, native_mode, pseudo_mode


class TestDefaults:
    def test_default_is_half_half_plc(self):
        config = default_config()
        assert config.spare_fraction == 0.5
        assert TECHNOLOGY is CellTechnology.PLC
        assert SYS_MODE == pseudo_mode(CellTechnology.PLC, 4)
        assert SPARE_MODE == native_mode(CellTechnology.PLC)

    def test_mean_operating_bits_default_is_4_5(self):
        assert default_config().mean_operating_bits == pytest.approx(4.5)

    def test_spare_wear_leveling_disabled_by_default(self):
        """§4.3: preemptive wear leveling disabled on SPARE."""
        assert not SPARE_WEAR_LEVELING
        assert SYS_WEAR_LEVELING

    def test_trim_target_is_3_percent(self):
        """§4.5: 'once enough space (e.g. 3% of capacity) has been freed'."""
        assert default_config().trim_free_target == pytest.approx(0.03)


class TestValidation:
    def test_degenerate_split_rejected(self):
        with pytest.raises(ValueError):
            default_config(spare_fraction=0.0)
        with pytest.raises(ValueError):
            default_config(spare_fraction=1.0)


class TestHealthPolicies:
    def test_sys_health_has_no_resuscitation(self):
        """SYS never drops density below the capacity plan."""
        assert SYS_HEALTH.resuscitation_modes == ()

    def test_spare_health_ladder_is_ptlc_then_pslc(self):
        ladder = SPARE_HEALTH.resuscitation_modes
        assert [m.operating_bits for m in ladder] == [3, 1]

    def test_spare_budget_tighter_than_sys(self):
        """SPARE has no ECC: its raw-RBER budget must be much smaller."""
        assert SPARE_MAX_RBER < SYS_MAX_RBER
