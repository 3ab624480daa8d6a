"""The SOS design pinned across fidelities.

The bit-exact device (:func:`build_partitions`, :class:`SOSDevice`) and
the epoch model (:func:`build_sos`) build the same §4.2-§4.3 device:
each partition's mode, protection, RBER ceiling, health horizon and
resuscitation ladder agree, as do the scrub floor, the demotion
threshold and the page-quality exponent.  The carbon and density
figures derived from the cell mix keep the bits they had before the
design had one home.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.classify.classifier import DEMOTE_THRESHOLD
from repro.core.config import default_config
from repro.core.degradation import DegradationMonitor
from repro.core.partitions import build_partitions
from repro.core.sos_device import SOSDevice
from repro.flash.cell import CellMode
from repro.host.hints import Placement
from repro.media.quality import FRAME_SENSITIVITY, FrameType
from repro.sim.baselines import build_sos
from repro.sim.lifetime import PartitionSpec

FRACTIONS = (0.25, 0.5, 0.75)

#: float.hex() of each fraction's build_sos intensity, mean operating
#: bits, and default-geometry SOSDevice embodied carbon (capacity,
#: intensity, total)
PINNED = {
    0.25: ("0x1.d2f1a9fbe76c8p-4", "0x1.1000000000000p+2",
           ("0x1.bead3593f1cb2p-13", "0x1.d2f1a9fbe76c8p-4", "0x1.975e7a974f341p-16")),
    0.5: ("0x1.ba5e353f7ced9p-4", "0x1.2000000000000p+2",
          ("0x1.e1094d643f784p-13", "0x1.ba5e353f7ced9p-4", "0x1.9f9d8a8bdcb9dp-16")),
    0.75: ("0x1.a1cac083126eap-4", "0x1.3000000000000p+2",
           ("0x1.01b2b29a4692bp-12", "0x1.a1cac083126eap-4", "0x1.a4902db831a3ap-16")),
}


@pytest.fixture(scope="module")
def device() -> SOSDevice:
    return SOSDevice(default_config())


def _spec_default(name: str):
    return next(f.default for f in dataclasses.fields(PartitionSpec) if f.name == name)


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("placement", [Placement.SYS, Placement.SPARE])
def test_fidelities_build_the_same_partition(fraction, placement):
    stream = build_partitions(default_config(spare_fraction=fraction)).ftl.stream(
        placement.value
    ).config
    spec = build_sos(64.0, spare_fraction=fraction).device.partitions[placement.value].spec
    assert spec.mode == stream.mode
    assert spec.protection is stream.protection
    assert spec.max_rber == stream.health.max_rber
    assert spec.health_horizon_years == stream.health.retention_horizon_years
    ladder = tuple(CellMode(spec.mode.technology, bits) for bits in spec.resuscitation_bits)
    assert ladder == stream.health.resuscitation_modes
    assert spec.wear_leveling == stream.wear_leveling.enabled


def test_scrubber_floor_is_the_epoch_spare_floor(device):
    spare = build_sos().device.partitions["spare"].spec
    assert spare.scrub_enabled
    assert device.scrubber.quality_floor == spare.scrub_quality_floor


def test_classifier_threshold_is_the_design_threshold(device):
    assert device.classifier.demote_threshold == DEMOTE_THRESHOLD


def test_page_quality_exponent_is_the_p_frame_one():
    p_frame = FRAME_SENSITIVITY[FrameType.P]
    assert _spec_default("quality_sensitivity") == p_frame
    assert DegradationMonitor.sensitivity == p_frame


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_carbon_and_density_keep_their_bits(fraction, device):
    intensity, bits, (capacity, device_intensity, total) = PINNED[fraction]
    assert build_sos(64.0, spare_fraction=fraction).intensity_kg_per_gb.hex() == intensity
    assert default_config(spare_fraction=fraction).mean_operating_bits.hex() == bits
    other = SOSDevice(
        default_config(spare_fraction=fraction),
        classifier=device.classifier,
        auto_delete=device.auto_delete,
    )
    carbon = other.embodied_carbon()
    assert carbon.capacity_gb.hex() == capacity
    assert carbon.intensity_kg_per_gb.hex() == device_intensity
    assert carbon.total_kg.hex() == total
