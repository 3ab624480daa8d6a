"""E5 / §4.1-§4.2: density and capacity gains of the SOS split.

Regenerates the headline arithmetic: QLC +33% and PLC +66% over TLC; the
50/50 PLC + pseudo-QLC split delivers +50% capacity over TLC for the same
cells (the paper's 50%) and +12.5% over QLC (the paper rounds to 10%);
equivalently, 2/3 of the embodied carbon for the same capacity.
"""

from __future__ import annotations

from repro.analysis.claims import ClaimCheck, Comparison
from repro.analysis.reporting import format_table
from repro.carbon.embodied import intensity_kg_per_gb, mixed_intensity_kg_per_gb
from repro.core.config import cell_mix, default_config
from repro.core.partitions import build_partitions, capacity_gain_over, density_gain
from repro.flash.cell import CellTechnology
from repro.flash.geometry import Geometry

from .common import report

#: pages_per_block divisible by 5 so pseudo-mode page counts are exact
_GEOM = Geometry(page_size_bytes=512, pages_per_block=20, blocks_per_plane=32,
                 planes_per_die=2, dies=1)


def compute():
    config = default_config(geometry=_GEOM)
    device = build_partitions(config)
    sos_intensity = mixed_intensity_kg_per_gb(cell_mix(config.spare_fraction))
    # the same cells operated at TLC density (exact: 20 * 3/5 = 12 pages)
    tlc_pages = int(_GEOM.pages_per_block * 3 / 5)
    tlc_equiv_bytes = tlc_pages * _GEOM.page_size_bytes * _GEOM.total_blocks
    return {
        "qlc_over_tlc": CellTechnology.QLC.density_gain_over(CellTechnology.TLC),
        "plc_over_tlc": CellTechnology.PLC.density_gain_over(CellTechnology.TLC),
        "sos_over_tlc": density_gain(config),
        "sos_over_qlc": capacity_gain_over(config, CellTechnology.QLC),
        "carbon_reduction": 1 - sos_intensity / intensity_kg_per_gb(CellTechnology.TLC),
        "physical_capacity_bytes": device.chip.usable_capacity_bytes(),
        "tlc_equiv_bytes": tlc_equiv_bytes,
    }


def test_bench_e5_density_gain(benchmark):
    result = benchmark(compute)
    physical_gain = result["physical_capacity_bytes"] / result["tlc_equiv_bytes"] - 1
    rows = [
        ["QLC vs TLC", f"{result['qlc_over_tlc'] * 100:.1f}%"],
        ["PLC vs TLC", f"{result['plc_over_tlc'] * 100:.1f}%"],
        ["SOS split vs TLC (analytic)", f"{result['sos_over_tlc'] * 100:.1f}%"],
        ["SOS split vs TLC (built device)", f"{physical_gain * 100:.1f}%"],
        ["SOS split vs QLC", f"{result['sos_over_qlc'] * 100:.1f}%"],
        ["embodied carbon reduction vs TLC", f"{result['carbon_reduction'] * 100:.1f}%"],
    ]
    body = format_table(["comparison", "gain"], rows, title="Density / capacity gains")
    checks = [
        ClaimCheck("s41.qlc-33", "QLC density gain over TLC", 1 / 3,
                   result["qlc_over_tlc"], rel_tol=0.001),
        ClaimCheck("s41.plc-66", "PLC density gain over TLC", 2 / 3,
                   result["plc_over_tlc"], rel_tol=0.001),
        ClaimCheck("s42.sos-50", "SOS split capacity gain over TLC", 0.50,
                   result["sos_over_tlc"], rel_tol=0.001),
        ClaimCheck("s42.sos-vs-qlc", "SOS gain over QLC (paper rounds 12.5%->10%)",
                   0.10, result["sos_over_qlc"], Comparison.BETWEEN, paper_upper=0.15),
        ClaimCheck("s41.carbon-prop", "carbon reduction = 1 - 1/1.5 (proportional "
                   "to density)", 1 - 1 / 1.5, result["carbon_reduction"], rel_tol=0.03),
        ClaimCheck("e5.physical-agrees", "bit-exact device capacity matches the "
                   "analytic +50% (page quantization aside)", 0.50, physical_gain,
                   rel_tol=0.05),
    ]
    report("E5 (§4.1-§4.2): density and capacity gains of the SOS split", body, checks)
