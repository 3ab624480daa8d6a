"""The page-map block layer against the sticky-placement layer it replaced.

Two identical SYS/SPARE devices run the same random op sequence, one
through :class:`~repro.host.block_layer.BlockLayer` and one through the
oracle in ``host_oracles.py``.  Each partition is eight 8-page blocks,
so a long sequence garbage-collects, but the LPN space fits beside the
GC reserve, so no op raises ``OutOfSpaceError``: on such sequences the
two must agree on every LPN's placement and on every FTL counter after
every op.
"""

from __future__ import annotations

from host_oracles import StickyBlockLayer
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellTechnology, native_mode, pseudo_mode
from repro.flash.chip import FlashChip
from repro.flash.geometry import Geometry
from repro.ftl.ftl import Ftl
from repro.ftl.streams import StreamConfig
from repro.host.block_layer import BlockLayer
from repro.host.hints import Placement

GEOMETRY = Geometry(
    page_size_bytes=512, pages_per_block=8, blocks_per_plane=8, planes_per_die=2, dies=1
)

#: LPNs the ops draw from: a partition's 64 pages less its GC reserve
#: and open block still hold all of them
LPNS = 24

#: write and place pick an unmapped LPN, relocate and overwrite a mapped
#: one; trim takes any LPN
OPS = ("write", "place", "relocate", "overwrite", "trim")


def make_ftl() -> Ftl:
    chip = FlashChip(GEOMETRY, CellTechnology.PLC, seed=3)
    total = GEOMETRY.total_blocks
    streams = [
        StreamConfig("sys", pseudo_mode(CellTechnology.PLC, 4), POLICIES[ProtectionLevel.STRONG]),
        StreamConfig("spare", native_mode(CellTechnology.PLC), POLICIES[ProtectionLevel.NONE]),
    ]
    return Ftl(
        chip, streams,
        {"sys": list(range(total // 2)), "spare": list(range(total // 2, total))},
    )


def assert_agree(layer: BlockLayer, oracle: StickyBlockLayer) -> None:
    for lpn in range(LPNS):
        assert layer.ftl.stream_of(lpn) == oracle.ftl.stream_of(lpn), lpn
        assert layer.placement_of(lpn) is oracle.placement_of(lpn), lpn
    assert layer.ftl.stats == oracle.ftl.stats


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(OPS),
            st.integers(min_value=0, max_value=LPNS - 1),
            st.sampled_from(list(Placement)),
        ),
        max_size=150,
    )
)
@settings(max_examples=100, deadline=None)
def test_page_map_layer_matches_sticky_oracle(ops):
    layer = BlockLayer(make_ftl())
    oracle = StickyBlockLayer(make_ftl())
    for step, (op, index, placement) in enumerate(ops):
        mapped = [lpn for lpn in range(LPNS) if layer.ftl.stream_of(lpn) is not None]
        unmapped = [lpn for lpn in range(LPNS) if layer.ftl.stream_of(lpn) is None]
        payload = bytes([step % 256]) * 16
        if op in ("write", "place"):
            if not unmapped:
                continue
            lpn = unmapped[index % len(unmapped)]
            if op == "write":
                layer.write_page(lpn, payload)
            else:
                layer.write_page(lpn, payload, placement=placement)
                oracle.relocate(lpn, placement)
            oracle.write_page(lpn, payload)
        elif op in ("relocate", "overwrite"):
            if not mapped:
                continue
            lpn = mapped[index % len(mapped)]
            if op == "relocate":
                layer.relocate(lpn, placement)
                oracle.relocate(lpn, placement)
            else:
                layer.write_page(lpn, payload)
                oracle.write_page(lpn, payload)
        else:
            layer.trim_page(index)
            oracle.trim_page(index)
        assert_agree(layer, oracle)
