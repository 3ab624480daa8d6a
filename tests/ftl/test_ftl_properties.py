"""Property-based FTL test: random op sequences vs a reference model.

Drives the full FTL (GC, parity, streams) with hypothesis-generated
write/trim/relocate sequences and checks it against a trivially correct
dict model.  SYS is strongly protected, so every readback must be
bit-exact at zero wear; invariants on mapping, stream accounting, and
valid-page counts must hold at every step.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellTechnology, pseudo_mode
from repro.flash.chip import FlashChip
from repro.flash.geometry import Geometry
from repro.ftl.ftl import Ftl, OutOfSpaceError
from repro.ftl.streams import StreamConfig

GEOM = Geometry(page_size_bytes=512, pages_per_block=8, blocks_per_plane=24,
                planes_per_die=2, dies=1)

op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "trim", "rewrite"]),
        st.integers(min_value=0, max_value=25),  # lpn space
        st.integers(min_value=0, max_value=2**32 - 1),  # payload seed
    ),
    max_size=120,
)


def make_ftl() -> Ftl:
    chip = FlashChip(GEOM, CellTechnology.PLC, seed=5)
    streams = [
        StreamConfig("sys", pseudo_mode(CellTechnology.PLC, 4),
                     POLICIES[ProtectionLevel.STRONG]),
    ]
    return Ftl(chip, streams, {"sys": list(range(GEOM.total_blocks))})


@given(ops=op_strategy)
@settings(max_examples=40, deadline=None)
def test_ftl_matches_reference_dict(ops):
    """Readback always equals the last written payload (strong ECC,
    zero wear => bit exactness is required, not probabilistic)."""
    ftl = make_ftl()
    reference: dict[int, bytes] = {}
    payload_bytes = ftl.logical_page_bytes("sys")
    for kind, lpn, seed in ops:
        rng = np.random.default_rng(seed)
        if kind in ("write", "rewrite"):
            payload = rng.bytes(payload_bytes)
            try:
                ftl.write(lpn, payload, "sys")
            except OutOfSpaceError:
                continue
            reference[lpn] = payload
        else:
            ftl.trim(lpn)
            reference.pop(lpn, None)
    # full readback audit
    for lpn, expected in reference.items():
        assert ftl.read(lpn).payload == expected
    # mapping invariants
    assert len(ftl.page_map.all_mapped_lpns()) == len(reference)
    assert ftl.stream_live_pages("sys") == len(reference)
    for lpn in range(26):
        if lpn not in reference:
            assert not ftl.page_map.is_mapped(lpn)


@given(ops=op_strategy)
@settings(max_examples=25, deadline=None)
def test_valid_counts_match_mapping_after_any_sequence(ops):
    """Per-block valid counts always equal the number of LPNs mapped
    into the block, GC and parity notwithstanding."""
    ftl = make_ftl()
    payload_bytes = ftl.logical_page_bytes("sys")
    live: set[int] = set()
    for kind, lpn, seed in ops:
        rng = np.random.default_rng(seed)
        if kind in ("write", "rewrite"):
            try:
                ftl.write(lpn, rng.bytes(payload_bytes), "sys")
                live.add(lpn)
            except OutOfSpaceError:
                continue
        else:
            ftl.trim(lpn)
            live.discard(lpn)
        per_block: dict[int, int] = {}
        for check_lpn in live:
            addr = ftl.page_map.lookup(check_lpn)
            assert addr is not None
            per_block[addr[0]] = per_block.get(addr[0], 0) + 1
        for block_index in range(GEOM.total_blocks):
            assert ftl.page_map.valid_pages(block_index) == per_block.get(
                block_index, 0
            )
