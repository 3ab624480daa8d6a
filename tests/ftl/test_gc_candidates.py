"""The GC candidate mask against its definition and the scalar selector.

``_Stream.held`` flags the stream's blocks that sit in the free pool or
the open slot, and ``Ftl._select_gc_victim`` picks among the others.  The
Ftl updates the flags wherever a block enters or leaves the pool or the
slot, so this suite drives random host writes, trims, wear-leveling
passes, forced retirements, wear jumps, clock ticks and health checks
through a small device on each fidelity.  The health policy's ladder
makes worn blocks resuscitate at lower densities, retire, and get
abandoned as the open block.  After every operation -- including one that
ran out of space -- the mask must equal "in ``stream.free`` or the open
block", and the victim must equal the scalar oracle's over the rest.

The same sequences also run on an analytic and a bit-exact device side
by side: both fidelities place pages and migrate victims through one
code path, so after every operation they must agree on its outcome and
on every counter, mapping and pool.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftl_oracles import select_victim
from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.cell import CellTechnology, native_mode, pseudo_mode
from repro.flash.chip import FlashChip
from repro.flash.error_model import ErrorModel
from repro.flash.geometry import Geometry
from repro.ftl.bad_blocks import BlockHealthPolicy
from repro.ftl.ftl import Ftl, OutOfSpaceError
from repro.ftl.gc import GcPolicy
from repro.ftl.streams import StreamConfig
from repro.ftl.wear_leveling import WearLevelerConfig

BLOCKS = 8
PAGES = 6
LPN_SPACE = 24
TLC = native_mode(CellTechnology.TLC)
LADDER = (pseudo_mode(CellTechnology.TLC, 2), pseudo_mode(CellTechnology.TLC, 1))
HEALTH = BlockHealthPolicy(max_rber=1e-3, retention_horizon_years=1.0,
                           resuscitation_modes=LADDER)
#: PEC just past each mode's limit under HEALTH: native TLC, then the
#: ladder; the last one retires a block at any density
WEAR_STEPS = [
    int(ErrorModel(mode).pec_for_rber(HEALTH.max_rber, HEALTH.retention_horizon_years)) + 10
    for mode in (TLC, *LADDER)
]

lpn_lists = st.lists(st.integers(0, LPN_SPACE - 1), min_size=1, max_size=2 * PAGES)
wear = st.tuples(st.just("wear"), st.tuples(st.integers(0, BLOCKS - 1),
                                            st.sampled_from(WEAR_STEPS)))
health = st.tuples(st.just("health"), st.none())
op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("write"), lpn_lists),
        st.tuples(st.just("trim"), lpn_lists),
        st.tuples(st.just("wl"), st.none()),
        st.tuples(st.just("retire"), st.integers(0, BLOCKS - 1)),
        st.tuples(st.just("tick"), st.integers(1, 30)),
        # twice as likely as the rest: a worn block must meet a health
        # check while still free or open to resuscitate or be abandoned
        wear, wear, health, health,
    ),
    max_size=40,
)


def _device(analytic: bool, policy: GcPolicy) -> Ftl:
    geometry = Geometry(page_size_bytes=256, pages_per_block=PAGES,
                        blocks_per_plane=BLOCKS, planes_per_die=1, dies=1)
    chip = FlashChip(geometry, CellTechnology.TLC, seed=0)
    stream = StreamConfig(
        "data", TLC, POLICIES[ProtectionLevel.NONE], gc_policy=policy,
        wear_leveling=WearLevelerConfig(pec_spread_threshold=2), health=HEALTH,
    )
    ftl = Ftl(chip, [stream], {"data": list(range(BLOCKS))}, analytic=analytic)
    assert ftl.stream("data").analytic is analytic
    # start full of live data, as a device in service is, so that
    # overwrites soon run GC
    ftl.write_many(range(LPN_SPACE), "data")
    return ftl


def _apply(ftl: Ftl, kind: str, arg) -> bool:
    """Run one operation; False when it ran out of space."""
    chip = ftl.chip
    try:
        if kind == "write":
            ftl.write_many(arg, "data")
        elif kind == "trim":
            ftl.trim_many(arg)
        elif kind == "wl":
            ftl.run_wear_leveling("data")
        elif kind == "retire":
            ftl.force_retire("data", arg)
        elif kind == "wear":
            block, pec = arg
            if not chip.blocks[block].retired:
                chip.blocks[block].pec = pec
        elif kind == "tick":
            chip.advance_time(chip.now_years + arg / 365.25)
        else:
            ftl.check_stream_health("data")
    except OutOfSpaceError:
        return False
    return True


def _assert_mask_and_victim(ftl: Ftl) -> None:
    stream = ftl.stream("data")
    blocks = stream.block_arr.tolist()
    expected = [b in stream.free or b == stream.open_block for b in blocks]
    assert stream.held.tolist() == expected
    rest = [(b, ftl.chip.blocks[b]) for b, held in zip(blocks, expected) if not held]
    assert ftl._select_gc_victim(stream) == select_victim(
        rest, ftl.page_map, stream.config.gc_policy, ftl.chip.now_years
    )


#: on the prefilled device: open a fresh block, wear it past TLC and wear
#: each free block past one more ladder step, check health (abandon the
#: open block, resuscitate two free blocks, retire one), force-retire a
#: block holding live data, trim, overwrite (GC) and level wear
SCRIPTED = [
    ("write", list(range(4))),
    ("wear", (4, WEAR_STEPS[0])),
    ("wear", (7, WEAR_STEPS[0])),
    ("wear", (6, WEAR_STEPS[1])),
    ("wear", (5, WEAR_STEPS[2])),
    ("health", None),
    ("retire", 1),
    ("trim", list(range(12))),
    ("write", list(range(12, LPN_SPACE))),
    ("wl", None),
]


@pytest.mark.parametrize("policy", list(GcPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "bit-exact"])
@given(ops=op_strategy)
@example(ops=SCRIPTED)
@settings(max_examples=60, deadline=None)
def test_candidate_mask_tracks_free_pool_and_open_block(analytic, policy, ops):
    ftl = _device(analytic, policy)
    _assert_mask_and_victim(ftl)
    for kind, arg in ops:
        _apply(ftl, kind, arg)
        _assert_mask_and_victim(ftl)


def test_scripted_sequence_reaches_every_transition():
    """The pinned example really exercises what the mask must follow."""
    ftl = _device(analytic=True, policy=GcPolicy.GREEDY)
    abandoned = False
    for kind, arg in SCRIPTED:
        open_before = ftl.stream("data").open_block
        _apply(ftl, kind, arg)
        if kind == "health" and open_before is not None:
            abandoned |= ftl.stream("data").open_block is None
        _assert_mask_and_victim(ftl)
    assert abandoned
    assert ftl.stats.blocks_resuscitated >= 1
    assert ftl.stats.blocks_retired >= 2
    assert ftl.stats.gc_erases > 0
    assert ftl.stats.wl_migrations > 0


def _observables(ftl: Ftl) -> dict:
    chip = ftl.chip
    stream = ftl.stream("data")
    return {
        "stats": ftl.stats,
        "page_reads": chip.pages.reads.tolist(),
        "pec": chip.arrays.pec.tolist(),
        "retired": chip.arrays.retired.tolist(),
        "mapping": [ftl.page_map.lookup(lpn) for lpn in range(LPN_SPACE)],
        "free": list(stream.free),
        "open_block": stream.open_block,
    }


@pytest.mark.parametrize("policy", list(GcPolicy), ids=lambda p: p.value)
@given(ops=op_strategy)
@example(ops=SCRIPTED)
# GC runs out of space part-way through a migration
@example(ops=SCRIPTED[:7] + [("write", list(range(LPN_SPACE)))])
@settings(max_examples=60, deadline=None)
def test_fidelities_run_in_lockstep(policy, ops):
    analytic = _device(analytic=True, policy=policy)
    bit_exact = _device(analytic=False, policy=policy)
    assert _observables(analytic) == _observables(bit_exact)
    for kind, arg in ops:
        assert _apply(analytic, kind, arg) == _apply(bit_exact, kind, arg)
        assert _observables(analytic) == _observables(bit_exact)
