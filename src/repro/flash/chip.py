"""Bit-exact flash chip: an addressable collection of erase blocks.

The chip exposes physical (block, page) addressing plus the management
hooks SOS needs: per-block operating-mode reconfiguration, retirement,
and one retention clock, held in the shared :class:`BlockArrays` that
every block reads.  Logical addressing, allocation, and
garbage collection live above this layer in :mod:`repro.ftl`.

Pages are read either bit-exactly (:meth:`FlashChip.read`: real bytes,
injected errors) or analytically (:meth:`FlashChip.read_analytic_many`:
the pages' read-disturb counters only, for streams whose protection
never inspects content).  Per-block and per-page state lives only in
the chip's :class:`BlockArrays` and :class:`PageArrays`; chip-wide
summaries (capacity, retirement, wear) reduce over those arrays.
"""

from __future__ import annotations


import numpy as np

from .block import Block, BlockArrays, PageArrays, ProgramError
from .cell import CellMode, CellTechnology, native_mode
from .geometry import Geometry

__all__ = ["DAYS_PER_YEAR", "FlashChip", "PhysicalAddress"]

#: Days in one year of the retention clock: every simulated day moves a
#: clock in years by ``1 / DAYS_PER_YEAR``, at either fidelity.
DAYS_PER_YEAR = 365


PhysicalAddress = tuple[int, int]
"""(block_index, page_index) pair addressing one physical page."""


class FlashChip:
    """A simulated NAND chip of homogeneous manufactured technology.

    Parameters
    ----------
    geometry:
        Physical shape of the chip.
    technology:
        Manufactured cell technology of every block.
    mode:
        Initial operating mode for all blocks; defaults to native density.
    seed:
        Seed for the chip-wide error-injection RNG.
    """

    def __init__(
        self,
        geometry: Geometry,
        technology: CellTechnology,
        mode: CellMode | None = None,
        seed: int = 0,
    ) -> None:
        if mode is None:
            mode = native_mode(technology)
        if mode.technology is not technology:
            raise ValueError("mode technology must match chip technology")
        self.geometry = geometry
        self.technology = technology
        self._rng = np.random.default_rng(seed)
        #: shared per-block state columns (PEC, retirement, wear inputs);
        #: the vectorized GC victim selector reads these directly
        self.arrays = BlockArrays(geometry.total_blocks)
        #: shared per-page metadata columns; blocks hold views into these
        self.pages = PageArrays(geometry.total_pages)
        self.blocks: list[Block] = [
            Block(
                geometry, mode, self._rng,
                arrays=self.arrays, index=i, pages=self.pages,
            )
            for i in range(geometry.total_blocks)
        ]

    # -- capacity ----------------------------------------------------------

    @property
    def now_years(self) -> float:
        """Current simulation time on the chip's retention clock."""
        return self.arrays.now_years

    def usable_capacity_bytes(self) -> int:
        """Bytes currently addressable (live blocks at their modes)."""
        live_pages = self.arrays.usable_pages[~self.arrays.retired].sum()
        return self.geometry.page_size_bytes * int(live_pages)

    def retired_count(self) -> int:
        """Number of retired (worn-out) blocks."""
        return int(np.count_nonzero(self.arrays.retired))

    # -- NAND operations ---------------------------------------------------

    def erase(self, block_index: int) -> None:
        """Erase one block."""
        self.blocks[block_index].erase()

    def program(self, addr: PhysicalAddress, data: bytes) -> None:
        """Program one physical page."""
        block_index, page_index = addr
        self.blocks[block_index].program(page_index, data)

    def read(self, addr: PhysicalAddress) -> bytes:
        """Read one physical page with error injection at chip time."""
        block_index, page_index = addr
        return self.blocks[block_index].read(page_index)

    def read_analytic_many(self, flats: np.ndarray) -> None:
        """Batched analytic read of flattened page indices.

        The one analytic read, for host reads and GC migration alike: one
        scatter of read-disturb counters on the shared
        :class:`PageArrays` (a page listed twice is read twice).  No
        bytes, no RNG and no RBER: a page's RBER stays computable from
        the counters on demand (:meth:`Block.rber_now`).
        """
        flats = np.asarray(flats, dtype=np.int64)
        if not self.pages.programmed[flats].all():
            raise ProgramError("read_analytic_many on unprogrammed page(s)")
        np.add.at(self.pages.reads, flats, 1)

    def read_clean(self, addr: PhysicalAddress) -> bytes:
        """Oracle read without error injection (testing/repair reference)."""
        block_index, page_index = addr
        return self.blocks[block_index].read_clean(page_index)

    # -- management --------------------------------------------------------

    def reconfigure_block(self, block_index: int, mode: CellMode) -> None:
        """Change one block's operating density (must be erased & empty)."""
        self.blocks[block_index].reconfigure(mode)

    def retire_block(self, block_index: int) -> None:
        """Permanently retire a worn-out block."""
        self.blocks[block_index].retire()

    def advance_time(self, now_years: float) -> None:
        """Advance the chip retention clock (monotonic); every block reads it."""
        if now_years < self.arrays.now_years:
            raise ValueError("time cannot move backwards")
        self.arrays.now_years = now_years

    def mean_pec(self) -> float:
        """Average PEC over live blocks (wear summary)."""
        live = self.arrays.pec[~self.arrays.retired]
        return float(np.mean(live)) if live.size else 0.0

    def max_pec(self) -> int:
        """Maximum PEC over live blocks."""
        live = self.arrays.pec[~self.arrays.retired]
        return int(live.max()) if live.size else 0
