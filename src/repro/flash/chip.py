"""Bit-exact flash chip: an addressable collection of erase blocks.

The chip exposes physical (block, page) addressing plus the management
hooks SOS needs: per-block operating-mode reconfiguration, retirement,
and a shared retention clock.  Logical addressing, allocation, and
garbage collection live above this layer in :mod:`repro.ftl`.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .block import Block, BlockArrays, PageArrays, ProgramError
from .cell import CellMode, CellTechnology, native_mode
from .geometry import Geometry

__all__ = ["FlashChip", "PhysicalAddress"]


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
        # per-block operating-mode ids (index into _mode_registry), kept
        # in sync by reconfigure_block; lets batched reads test mode
        # homogeneity without touching Block objects
        self._mode_registry: list[CellMode] = [mode]
        self._mode_ids = np.zeros(geometry.total_blocks, dtype=np.int64)
        self._now_years = 0.0

    # -- capacity ----------------------------------------------------------

    @property
    def now_years(self) -> float:
        """Current simulation time on the chip's retention clock."""
        return self._now_years

    def usable_capacity_bytes(self) -> int:
        """Bytes currently addressable (live blocks at their modes)."""
        return sum(
            b.page_capacity_bytes * b.usable_pages for b in self.blocks if not b.retired
        )

    def live_blocks(self) -> Iterator[tuple[int, Block]]:
        """Iterate (index, block) over non-retired blocks."""
        return ((i, b) for i, b in enumerate(self.blocks) if not b.retired)

    def retired_count(self) -> int:
        """Number of retired (worn-out) blocks."""
        return sum(1 for b in self.blocks if b.retired)

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
        return self.blocks[block_index].read(page_index, self._now_years)

    def read_analytic_many(self, flats: np.ndarray) -> np.ndarray:
        """Batched analytic read of flattened page indices at chip time.

        The cross-block hot path: per-page metadata gathers from the
        shared :class:`PageArrays`, one vectorized RBER evaluation with
        per-block PEC broadcast from :class:`BlockArrays`, and bulk
        scatter of read-disturb counters and block stats.  When touched
        blocks span more than one operating mode (rare: mixed-density
        devices), falls back to per-block calls -- same results, just
        slower.
        """
        flats = np.asarray(flats, dtype=np.int64)
        if flats.size == 0:
            return np.zeros(0, dtype=np.float64)
        pa = self.pages
        if not pa.programmed[flats].all():
            raise ProgramError("read_analytic_many on unprogrammed page(s)")
        ppb = self.geometry.pages_per_block
        block_idx = flats // ppb
        uniq, inverse, counts = np.unique(
            block_idx, return_inverse=True, return_counts=True
        )
        mode_ids = self._mode_ids[uniq]
        if mode_ids.size > 1 and (mode_ids != mode_ids[0]).any():
            out = np.empty(flats.size, dtype=np.float64)
            pages_in = flats % ppb
            for k, b in enumerate(uniq.tolist()):
                sel = inverse == k
                out[sel] = self.blocks[b].read_analytic_many(
                    pages_in[sel], self._now_years
                )
            return out
        model = self.blocks[int(uniq[0])].error_model
        ages = np.maximum(0.0, self._now_years - pa.written_at[flats])
        rbers = model.rber_many(
            self.arrays.pec[block_idx].astype(np.float64),
            ages,
            pa.reads[flats].astype(np.float64),
        )
        np.add.at(pa.reads, flats, 1)
        page_bits = self.geometry.page_size_bytes * 8
        err_sums = np.bincount(inverse, weights=rbers)
        blocks = self.blocks
        for k, b in enumerate(uniq.tolist()):
            stats = blocks[b].stats
            stats.reads += int(counts[k])
            stats.expected_bit_errors += float(err_sums[k]) * page_bits
        return rbers

    def read_clean(self, addr: PhysicalAddress) -> bytes:
        """Oracle read without error injection (testing/repair reference)."""
        block_index, page_index = addr
        return self.blocks[block_index].read_clean(page_index)

    # -- management --------------------------------------------------------

    def reconfigure_block(self, block_index: int, mode: CellMode) -> None:
        """Change one block's operating density (must be erased & empty)."""
        self.blocks[block_index].reconfigure(mode)
        try:
            mode_id = self._mode_registry.index(mode)
        except ValueError:
            mode_id = len(self._mode_registry)
            self._mode_registry.append(mode)
        self._mode_ids[block_index] = mode_id

    def retire_block(self, block_index: int) -> None:
        """Permanently retire a worn-out block."""
        self.blocks[block_index].retire()

    def advance_time(self, now_years: float) -> None:
        """Advance the chip retention clock (monotonic)."""
        if now_years < self._now_years:
            raise ValueError("time cannot move backwards")
        self._now_years = now_years
        for block in self.blocks:
            block.advance_time(now_years)

    def mean_pec(self) -> float:
        """Average PEC over live blocks (wear summary)."""
        live = self.arrays.pec[~self.arrays.retired]
        return float(np.mean(live)) if live.size else 0.0

    def max_pec(self) -> int:
        """Maximum PEC over live blocks."""
        live = self.arrays.pec[~self.arrays.retired]
        return int(live.max()) if live.size else 0
