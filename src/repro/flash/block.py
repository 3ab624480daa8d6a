"""Bit-exact erase-block simulation.

A :class:`Block` stores real page payloads and injects bit errors on read
according to the analytic :class:`~repro.flash.error_model.ErrorModel`, so
that approximate-storage experiments (E6, A1) observe genuine corrupted
bytes rather than summary statistics.

Blocks follow NAND programming constraints from §2.1:

* pages within a block must be programmed sequentially (no rewrite without
  erase);
* erase wipes the whole block and increments the block's PEC counter;
* a block operated in a pseudo mode exposes proportionally fewer bytes.

A block whose PEC exceeds its mode's rated endurance does not refuse
writes -- real flash does not either -- but its RBER keeps climbing, which
is exactly the degradation SOS exploits and guards against.

Two representations coexist per page:

* **bit-exact** -- :meth:`Block.program`/:meth:`Block.read` materialize and
  corrupt real page bytes;
* **analytic** -- :meth:`Block.program_analytic_many` and the chip's
  :meth:`~repro.flash.chip.FlashChip.read_analytic_many` keep every piece
  of wear/retention/read-disturb book-keeping (and the same
  sequential-programming rules) but never allocate payload bytes,
  consume the corruption RNG or evaluate an RBER: nothing on the
  analytic path reads one.  Valid only for content-independent
  protection (no codec, no parity) -- the FTL enforces that.  The
  analytic operations are batch-only: one page is a batch of one.

Per-page metadata (written-at time, reads since write, PEC at write) lives
in the chip's flat :class:`PageArrays` either way -- :meth:`Block.program`
books its page as ``program_analytic_many(1)`` -- so a page's RBER stays
computable on demand from the state both paths keep
(:meth:`Block.rber_now`).

Chip-wide per-block state (PEC, retirement, usable pages, last write time)
and the retention clock live in a shared :class:`BlockArrays` owned by the
chip; ``Block.pec`` and ``Block.retired`` are array-backed properties, so
both direct attribute writes (tests do ``block.pec = 100_000``) and the
vectorized GC and wear-leveling selectors observe the same numbers with
no mirroring step, and advancing the chip's clock is one assignment.
The two array sets are the only record of per-block and per-page state;
besides its views into them a :class:`Block` keeps only its mode (with
the error model derived from it), its page payloads and its write
pointer.
"""

from __future__ import annotations

import numpy as np

from .cell import CellMode
from .error_model import ErrorModel
from .geometry import Geometry

__all__ = ["Block", "BlockArrays", "PageArrays", "PageState", "ProgramError"]


class ProgramError(Exception):
    """Raised on violations of NAND programming rules."""


class BlockArrays:
    """Shared per-block state columns for one chip's blocks.

    One row per block; every field the GC victim selector and wear
    leveler score on, kept incrementally up to date by the owning
    :class:`Block`'s operations (program/erase/retire/reconfigure) so
    victim selection is a masked argmin over these arrays instead of
    per-candidate Python attribute walks.
    """

    __slots__ = ("pec", "rated_pec", "usable_pages", "retired", "last_write_years",
                 "now_years")

    def __init__(self, n_blocks: int) -> None:
        self.pec = np.zeros(n_blocks, dtype=np.int64)
        self.rated_pec = np.ones(n_blocks, dtype=np.int64)
        self.usable_pages = np.zeros(n_blocks, dtype=np.int64)
        self.retired = np.zeros(n_blocks, dtype=bool)
        #: newest programmed page's write time per block; 0.0 when empty.
        #: Maintained on program/erase: pages program sequentially under a
        #: monotonic clock, so the last program is the newest.
        self.last_write_years = np.zeros(n_blocks, dtype=np.float64)
        #: the retention clock every block in these rows reads (simulation
        #: years); moved forward only by ``advance_time``
        self.now_years = 0.0


class PageArrays:
    """Chip-wide per-page metadata columns, one row per *native* page.

    Blocks operate on numpy views of their window, so single-block code
    is unchanged while chip-level batch operations (analytic reads that
    scatter across many blocks) gather and scatter on the flat arrays
    directly -- no per-block Python dispatch on the hot path.  Pseudo
    modes simply never touch the tail rows of their window.
    """

    __slots__ = ("written_at", "reads", "pec_at_write", "programmed")

    def __init__(self, n_pages: int) -> None:
        self.written_at = np.zeros(n_pages, dtype=np.float64)
        self.reads = np.zeros(n_pages, dtype=np.int64)
        self.pec_at_write = np.zeros(n_pages, dtype=np.int64)
        self.programmed = np.zeros(n_pages, dtype=bool)


class PageState:
    """Live book-keeping view of a single physical page.

    ``data`` reads and writes the stored payload in place (fault-injection
    tests corrupt pages by assigning it); the remaining fields mirror the
    block's per-page metadata arrays.
    """

    __slots__ = ("_block", "_page_index")

    def __init__(self, block: Block, page_index: int) -> None:
        self._block = block
        self._page_index = page_index

    @property
    def data(self) -> np.ndarray | None:
        return self._block._data[self._page_index]

    @data.setter
    def data(self, value: np.ndarray | None) -> None:
        self._block._data[self._page_index] = value

    @property
    def written_at_years(self) -> float:
        return float(self._block._written_at[self._page_index])

    @property
    def reads_since_write(self) -> int:
        return int(self._block._reads[self._page_index])

    @property
    def pec_at_write(self) -> int:
        """PEC of the block at the moment this page was programmed."""
        return int(self._block._pec_at_write[self._page_index])


class Block:
    """One erase block with real page payloads and stochastic bit errors.

    Parameters
    ----------
    geometry:
        Chip geometry (page size / pages per block at native density).
    mode:
        Operating :class:`CellMode`.  Page payload capacity scales with
        ``mode.capacity_fraction()``.
    rng:
        Source of randomness for error injection.  Deterministic when
        seeded by the caller.
    arrays:
        Shared :class:`BlockArrays` this block's row and clock live in (the
        chip passes its own); standalone blocks allocate a private 1-row
        set, and with it a private clock.
    index:
        This block's row in ``arrays``.
    """

    def __init__(
        self,
        geometry: Geometry,
        mode: CellMode,
        rng: np.random.Generator,
        arrays: BlockArrays | None = None,
        index: int = 0,
        pages: PageArrays | None = None,
    ) -> None:
        self.geometry = geometry
        self._rng = rng
        self._arrays = arrays if arrays is not None else BlockArrays(1)
        self._index = index if arrays is not None else 0
        self._mode = mode
        self._error_model = ErrorModel(mode)
        n_pages = geometry.pages_per_block
        self._data: list[np.ndarray | None] = [None] * n_pages
        # per-page metadata: views into the chip's shared PageArrays (or
        # a private single-block set), so block-local updates and chip
        # batch operations observe one store
        page_arrays = pages if pages is not None else PageArrays(n_pages)
        lo = self._index * n_pages if pages is not None else 0
        self._written_at = page_arrays.written_at[lo: lo + n_pages]
        self._reads = page_arrays.reads[lo: lo + n_pages]
        self._pec_at_write = page_arrays.pec_at_write[lo: lo + n_pages]
        self._programmed = page_arrays.programmed[lo: lo + n_pages]
        self._next_page = 0
        i = self._index
        self._arrays.pec[i] = 0
        self._arrays.retired[i] = False
        self._arrays.rated_pec[i] = self._error_model.rated_pec
        self._arrays.usable_pages[i] = self._usable_pages_for(mode)
        self._arrays.last_write_years[i] = 0.0

    def _usable_pages_for(self, mode: CellMode) -> int:
        return int(self.geometry.pages_per_block * mode.capacity_fraction())

    # -- shared-array-backed state ----------------------------------------

    @property
    def pec(self) -> int:
        """Accrued program/erase cycles."""
        return int(self._arrays.pec[self._index])

    @pec.setter
    def pec(self, value: int) -> None:
        self._arrays.pec[self._index] = value

    @property
    def retired(self) -> bool:
        """Whether the block has been taken out of service."""
        return bool(self._arrays.retired[self._index])

    @retired.setter
    def retired(self, value: bool) -> None:
        self._arrays.retired[self._index] = value

    # -- mode management -------------------------------------------------

    @property
    def mode(self) -> CellMode:
        """Current operating mode of the block."""
        return self._mode

    def reconfigure(self, mode: CellMode) -> None:
        """Switch the block's operating density (§4.3 resuscitation).

        The block must be erased first; density changes mid-data are not
        physically meaningful.  Accrued PEC carries over -- wear lives in
        the silicon, not the mode.
        """
        if self._programmed.any():
            raise ProgramError("cannot reconfigure a block holding data; erase first")
        if mode.technology is not self._mode.technology:
            raise ProgramError("cannot change manufactured technology of a block")
        self._mode = mode
        self._error_model = ErrorModel(mode)
        self._arrays.rated_pec[self._index] = self._error_model.rated_pec
        self._arrays.usable_pages[self._index] = self._usable_pages_for(mode)

    @property
    def page_capacity_bytes(self) -> int:
        """Bytes per page (independent of operating mode)."""
        return self.geometry.page_size_bytes

    @property
    def usable_pages(self) -> int:
        """Pages exposed at the current operating density.

        A wordline stores one page per operating bit (LSB/CSB/MSB/...), so
        a pseudo mode exposes ``operating_bits / native_bits`` of the
        native page count -- same page size, fewer pages.
        """
        return int(self._arrays.usable_pages[self._index])

    @property
    def error_model(self) -> ErrorModel:
        """Analytic RBER model for the current operating mode."""
        return self._error_model

    @property
    def rated_pec(self) -> int:
        """Rated endurance of the current operating mode."""
        return self._error_model.rated_pec

    @property
    def wear_ratio(self) -> float:
        """PEC consumed as a fraction of the current mode's rating."""
        return self.pec / self._error_model.rated_pec

    # -- NAND operations -------------------------------------------------

    def erase(self) -> None:
        """Erase the block, wiping all pages and incrementing PEC."""
        if self.retired:
            raise ProgramError("block is retired")
        self._arrays.pec[self._index] += 1
        self._data = [None] * self.geometry.pages_per_block
        self._written_at.fill(0.0)
        self._reads.fill(0)
        self._pec_at_write.fill(0)
        self._programmed.fill(False)
        self._next_page = 0
        self._arrays.last_write_years[self._index] = 0.0

    def program(self, page_index: int, data: bytes) -> None:
        """Program one page.  Pages must be written in order, once each."""
        if page_index != self._next_page:
            raise ProgramError(
                f"out-of-order program: expected page {self._next_page}, got {page_index}"
            )
        if len(data) > self.page_capacity_bytes:
            raise ProgramError(
                f"payload {len(data)}B exceeds page capacity "
                f"{self.page_capacity_bytes}B in mode {self._mode.name}"
            )
        self.program_analytic_many(1)
        self._data[page_index] = np.frombuffer(
            data.ljust(self.page_capacity_bytes, b"\x00"), dtype=np.uint8
        ).copy()

    def program_analytic_many(self, count: int) -> int:
        """Program the next ``count`` pages analytically in one step.

        Same ordering/capacity rules and wear book-keeping as ``count``
        sequential :meth:`program` calls (pages are always programmed in
        order, so no page indices are needed), but no payload bytes: the
        pages are marked programmed and per-page metadata updates
        collapse to array slice assignments.  Reads of these pages must
        go through the chip's ``read_analytic_many``.  Returns the index
        of the first page of the run.
        """
        if count <= 0:
            return self._next_page
        if self.retired:
            raise ProgramError("block is retired")
        lo = self._next_page
        if lo + count > self.usable_pages:
            raise ProgramError(
                f"programming {count} pages from page {lo} exceeds usable range "
                f"({self.usable_pages} pages in mode {self._mode.name})"
            )
        now = self._arrays.now_years
        self._written_at[lo: lo + count] = now
        self._reads[lo: lo + count] = 0
        self._pec_at_write[lo: lo + count] = self.pec
        self._programmed[lo: lo + count] = True
        self._next_page += count
        self._arrays.last_write_years[self._index] = now
        return lo

    def is_programmed(self, page_index: int) -> bool:
        """Whether the page has been programmed since the last erase."""
        return bool(self._programmed[page_index])

    @property
    def free_pages(self) -> int:
        """Pages still programmable before the next erase."""
        return self.usable_pages - self._next_page

    def read(self, page_index: int) -> bytes:
        """Read a page, injecting bit errors per the block's error model,
        at the time on the clock the block reads (:meth:`advance_time`)."""
        data = self._data[page_index]
        if data is None:
            raise ProgramError(f"page {page_index} is not programmed")
        age = max(0.0, self._arrays.now_years - float(self._written_at[page_index]))
        rber = self._error_model.rber(
            pec=self.pec,
            years_since_write=age,
            reads_since_write=int(self._reads[page_index]),
        )
        self._reads[page_index] += 1
        return self._corrupt(data, rber)

    def read_clean(self, page_index: int) -> bytes:
        """Read a page without error injection (oracle view for tests)."""
        data = self._data[page_index]
        if data is None:
            raise ProgramError(f"page {page_index} is not programmed")
        return data.tobytes()

    def rber_now(self, page_index: int, now_years: float | None = None) -> float:
        """Predicted RBER for a page at the current stress point."""
        if not self._programmed[page_index]:
            raise ProgramError(f"page {page_index} is not programmed")
        now = self._arrays.now_years if now_years is None else now_years
        age = max(0.0, now - float(self._written_at[page_index]))
        return self._error_model.rber(self.pec, age, int(self._reads[page_index]))

    def retire(self) -> None:
        """Mark the block unusable (worn out); §4.3 capacity variance."""
        self.retired = True

    def page_info(self, page_index: int) -> PageState:
        """Live book-keeping view of one page (written time, read count)."""
        return PageState(self, page_index)

    # -- time ------------------------------------------------------------

    def advance_time(self, now_years: float) -> None:
        """Move the clock this block reads forward (retention errors
        accumulate).  A chip's blocks share the chip's one clock."""
        if now_years < self._arrays.now_years:
            raise ValueError("time cannot move backwards")
        self._arrays.now_years = now_years

    # -- internals ---------------------------------------------------------

    def _corrupt(self, data: np.ndarray, rber: float) -> bytes:
        """Flip each stored bit independently with probability ``rber``."""
        nbits = data.size * 8
        nerrors = int(self._rng.binomial(nbits, rber))
        if nerrors == 0:
            return data.tobytes()
        noisy = data.copy()
        positions = self._rng.integers(0, nbits, size=nerrors)
        for pos in np.unique(positions):
            noisy[pos >> 3] ^= np.uint8(1 << (pos & 7))
        return noisy.tobytes()
