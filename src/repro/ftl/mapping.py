"""Logical-to-physical page mapping with per-block validity tracking.

A page-mapped FTL keeps, for every logical page number (LPN), the physical
(block, page) currently holding its data, plus the reverse view garbage
collection needs: which LPN each physical page holds and whether that copy
is still live.

:class:`PageMap` is the one production map: flat ``int64`` arrays for
both directions (L2P indexed by LPN, P2L indexed by flattened physical
page) plus a per-block valid-page count array.  Every update is O(1)
array arithmetic, and the valid-count array doubles as the input the GC
victim selector (:func:`repro.ftl.gc.select_victim_arrays`) reads
directly -- no per-candidate Python calls on the GC hot path.

The original ``dict[int, PhysicalAddress]`` + per-block usage-list map
is a test oracle in ``tests/ftl/ftl_oracles.py``.  The hypothesis
property suite drives random write/trim/migrate/erase sequences through
both and asserts every query agrees; the arrays are allowed to be fast
*because* the dict stays authoritative about what the operations mean.

``-1`` is the array sentinel for "unmapped".  LPNs must be non-negative
(the L2P array grows geometrically to cover the largest LPN seen, so
sparse-but-bounded host address spaces are fine).
"""

from __future__ import annotations

import numpy as np

from repro.flash.chip import PhysicalAddress

__all__ = ["PageMap"]


class PageMap:
    """Bidirectional LPN <-> physical-page map over flat numpy arrays.

    Parameters
    ----------
    total_blocks:
        Number of erase blocks managed.
    pages_per_block:
        Native pages per block (reverse arrays are sized for native;
        pseudo modes simply never touch the tail entries).

    Invariants (pinned against the dict oracle by property tests):

    * ``_l2p[lpn]`` is the flattened physical index of the LPN's live
      copy, or -1;
    * ``_p2l[flat]`` is the LPN whose *live* copy sits at that physical
      page, or -1 -- stale copies are cleared eagerly on overwrite and
      trim, so :meth:`live_lpns` is a plain non-negative scan in page
      order;
    * ``_valid[block]`` counts live pages per block, maintained
      incrementally.
    """

    def __init__(self, total_blocks: int, pages_per_block: int) -> None:
        if total_blocks <= 0 or pages_per_block <= 0:
            raise ValueError("total_blocks and pages_per_block must be positive")
        self.pages_per_block = pages_per_block
        self.total_blocks = total_blocks
        n_pages = total_blocks * pages_per_block
        self._l2p = np.full(n_pages, -1, dtype=np.int64)
        self._p2l = np.full(n_pages, -1, dtype=np.int64)
        self._valid = np.zeros(total_blocks, dtype=np.int64)

    # -- queries -------------------------------------------------------------

    def lookup(self, lpn: int) -> PhysicalAddress | None:
        """Physical address of an LPN, or None if unmapped."""
        if lpn < 0 or lpn >= self._l2p.size:
            return None
        flat = self._l2p[lpn]
        if flat < 0:
            return None
        return (int(flat) // self.pages_per_block, int(flat) % self.pages_per_block)

    def is_mapped(self, lpn: int) -> bool:
        """Whether the LPN currently has a live physical copy."""
        return 0 <= lpn < self._l2p.size and self._l2p[lpn] >= 0

    def valid_pages(self, block_index: int) -> int:
        """Live pages in a block (GC cost input)."""
        return int(self._valid[block_index])

    def valid_counts(self, block_indices: np.ndarray) -> np.ndarray:
        """Live-page counts for many blocks at once (GC selector input)."""
        return self._valid[block_indices]

    def live_lpns(self, block_index: int) -> list[tuple[int, int]]:
        """(page_index, lpn) pairs for live pages of a block."""
        pages, lpns = self.live_lpns_arrays(block_index)
        return list(zip(pages.tolist(), lpns.tolist()))

    def live_lpns_arrays(self, block_index: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`live_lpns` as (pages, lpns) arrays (batch-migration input)."""
        lo = block_index * self.pages_per_block
        window = self._p2l[lo: lo + self.pages_per_block]
        pages = np.nonzero(window >= 0)[0]
        return pages, window[pages]

    def is_mapped_many(self, lpns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_mapped` over an LPN array."""
        return self.locate_many(lpns) >= 0

    def locate_many(self, lpns: np.ndarray) -> np.ndarray:
        """Flattened physical index of each LPN's live copy, in input
        order; -1 where the LPN is unmapped, negative or beyond the map."""
        lpns = np.asarray(lpns, dtype=np.int64)
        out = np.full(lpns.size, -1, dtype=np.int64)
        in_range = (lpns >= 0) & (lpns < self._l2p.size)
        out[in_range] = self._l2p[lpns[in_range]]
        return out

    def lookup_flat_many(self, lpns: np.ndarray) -> np.ndarray:
        """Flattened physical indices for LPNs that must all be mapped."""
        flats = self._l2p[np.asarray(lpns, dtype=np.int64)]
        if (flats < 0).any():
            raise KeyError("lookup_flat_many on unmapped LPN(s)")
        return flats

    def all_mapped_lpns(self) -> list[int]:
        """Sorted list of all live LPNs."""
        return np.nonzero(self._l2p >= 0)[0].tolist()

    # -- updates ---------------------------------------------------------------

    def invalidate(self, lpn: int) -> PhysicalAddress | None:
        """Drop the mapping for ``lpn`` (trim); returns the freed address."""
        if lpn < 0 or lpn >= self._l2p.size:
            return None
        flat = self._l2p[lpn]
        if flat < 0:
            return None
        self._l2p[lpn] = -1
        self._p2l[flat] = -1
        block_index = int(flat) // self.pages_per_block
        self._valid[block_index] -= 1
        return (block_index, int(flat) % self.pages_per_block)

    def record_writes(self, lpns: np.ndarray, block_index: int, start_page: int) -> None:
        """Point ``lpns`` at freshly programmed consecutive pages.

        ``lpns[i]`` lands on ``(block_index, start_page + i)``; any older
        copy of it is invalidated.  The map's one write update, for a
        single page as for an open-block run.  Duplicate LPNs within the
        batch behave like sequential overwrites: only the last
        occurrence's page ends up live (earlier pages are
        programmed-but-dead, as writing them one at a time leaves them).
        The duplicate resolution runs only when one sort shows the batch
        repeats an LPN; a single LPN (every bit-exact host write) needs
        no sort at all.
        """
        lpns = np.asarray(lpns, dtype=np.int64)
        n = lpns.size
        if n == 0:
            return
        if n == 1:
            least = most = int(lpns[0])
            repeats = False
        else:
            ordered = np.sort(lpns)
            least, most = int(ordered[0]), int(ordered[-1])
            repeats = bool((ordered[1:] == ordered[:-1]).any())
        if least < 0:
            raise ValueError("LPNs must be non-negative")
        if most >= self._l2p.size:
            self._grow(most)
        lo = block_index * self.pages_per_block + start_page
        if repeats:
            # last occurrence of each unique LPN wins (scalar overwrite order)
            uniq, rev_first = np.unique(lpns[::-1], return_index=True)
            live_flats = lo + n - 1 - rev_first
        else:
            uniq, live_flats = lpns, np.arange(lo, lo + n)
        old = self._l2p[uniq]
        old_flats = old[old >= 0]
        # distinct LPNs map to distinct flats, but several may share a
        # block: per-block decrements must accumulate
        self._valid -= np.bincount(
            old_flats // self.pages_per_block, minlength=self.total_blocks
        )
        self._p2l[old_flats] = -1
        self._p2l[live_flats] = uniq
        self._l2p[uniq] = live_flats
        self._valid[block_index] += uniq.size

    def migrate(
        self, lpns: np.ndarray, victim: int, block_index: int, start_page: int
    ) -> None:
        """Re-point live LPNs of block ``victim`` onto consecutive pages.

        GC migration's map update: ``lpns`` are distinct and every one is
        live in ``victim``, so the result equals :meth:`record_writes`
        of the same run while needing no range check, no duplicate
        resolution and a single valid-count decrement.
        """
        n = lpns.size
        lo = block_index * self.pages_per_block + start_page
        self._p2l[self._l2p[lpns]] = -1
        self._p2l[lo: lo + n] = lpns
        self._l2p[lpns] = np.arange(lo, lo + n)
        self._valid[victim] -= n
        self._valid[block_index] += n

    def invalidate_many(self, lpns: np.ndarray) -> np.ndarray:
        """Batched :meth:`invalidate`; returns the LPNs actually freed.

        Out-of-range, unmapped, and duplicate LPNs are no-ops, exactly
        as in the scalar sequence.
        """
        lpns = np.asarray(lpns, dtype=np.int64)
        lpns = lpns[(lpns >= 0) & (lpns < self._l2p.size)]
        uniq = np.unique(lpns)
        flats = self._l2p[uniq]
        mapped = flats >= 0
        uniq, flats = uniq[mapped], flats[mapped]
        self._l2p[uniq] = -1
        self._p2l[flats] = -1
        np.subtract.at(self._valid, flats // self.pages_per_block, 1)
        return uniq

    def on_erase(self, block_index: int) -> None:
        """Reset reverse-map state after a block erase.

        All live data must have been migrated first; erasing a block with
        valid pages is a bug in the caller.
        """
        if self._valid[block_index] != 0:
            raise RuntimeError(
                f"erasing block {block_index} with "
                f"{int(self._valid[block_index])} valid pages"
            )
        lo = block_index * self.pages_per_block
        self._p2l[lo: lo + self.pages_per_block] = -1

    # -- internals -------------------------------------------------------------

    def _grow(self, lpn: int) -> None:
        """Extend the L2P array to cover ``lpn`` (geometric growth)."""
        new_size = max(lpn + 1, self._l2p.size * 2)
        grown = np.full(new_size, -1, dtype=np.int64)
        grown[: self._l2p.size] = self._l2p
        self._l2p = grown

