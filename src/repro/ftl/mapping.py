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
    * ``_valid[block]`` counts live pages per block and ``_mapped`` the
      device-wide total, both maintained incrementally.
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
        self._mapped = 0

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
        lpns = np.asarray(lpns, dtype=np.int64)
        out = np.zeros(lpns.size, dtype=bool)
        in_range = (lpns >= 0) & (lpns < self._l2p.size)
        out[in_range] = self._l2p[lpns[in_range]] >= 0
        return out

    def lookup_flat_many(self, lpns: np.ndarray) -> np.ndarray:
        """Flattened physical indices for LPNs that must all be mapped."""
        flats = self._l2p[np.asarray(lpns, dtype=np.int64)]
        if (flats < 0).any():
            raise KeyError("lookup_flat_many on unmapped LPN(s)")
        return flats

    def mapped_count(self) -> int:
        """Number of live logical pages device-wide."""
        return self._mapped

    def all_mapped_lpns(self) -> list[int]:
        """Sorted list of all live LPNs."""
        return np.nonzero(self._l2p >= 0)[0].tolist()

    # -- updates ---------------------------------------------------------------

    def record_write(self, lpn: int, addr: PhysicalAddress) -> None:
        """Point ``lpn`` at a freshly programmed page, invalidating any old copy."""
        if lpn < 0:
            raise ValueError("LPNs must be non-negative")
        if lpn >= self._l2p.size:
            self._grow(lpn)
        old = self._l2p[lpn]
        if old >= 0:
            self._valid[old // self.pages_per_block] -= 1
            self._p2l[old] = -1
        else:
            self._mapped += 1
        block_index, page_index = addr
        flat = block_index * self.pages_per_block + page_index
        self._p2l[flat] = lpn
        self._valid[block_index] += 1
        self._l2p[lpn] = flat

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
        self._mapped -= 1
        return (block_index, int(flat) % self.pages_per_block)

    def record_writes(
        self,
        lpns: np.ndarray,
        block_index: int,
        start_page: int,
        assume_unique: bool = False,
    ) -> None:
        """Batched :meth:`record_write` for LPNs landing on consecutive pages.

        Equivalent to ``record_write(lpns[i], (block_index, start_page+i))``
        for each ``i`` in order.  Duplicate LPNs within the batch behave
        like sequential overwrites: only the last occurrence's page ends
        up live (earlier pages are programmed-but-dead, exactly as the
        scalar sequence leaves them).  Callers that can guarantee
        distinct LPNs (GC migration rewrites a block's live set, one
        entry per LPN) pass ``assume_unique=True`` to skip the
        duplicate resolution sort.
        """
        lpns = np.asarray(lpns, dtype=np.int64)
        n = lpns.size
        if n == 0:
            return
        if assume_unique:
            # callers asserting uniqueness hold already-mapped LPNs
            # (migration), so range checks and table growth are moot
            uniq = lpns
            last_pos = np.arange(n)
        else:
            if int(lpns.min()) < 0:
                raise ValueError("LPNs must be non-negative")
            top = int(lpns.max())
            if top >= self._l2p.size:
                self._grow(top)
            # last occurrence of each unique LPN wins (scalar overwrite order)
            uniq, rev_first = np.unique(lpns[::-1], return_index=True)
            last_pos = n - 1 - rev_first
        old = self._l2p[uniq]
        had_old = old >= 0
        old_flats = old[had_old]
        # distinct LPNs map to distinct flats, but several may share a
        # block: per-block decrements must accumulate
        np.subtract.at(self._valid, old_flats // self.pages_per_block, 1)
        self._p2l[old_flats] = -1
        self._mapped += int(uniq.size - had_old.sum())
        live_flats = (
            block_index * self.pages_per_block + start_page + last_pos
        )
        self._p2l[live_flats] = uniq
        self._l2p[uniq] = live_flats
        self._valid[block_index] += uniq.size

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
        self._mapped -= int(uniq.size)
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

