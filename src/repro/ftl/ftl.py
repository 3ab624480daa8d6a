"""Page-mapped flash translation layer over a bit-exact flash chip.

The FTL owns the chip and exposes logical-page reads/writes routed to
named streams, implementing the device half of the paper's co-design:

* per-stream physical block partitions with independent cell modes, ECC,
  GC, and wear-leveling policies (§4.2-§4.3);
* garbage collection with pluggable victim selection;
* optional static wear leveling (disabled on SPARE);
* allocation-time block health checks with retirement (capacity variance)
  and density resuscitation (§4.3);
* error propagation through GC: migrating approximate data re-encodes
  whatever was read, so uncorrected errors accumulate across moves --
  the physical mechanism behind gradual degradation.

Data written through a stream is encoded with the stream's protection
policy; reads decode and report corrected/uncorrectable counts so callers
(the SOS scrubber, the media layer) can observe degradation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ecc.page_codec import PageCodec, PageReadResult
from repro.flash.chip import FlashChip
from repro.flash.timing import TimingModel
from repro.obs import get_observer

from .bad_blocks import assess_block
from .gc import select_victim_arrays
from .mapping import PageMap
from .streams import StreamConfig
from .wear_leveling import WearLeveler

__all__ = ["Ftl", "FtlStats", "OutOfSpaceError"]


class OutOfSpaceError(Exception):
    """Raised when a stream cannot reclaim enough space for a write."""


@dataclass(slots=True)
class FtlStats:
    """Cumulative FTL activity counters."""

    host_writes: int = 0
    host_reads: int = 0
    gc_migrations: int = 0
    gc_erases: int = 0
    wl_migrations: int = 0
    blocks_retired: int = 0
    blocks_resuscitated: int = 0
    corrected_bits: int = 0
    uncorrectable_codewords: int = 0
    parity_recoveries: int = 0
    #: cumulative device-time spent in NAND operations (microseconds)
    read_time_us: float = 0.0
    program_time_us: float = 0.0
    erase_time_us: float = 0.0


class _Stream:
    """Runtime state for one configured stream."""

    def __init__(self, config: StreamConfig, block_indices: list[int], page_size: int) -> None:
        self.config = config
        self.blocks = list(block_indices)
        #: sorted block indices as an array: the GC victim selector's
        #: candidate universe (sorted => argmin tie-breaks on lowest
        #: block index) and the live-page count's summation range
        self.block_arr = np.sort(np.asarray(block_indices, dtype=np.int64))
        self.codec = PageCodec(config.protection, page_size)
        self.free: list[int] = list(block_indices)
        self.open_block: int | None = None
        self.leveler = WearLeveler(config.wear_leveling)
        self.timing = TimingModel(config.mode)
        #: §4.2 "additional redundancy (e.g., parity)": reserve the last
        #: page of each block for an XOR of the block's data pages
        self.parity_enabled = config.protection.block_parity
        self._parity_acc = bytearray(page_size)
        #: set by the Ftl: True when this stream runs the analytic chip
        #: fast path (transparent codec, no parity, Ftl(analytic=True))
        self.analytic = False

    def reset_parity(self) -> None:
        """Clear the running parity accumulator (new open block)."""
        self._parity_acc = bytearray(len(self._parity_acc))

    def accumulate_parity(self, encoded: bytes) -> None:
        """Fold one programmed page into the running parity."""
        for i, b in enumerate(encoded):
            self._parity_acc[i] ^= b

    def parity_bytes(self) -> bytes:
        """Current parity page contents."""
        return bytes(self._parity_acc)

    @property
    def name(self) -> str:
        return self.config.name


class Ftl:
    """Flash translation layer managing a chip partitioned into streams.

    Parameters
    ----------
    chip:
        The flash chip to manage.  Blocks named in ``stream_blocks`` are
        reconfigured to their stream's operating mode at construction.
    streams:
        Stream configurations.
    stream_blocks:
        Disjoint physical block index lists, one per stream, covering any
        subset of the chip.
    analytic:
        Opt into the analytic chip fast path for eligible streams.  A
        stream is eligible when its protection never inspects page
        content: a transparent codec (``ProtectionLevel.NONE``) and no
        block parity.  Eligible streams skip byte materialization and
        error-injection RNG entirely (expected bit errors accrue
        analytically on the blocks); BCH/Hamming- or parity-protected
        streams always keep the bit-exact path, even under
        ``analytic=True``.  ``FtlStats`` is pinned identical between the
        two paths on eligible streams -- reads just return empty
        payloads.

    An LPN belongs to the stream that owns the block holding its live
    copy: the page map is the single record of placement, read through
    a per-block owner table built once from ``stream_blocks``.
    """

    def __init__(
        self,
        chip: FlashChip,
        streams: list[StreamConfig],
        stream_blocks: dict[str, list[int]],
        *,
        analytic: bool = False,
    ) -> None:
        if {s.name for s in streams} != set(stream_blocks):
            raise ValueError("streams and stream_blocks must name the same streams")
        claimed: set[int] = set()
        for name, indices in stream_blocks.items():
            overlap = claimed.intersection(indices)
            if overlap:
                raise ValueError(f"blocks {sorted(overlap)} assigned to multiple streams")
            claimed.update(indices)
        self.chip = chip
        self.page_map = PageMap(chip.geometry.total_blocks, chip.geometry.pages_per_block)
        self.stats = FtlStats()
        self.analytic = analytic
        self._streams: dict[str, _Stream] = {}
        #: owning stream of each physical block (None: unassigned)
        self._block_stream: list[_Stream | None] = [None] * chip.geometry.total_blocks
        for config in streams:
            indices = stream_blocks[config.name]
            for block_index in indices:
                if chip.blocks[block_index].mode != config.mode:
                    chip.reconfigure_block(block_index, config.mode)
            stream = _Stream(config, indices, chip.geometry.page_size_bytes)
            stream.analytic = (
                analytic and stream.codec.transparent and not stream.parity_enabled
            )
            self._streams[config.name] = stream
            for block_index in indices:
                self._block_stream[block_index] = stream

    # -- capacity / introspection -------------------------------------------

    def stream(self, name: str) -> _Stream:
        """Runtime state of a stream (read-only use expected)."""
        return self._streams[name]

    def stream_names(self) -> list[str]:
        """Configured stream names."""
        return list(self._streams)

    def logical_page_bytes(self, stream_name: str) -> int:
        """Usable payload bytes per logical page in a stream."""
        return self._streams[stream_name].codec.payload_bytes

    def stream_of(self, lpn: int) -> str | None:
        """Which stream currently holds an LPN."""
        addr = self.page_map.lookup(lpn)
        return None if addr is None else self._block_stream[addr[0]].name

    def stream_capacity_pages(self, stream_name: str) -> int:
        """Host-visible data pages a stream can hold (excl. retired
        blocks and per-block parity reservations)."""
        stream = self._streams[stream_name]
        reserved = 1 if stream.parity_enabled else 0
        return sum(
            max(0, self.chip.blocks[i].usable_pages - reserved)
            for i in stream.blocks
            if not self.chip.blocks[i].retired
        )

    def stream_live_pages(self, stream_name: str) -> int:
        """Live (mapped) logical pages currently in a stream."""
        blocks = self._streams[stream_name].block_arr
        return int(self.page_map.valid_counts(blocks).sum())

    # -- host operations -------------------------------------------------------

    def write(self, lpn: int, payload: bytes, stream_name: str) -> None:
        """Write one logical page's payload into a stream.

        Overwrites relocate: if the LPN previously lived in another
        stream, the old copy is invalidated there.
        """
        stream = self._streams[stream_name]
        if len(payload) > stream.codec.payload_bytes:
            raise ValueError(
                f"payload {len(payload)}B exceeds stream '{stream_name}' "
                f"logical page size {stream.codec.payload_bytes}B"
            )
        if stream.analytic:
            self.write_many([lpn], stream_name)
            return
        encoded = stream.codec.encode(payload)
        addr = self._allocate_page(stream)
        self._program(stream, addr, encoded)
        self.page_map.record_write(lpn, addr)
        self.stats.host_writes += 1

    def read(self, lpn: int) -> PageReadResult:
        """Read and decode one logical page.

        On an uncorrectable result in a parity-protected stream, attempts
        block-parity reconstruction (§4.2's SYS redundancy) before
        returning.
        """
        addr = self.page_map.lookup(lpn)
        if addr is None:
            raise KeyError(f"LPN {lpn} is not mapped")
        stream = self._block_stream[addr[0]]
        if stream.analytic:
            # transparent codec: the decode would report 0 corrections and
            # 0 uncorrectable words whatever the bytes were, so the stats
            # trajectory matches the bit-exact path exactly; only the
            # payload (which analytic streams never materialize) is empty
            self.read_many([lpn], stream.name)
            return PageReadResult(payload=b"", corrected_bits=0, uncorrectable_codewords=0)
        raw = self.chip.read(addr)
        self.stats.read_time_us += stream.timing.times().read_us
        result = stream.codec.decode(raw)
        if result.uncorrectable_codewords > 0 and stream.parity_enabled:
            recovered = self._parity_reconstruct(stream, addr)
            if recovered is not None and recovered.uncorrectable_codewords == 0:
                self.stats.parity_recoveries += 1
                result = recovered
        self.stats.host_reads += 1
        self.stats.corrected_bits += result.corrected_bits
        self.stats.uncorrectable_codewords += result.uncorrectable_codewords
        return result

    def trim(self, lpn: int) -> None:
        """Invalidate an LPN (host delete)."""
        self.page_map.invalidate(lpn)

    # -- batched host operations (vectorized hot path) ---------------------

    def write_many(self, lpns, stream_name: str) -> None:
        """Write many logical pages with empty payloads, in order.

        Equivalent to ``write(lpn, b"", stream_name)`` per LPN.  On an
        analytic stream the batch is the vectorized hot path
        (:meth:`_program_runs`); other streams take the per-page path.
        """
        stream = self._streams[stream_name]
        arr = np.asarray(lpns, dtype=np.int64)
        if not stream.analytic:
            for lpn in arr.tolist():
                self.write(lpn, b"", stream_name)
            return
        self._program_runs(stream, arr, during_gc=False)

    def read_many(self, lpns, stream_name: str) -> int:
        """Read many logical pages, skipping unmapped LPNs; returns reads.

        Equivalent to ``read(lpn)`` for every *mapped* LPN in order.
        Every mapped LPN must currently live in ``stream_name`` (batch
        callers own their placement; this is not checked per LPN).  On
        an analytic stream the mapped set resolves to physical pages in
        one lookup and each touched block evaluates its RBERs in a
        single vectorized call.
        """
        stream = self._streams[stream_name]
        arr = np.asarray(lpns, dtype=np.int64)
        if not stream.analytic:
            count = 0
            for lpn in arr.tolist():
                if self.page_map.is_mapped(lpn):
                    self.read(lpn)
                    count += 1
            return count
        mapped = arr[self.page_map.is_mapped_many(arr)]
        if mapped.size:
            self.chip.read_analytic_many(self.page_map.lookup_flat_many(mapped))
            self.stats.read_time_us += stream.timing.times().read_us * int(mapped.size)
        self.stats.host_reads += int(mapped.size)
        return int(mapped.size)

    def trim_many(self, lpns) -> int:
        """Invalidate many LPNs; returns how many were actually mapped."""
        return int(self.page_map.invalidate_many(np.asarray(lpns, dtype=np.int64)).size)

    def relocate(self, lpn: int, target_stream: str) -> PageReadResult:
        """Move an LPN's current payload to another stream (SOS placement).

        Reads through the source stream's codec and rewrites through the
        target's; returns the read result so callers can audit quality.
        """
        result = self.read(lpn)
        payload = result.payload[: self._streams[target_stream].codec.payload_bytes]
        self.write(lpn, payload, target_stream)
        return result

    # -- maintenance ------------------------------------------------------------

    def run_wear_leveling(self, stream_name: str) -> int:
        """One wear-leveling pass; returns pages migrated."""
        stream = self._streams[stream_name]
        # include free blocks: their wear counts toward the spread even
        # though only data-holding blocks can be nominated for migration
        candidates = [
            (i, self.chip.blocks[i]) for i in stream.blocks if i != stream.open_block
        ]
        victim = stream.leveler.pick_cold_victim(candidates, self.page_map)
        if victim is None:
            return 0
        migrated = self._migrate_block(stream, victim)
        self.stats.wl_migrations += migrated
        return migrated

    def check_stream_health(self, stream_name: str) -> None:
        """Assess free blocks; retire or resuscitate unreliable ones.

        The open block is assessed too: writing fresh data onto a worn
        block defeats the point of a rescue, so an unhealthy open block
        is abandoned (its remaining pages are wasted; GC reclaims the
        block once its live pages migrate away).
        """
        stream = self._streams[stream_name]
        policy = stream.config.health
        if policy is None:
            return
        if stream.open_block is not None:
            verdict = assess_block(self.chip.blocks[stream.open_block], policy)
            if not verdict.healthy:
                stream.open_block = None
        obs = get_observer()
        for block_index in list(stream.free):
            block = self.chip.blocks[block_index]
            verdict = assess_block(block, policy)
            if verdict.healthy:
                continue
            if verdict.resuscitate_to is not None:
                if block.free_pages != block.usable_pages:
                    block.erase()
                self.chip.reconfigure_block(block_index, verdict.resuscitate_to)
                self.stats.blocks_resuscitated += 1
                obs.event(
                    "block_resuscitated", t=self.chip.now_years,
                    stream=stream_name, block=block_index,
                    bits=verdict.resuscitate_to.operating_bits,
                )
            elif verdict.retire:
                stream.free.remove(block_index)
                self.chip.retire_block(block_index)
                self.stats.blocks_retired += 1
                obs.event(
                    "block_retired", t=self.chip.now_years,
                    stream=stream_name, block=block_index, reason="wear",
                )

    def force_retire(self, stream_name: str, block_index: int) -> bool:
        """Retire one specific block outright (fault injection path).

        Models an infant-mortality death: the block is lost regardless of
        its assessed health.  Live pages are migrated to the stream's
        write path first, so data survives the block -- the §4.3 contract
        is that media failure degrades capacity, not integrity, for
        protected data.  Returns False when the block is already retired.
        """
        stream = self._streams[stream_name]
        if block_index not in stream.blocks:
            raise ValueError(f"block {block_index} is not in stream '{stream_name}'")
        block = self.chip.blocks[block_index]
        if block.retired:
            return False
        if stream.open_block == block_index:
            stream.open_block = None
        if block_index in stream.free:
            stream.free.remove(block_index)
        elif any(True for _ in self.page_map.live_lpns(block_index)):
            # rescue live data onto the write path (appends victim to the
            # free list as a side effect; pull it back out before retiring)
            self._migrate_block(stream, block_index)
            stream.free.remove(block_index)
        else:
            self.page_map.on_erase(block_index)
        self.chip.retire_block(block_index)
        self.stats.blocks_retired += 1
        get_observer().event(
            "block_retired", t=self.chip.now_years, stream=stream_name,
            block=block_index, reason="fault",
        )
        return True

    # -- internals ---------------------------------------------------------------

    def _allocate_page(self, stream: _Stream, during_gc: bool = False) -> tuple[int, int]:
        """Next programmable page in the stream's open block.

        Parity-protected streams reserve each block's last page; when the
        open block reaches it, the parity page is sealed in and a new
        block is opened.
        """
        reserved = 1 if stream.parity_enabled else 0
        block = None if stream.open_block is None else self.chip.blocks[stream.open_block]
        if block is None or block.free_pages <= reserved:
            self._seal_parity(stream)
            self._open_new_block(stream, during_gc)
            block = self.chip.blocks[stream.open_block]  # type: ignore[index]
        page_index = block.usable_pages - block.free_pages
        return (stream.open_block, page_index)  # type: ignore[return-value]

    def _program(self, stream: _Stream, addr: tuple[int, int], encoded: bytes) -> None:
        """Program an encoded page, maintaining parity and timing."""
        self.chip.program(addr, encoded)
        self.stats.program_time_us += stream.timing.times().program_us
        if stream.parity_enabled:
            page_size = self.chip.geometry.page_size_bytes
            stream.accumulate_parity(encoded.ljust(page_size, b"\x00"))

    def _seal_parity(self, stream: _Stream) -> None:
        """Write the parity page into the open block's reserved slot."""
        if not stream.parity_enabled or stream.open_block is None:
            return
        block = self.chip.blocks[stream.open_block]
        if block.free_pages != 1:
            return  # partially written block: parity stays unsealed
        page_index = block.usable_pages - 1
        self.chip.program((stream.open_block, page_index), stream.parity_bytes())
        self.stats.program_time_us += stream.timing.times().program_us

    def _parity_reconstruct(self, stream: _Stream, addr: tuple[int, int]):
        """Rebuild one page from the XOR of its block's other pages.

        Returns the decoded reconstruction, or None when the block's
        parity page is not sealed (open block) or pages are missing.
        """
        block_index, failed_page = addr
        block = self.chip.blocks[block_index]
        parity_index = block.usable_pages - 1
        if not block.is_programmed(parity_index):
            return None
        page_size = self.chip.geometry.page_size_bytes
        acc = bytearray(page_size)
        for page in range(block.usable_pages):
            if page == failed_page:
                continue
            if not block.is_programmed(page):
                return None
            data = self.chip.read((block_index, page))
            self.stats.read_time_us += stream.timing.times().read_us
            for i, byte in enumerate(data):
                acc[i] ^= byte
        return stream.codec.decode(bytes(acc))

    def _open_new_block(self, stream: _Stream, during_gc: bool = False) -> None:
        if not during_gc and len(stream.free) <= stream.config.gc_free_block_threshold:
            self._garbage_collect(stream)
        if not stream.free:
            raise OutOfSpaceError(f"stream '{stream.name}' has no free blocks")
        block_index = stream.free.pop(0)
        block = self.chip.blocks[block_index]
        if block.free_pages != block.usable_pages:
            block.erase()
            self.page_map.on_erase(block_index)
            self.stats.erase_time_us += stream.timing.times().erase_us
        stream.open_block = block_index
        stream.reset_parity()

    def _garbage_collect(self, stream: _Stream) -> None:
        """Reclaim blocks until the free pool exceeds its threshold."""
        with get_observer().span("ftl.gc"):
            self._garbage_collect_inner(stream)

    def _garbage_collect_inner(self, stream: _Stream) -> None:
        target = stream.config.gc_free_block_threshold + 1
        attempts = 0
        while len(stream.free) < target and attempts < len(stream.blocks):
            attempts += 1
            victim = self._select_gc_victim(stream)
            if victim is None:
                break
            self._migrate_block(stream, victim)
            self.stats.gc_erases += 1

    def _select_gc_victim(self, stream: _Stream) -> int | None:
        """One victim choice among the stream's closed blocks.

        Masks the stream's (sorted) block array by open/free/retired
        status and reduces to an argmin over the shared chip state
        arrays (ties to the lowest block index).
        """
        blocks = stream.block_arr
        mask = ~self.chip.arrays.retired[blocks]
        if stream.open_block is not None:
            mask &= blocks != stream.open_block
        if stream.free:
            # block_arr is sorted, and the free pool is tiny: probe
            # each free block's slot instead of a full isin sweep
            free = np.asarray(stream.free, dtype=np.int64)
            slots = np.searchsorted(blocks, free)
            hit = (slots < blocks.size) & (blocks[np.minimum(slots, blocks.size - 1)] == free)
            mask[slots[hit]] = False
        return select_victim_arrays(
            blocks[mask],
            self.page_map,
            stream.config.gc_policy,
            self.chip.now_years,
            self.chip.arrays,
        )

    def _migrate_block(self, stream: _Stream, victim_index: int) -> int:
        """Move a block's live pages to the write path, then free it."""
        migrated = 0
        if stream.analytic:
            migrated = self._migrate_block_analytic(stream, victim_index)
        else:
            for _page_index, lpn in self.page_map.live_lpns(victim_index):
                addr = self.page_map.lookup(lpn)
                if addr is None or addr[0] != victim_index:
                    continue
                raw = self.chip.read(addr)
                self.stats.read_time_us += stream.timing.times().read_us
                result = stream.codec.decode(raw)
                encoded = stream.codec.encode(result.payload)
                new_addr = self._allocate_page(stream, during_gc=True)
                self._program(stream, new_addr, encoded)
                self.page_map.record_write(lpn, new_addr)
                migrated += 1
                self.stats.gc_migrations += 1
        victim = self.chip.blocks[victim_index]
        victim.erase()
        self.page_map.on_erase(victim_index)
        self.stats.erase_time_us += stream.timing.times().erase_us
        stream.free.append(victim_index)
        return migrated

    def _migrate_block_analytic(self, stream: _Stream, victim_index: int) -> int:
        """Analytic-mode migration: no byte materialization.

        The victim's live pages are "read" in one vectorized batch (wear
        and expected-error bookkeeping only -- migration never inspects
        content on a transparent codec), then rewritten through
        :meth:`_program_runs`.  Safe to batch the reads up front:
        destination programs go to the open block, never the victim, and
        per-page read counts are independent, so the chip-side accruals
        match the interleaved scalar order exactly (time counters are
        integer-valued microseconds -- scaled adds equal repeated adds).
        """
        pages, lpns = self.page_map.live_lpns_arrays(victim_index)
        if not lpns.size:
            return 0
        self.chip.blocks[victim_index].read_analytic_many(pages, self.chip.now_years)
        self.stats.read_time_us += stream.timing.times().read_us * int(lpns.size)
        self._program_runs(stream, lpns, during_gc=True)
        return int(lpns.size)

    def _program_runs(self, stream: _Stream, lpns: np.ndarray, during_gc: bool) -> None:
        """Program ``lpns`` in order onto an analytic stream's write path.

        Writes split into open-block-sized runs; each run programs its
        pages and updates the page map in a handful of array operations,
        and blocks open (with any GC that triggers) at exactly the page
        boundaries the per-page sequence would hit -- so mapping state,
        wear, GC victims, and ``FtlStats`` are identical to it (NAND
        time counters are integer-valued microseconds, so ``n`` equal
        float adds equal one ``n``-scaled add exactly).  Counters
        advance per run, so an ``OutOfSpaceError`` leaves every landed
        page accounted.  GC migration (``during_gc``) rewrites distinct
        LPNs and counts as ``gc_migrations``, host writes as
        ``host_writes``.
        """
        program_us = stream.timing.times().program_us
        pos = 0
        while pos < lpns.size:
            if (
                stream.open_block is None
                or self.chip.blocks[stream.open_block].free_pages <= 0
            ):
                self._open_new_block(stream, during_gc)
            block = self.chip.blocks[stream.open_block]  # type: ignore[index]
            run = min(block.free_pages, lpns.size - pos)
            start_page = block.usable_pages - block.free_pages
            block.program_analytic_many(run)
            self.stats.program_time_us += program_us * run
            self.page_map.record_writes(
                lpns[pos: pos + run], stream.open_block, start_page,
                assume_unique=during_gc,
            )
            if during_gc:
                self.stats.gc_migrations += run
            else:
                self.stats.host_writes += run
            pos += run
