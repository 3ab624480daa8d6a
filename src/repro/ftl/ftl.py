"""Page-mapped flash translation layer over a flash chip.

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

A stream runs bit-exact (real page bytes, injected errors) or analytic
(book-keeping only; see ``Ftl(analytic=)``).  Both fidelities place pages
through one open-block run loop and migrate victims through one
migration, so they run the same operations in the same order.
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
from .wear_leveling import pick_cold_victim

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

    def __init__(
        self, config: StreamConfig, block_indices: list[int], page_size: int,
        total_blocks: int,
    ) -> None:
        self.config = config
        self.blocks = list(block_indices)
        #: sorted block indices as an array: the GC victim selector's
        #: candidate universe (sorted => argmin tie-breaks on lowest
        #: block index) and the live-page count's summation range
        self.block_arr = np.sort(np.asarray(block_indices, dtype=np.int64))
        #: per-chip-block ownership mask: the residency query's filter
        self.owns = np.zeros(total_blocks, dtype=bool)
        self.owns[self.block_arr] = True
        self.codec = PageCodec(config.protection, page_size)
        self.free: list[int] = list(block_indices)
        self.open_block: int | None = None
        #: per-block "free or open" flags aligned with ``block_arr``; the
        #: Ftl flips a block's flag whenever it enters or leaves the free
        #: pool or the open slot, so the GC candidates are the unflagged
        #: blocks with no per-choice rebuild
        self.held = np.ones(self.block_arr.size, dtype=bool)
        self._slot = {b: i for i, b in enumerate(self.block_arr.tolist())}
        #: nominal NAND latencies of the stream's mode (fixed per stream)
        self.times = TimingModel(config.mode).times()
        #: §4.2 "additional redundancy (e.g., parity)": reserve the last
        #: page of each block for an XOR of the block's data pages
        self.parity_enabled = config.protection.block_parity
        self._parity_acc = np.zeros(page_size, dtype=np.uint8)
        #: set by the Ftl: True when this stream runs the analytic chip
        #: fast path (transparent codec, no parity, Ftl(analytic=True))
        self.analytic = False

    def hold(self, block_index: int, held: bool) -> None:
        """Mark a block as in (True) or out of the free pool/open slot."""
        self.held[self._slot[block_index]] = held

    def reset_parity(self) -> None:
        """Clear the running parity accumulator (new open block)."""
        self._parity_acc.fill(0)

    def accumulate_parity(self, encoded: bytes) -> None:
        """Fold one programmed page into the running parity (a page
        shorter than the accumulator is zero-padded, which XOR ignores)."""
        self._parity_acc[: len(encoded)] ^= np.frombuffer(encoded, dtype=np.uint8)

    def parity_bytes(self) -> bytes:
        """Current parity page contents."""
        return self._parity_acc.tobytes()

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
        block parity.  Eligible streams skip byte materialization,
        error injection and RBER evaluation entirely (reads keep only
        the read-disturb book-keeping); BCH/Hamming- or parity-protected
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
            stream = _Stream(
                config, indices, chip.geometry.page_size_bytes, chip.geometry.total_blocks
            )
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

    def resident(self, lpns, stream_name: str) -> tuple[np.ndarray, np.ndarray]:
        """The LPNs among ``lpns`` whose live copy sits in ``stream_name``,
        with the flattened physical page of each.

        The batched form of keeping each ``lpn`` with ``stream_of(lpn) ==
        stream_name``: one page-map gather plus the stream's block
        ownership mask.  Input order is kept and a repeated LPN is kept
        each time it appears; negative, out-of-map and unmapped LPNs are
        dropped.
        """
        arr = np.asarray(lpns, dtype=np.int64)
        flats = self.page_map.locate_many(arr)
        mapped = np.flatnonzero(flats >= 0)
        owns = self._streams[stream_name].owns
        kept = mapped[owns[flats[mapped] // self.chip.geometry.pages_per_block]]
        return arr[kept], flats[kept]

    def stream_capacity_pages(self, stream_name: str) -> int:
        """Host-visible data pages a stream can hold (excl. retired
        blocks and per-block parity reservations)."""
        stream = self._streams[stream_name]
        arrays = self.chip.arrays
        live = stream.block_arr[~arrays.retired[stream.block_arr]]
        reserved = 1 if stream.parity_enabled else 0
        return int(np.maximum(0, arrays.usable_pages[live] - reserved).sum())

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
        encoded = None if stream.analytic else [stream.codec.encode(payload)]
        self._program_runs(stream, np.array([lpn], dtype=np.int64), "host_writes", encoded)

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
        self.stats.read_time_us += stream.times.read_us
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

        Equivalent to ``write(lpn, b"", stream_name)`` per LPN, and one
        :meth:`_program_runs` call on either fidelity: an analytic stream
        places each open-block run in a few array operations, a bit-exact
        one programs the empty payload's encoding (made once per call)
        page by page.
        """
        stream = self._streams[stream_name]
        arr = np.asarray(lpns, dtype=np.int64)
        encoded = None if stream.analytic else [stream.codec.encode(b"")] * arr.size
        self._program_runs(stream, arr, "host_writes", encoded)

    def read_many(self, lpns, stream_name: str) -> int:
        """Read many logical pages, skipping unmapped LPNs; returns reads.

        Equivalent to ``read(lpn)`` for every *mapped* LPN in order.
        Every mapped LPN must currently live in ``stream_name`` (batch
        callers own their placement; this is not checked per LPN).  On
        an analytic stream the mapped set resolves to physical pages in
        one lookup and the chip records the reads in one batched call.
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
            self.stats.read_time_us += stream.times.read_us * int(mapped.size)
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
        blocks = stream.block_arr
        if stream.open_block is not None:
            blocks = blocks[blocks != stream.open_block]
        victim = pick_cold_victim(
            stream.config.wear_leveling, blocks, self.chip.arrays, self.page_map
        )
        if victim is None:
            return 0
        return self._migrate_block(stream, victim, "wl_migrations")

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
                stream.hold(stream.open_block, False)
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
                stream.hold(block_index, False)
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
        stream.hold(block_index, False)
        if block_index in stream.free:
            stream.free.remove(block_index)
        elif any(True for _ in self.page_map.live_lpns(block_index)):
            # rescue live data onto the write path (appends victim to the
            # free list as a side effect; pull it back out before retiring)
            self._migrate_block(stream, block_index, "gc_migrations")
            stream.free.remove(block_index)
            stream.hold(block_index, False)
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

    def _program(self, stream: _Stream, addr: tuple[int, int], encoded: bytes) -> None:
        """Program an encoded page, maintaining parity and timing."""
        self.chip.program(addr, encoded)
        self.stats.program_time_us += stream.times.program_us
        if stream.parity_enabled:
            stream.accumulate_parity(encoded)

    def _seal_parity(self, stream: _Stream) -> None:
        """Write the parity page into the open block's reserved slot."""
        if not stream.parity_enabled or stream.open_block is None:
            return
        block = self.chip.blocks[stream.open_block]
        if block.free_pages != 1:
            return  # partially written block: parity stays unsealed
        page_index = block.usable_pages - 1
        self.chip.program((stream.open_block, page_index), stream.parity_bytes())
        self.stats.program_time_us += stream.times.program_us

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
        acc = np.zeros(self.chip.geometry.page_size_bytes, dtype=np.uint8)
        for page in range(block.usable_pages):
            if page == failed_page:
                continue
            if not block.is_programmed(page):
                return None
            data = self.chip.read((block_index, page))
            self.stats.read_time_us += stream.times.read_us
            acc ^= np.frombuffer(data, dtype=np.uint8)
        return stream.codec.decode(acc.tobytes())

    def _open_new_block(self, stream: _Stream, during_gc: bool) -> None:
        if not during_gc and len(stream.free) <= stream.config.gc_free_block_threshold:
            self._garbage_collect(stream)
        if not stream.free:
            raise OutOfSpaceError(f"stream '{stream.name}' has no free blocks")
        block_index = stream.free.pop(0)
        block = self.chip.blocks[block_index]
        if block.free_pages != block.usable_pages:
            block.erase()
            self.page_map.on_erase(block_index)
            self.stats.erase_time_us += stream.times.erase_us
        if stream.open_block is not None:
            stream.hold(stream.open_block, False)
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
            self._migrate_block(stream, victim, "gc_migrations")
            self.stats.gc_erases += 1

    def _select_gc_victim(self, stream: _Stream) -> int | None:
        """One victim choice among the stream's closed blocks.

        The candidates are the stream's (sorted) blocks outside the free
        pool and the open slot, read off ``stream.held``; the selector
        drops retired ones and reduces to an argmin over the shared chip
        state arrays (ties to the lowest block index).
        """
        return select_victim_arrays(
            stream.block_arr[~stream.held],
            self.page_map,
            stream.config.gc_policy,
            self.chip.now_years,
            self.chip.arrays,
        )

    def _migrate_block(self, stream: _Stream, victim_index: int, counter: str) -> int:
        """Move a block's live pages to the write path, then free it.

        The whole live set is read first -- on an analytic stream one
        chip ``read_analytic_many`` of the victim's live pages, the same
        read a host ``read_many`` makes; on a bit-exact one a chip read,
        decode and re-encode per page, in page order, so uncorrected
        errors travel with the data -- then :meth:`_program_runs` places
        it.  That equals interleaving reads with programs: only reads draw
        from the chip RNG, and the victim is never the open block, so
        nothing touches its pages between two of its reads.  Each moved
        page counts once, under the ``FtlStats`` field ``counter`` that
        names the migration's cause.
        """
        pages, lpns = self.page_map.live_lpns_arrays(victim_index)
        if stream.analytic:
            self.chip.read_analytic_many(
                victim_index * self.chip.geometry.pages_per_block + pages
            )
            encoded = None
        else:
            codec = stream.codec
            encoded = [
                codec.encode(codec.decode(self.chip.read((victim_index, page))).payload)
                for page in pages.tolist()
            ]
        self.stats.read_time_us += stream.times.read_us * int(lpns.size)
        self._program_runs(stream, lpns, counter, encoded, victim=victim_index)
        victim = self.chip.blocks[victim_index]
        victim.erase()
        self.page_map.on_erase(victim_index)
        self.stats.erase_time_us += stream.times.erase_us
        stream.free.append(victim_index)
        stream.hold(victim_index, True)
        return int(lpns.size)

    def _program_runs(
        self, stream: _Stream, lpns: np.ndarray, counter: str,
        encoded: list[bytes] | None, victim: int | None = None,
    ) -> None:
        """Program ``lpns`` in order: the one loop that opens blocks and
        places pages, on both fidelities.

        Writes split into open-block runs of ``free_pages - reserved``
        pages (a parity stream keeps each block's last page for parity,
        sealed before the next block opens).  On a bit-exact stream
        ``encoded[i]`` is the page for ``lpns[i]``, programmed one
        :meth:`_program` at a time; on an analytic one (``encoded`` None)
        a run is one ``program_analytic_many`` slice.  Blocks open (with
        any GC that triggers) at exactly the page boundaries a
        page-at-a-time sequence would hit, so mapping state, wear, GC
        victims and ``FtlStats`` equal it (NAND times are integer-valued
        microseconds: ``n`` equal float adds equal one scaled add).  The
        page map and the ``FtlStats`` field ``counter`` advance per run,
        so an ``OutOfSpaceError`` leaves every landed page mapped and
        counted.  A migration names its ``victim``: its LPNs are the
        victim's distinct live pages, moved with :meth:`PageMap.migrate`,
        and opening a block mid-way runs no nested GC.
        """
        program_us = stream.times.program_us
        reserved = 1 if stream.parity_enabled else 0
        during_gc = victim is not None
        pos = 0
        while pos < lpns.size:
            block_index = stream.open_block
            if (
                block_index is None
                or self.chip.blocks[block_index].free_pages <= reserved
            ):
                self._seal_parity(stream)
                self._open_new_block(stream, during_gc)
                block_index = stream.open_block
            block = self.chip.blocks[block_index]  # type: ignore[index]
            run = min(block.free_pages - reserved, lpns.size - pos)
            if encoded is None:
                start_page = block.program_analytic_many(run)
                self.stats.program_time_us += program_us * run
            else:
                start_page = block.usable_pages - block.free_pages
                for i in range(run):
                    self._program(stream, (block_index, start_page + i), encoded[pos + i])
            run_lpns = lpns[pos: pos + run]
            if during_gc:
                self.page_map.migrate(run_lpns, victim, block_index, start_page)
            else:
                self.page_map.record_writes(run_lpns, block_index, start_page)
            setattr(self.stats, counter, getattr(self.stats, counter) + run)
            pos += run
