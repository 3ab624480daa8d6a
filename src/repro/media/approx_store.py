"""Approximate storage of media objects over the two-partition device.

Implements the §4.2 placement for media data demoted to SPARE, with the
selective-protection refinement from the approximate-storage literature
the paper cites (Sampson et al., Li et al., AxFTL): the *error-tolerant*
frames (P/B) go to the weakly-protected SPARE partition, while the small,
error-critical I-frames may be kept on SYS ("hybrid" layout) so a handful
of bit flips never destroys a whole GOP.

Layouts
-------
``FULL_SPARE``
    Everything on SPARE -- maximum density, quality decays fastest.
``HYBRID``
    I-frames on SYS, P/B frames on SPARE -- the operating point that makes
    50%-density PLC storage deliver acceptable quality for years.
``FULL_SYS``
    Everything on SYS (the conservative baseline for comparisons).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.host.block_layer import BlockLayer
from repro.host.hints import Placement

from .codec import FrameType, MediaObject
from .quality import QualityReport, measure_quality

__all__ = ["MediaLayout", "StoredMedia", "ApproximateStore"]


class MediaLayout(enum.Enum):
    """Placement strategy for a media object's frames."""

    FULL_SPARE = "full_spare"
    HYBRID = "hybrid"
    FULL_SYS = "full_sys"


@dataclass(slots=True)
class StoredMedia:
    """Placement record of one stored media object."""

    media: MediaObject
    layout: MediaLayout
    #: LPNs in object order
    lpns: list[int]
    #: per-LPN placement actually used
    placements: list[Placement]

    @property
    def spare_fraction(self) -> float:
        """Fraction of the object's pages on the SPARE partition."""
        if not self.placements:
            return 0.0
        return sum(1 for p in self.placements if p is Placement.SPARE) / len(self.placements)


class ApproximateStore:
    """Stores media objects page-by-page across SYS/SPARE partitions.

    Parameters
    ----------
    block_layer:
        Host block layer to write through.
    lpn_base:
        First LPN this store may use; the store allocates sequentially.
        Callers carve disjoint LPN regions per store.
    """

    def __init__(self, block_layer: BlockLayer, lpn_base: int = 1 << 20) -> None:
        self.block_layer = block_layer
        self._next_lpn = lpn_base

    def store(self, media: MediaObject, layout: MediaLayout) -> StoredMedia:
        """Write a media object under the given layout."""
        page_bytes = self.block_layer.page_bytes
        lpns: list[int] = []
        placements: list[Placement] = []
        critical = media.critical_ranges()
        for offset in range(0, media.size_bytes, page_bytes):
            chunk = media.data[offset: offset + page_bytes]
            placement = self._partition_for(offset, len(chunk), critical, layout)
            lpn = self._next_lpn
            self._next_lpn += 1
            self.block_layer.write_page(lpn, chunk, placement=placement)
            lpns.append(lpn)
            placements.append(placement)
        return StoredMedia(media=media, layout=layout, lpns=lpns, placements=placements)

    def read_back(self, stored: StoredMedia, votes: int = 1) -> bytes:
        """Reassemble the object's bytes (with whatever errors survived).

        Parameters
        ----------
        votes:
            Read each page this many times and take a per-bit majority
            vote.  Retention/wear errors on unprotected flash are largely
            *transient sensing* errors that resample on every read, so
            voting suppresses them quadratically at the cost of ``votes``x
            read latency -- a standard approximate-storage recovery trick
            (cf. Sampson et al. §6).  ``votes`` must be odd.
        """
        if votes < 1 or votes % 2 == 0:
            raise ValueError("votes must be a positive odd number")
        page_bytes = self.block_layer.page_bytes
        out = bytearray()
        for lpn in stored.lpns:
            if votes == 1:
                out.extend(self.block_layer.read_page(lpn)[:page_bytes])
                continue
            reads = [
                np.frombuffer(
                    self.block_layer.read_page(lpn)[:page_bytes], dtype=np.uint8
                )
                for _ in range(votes)
            ]
            stacked = np.unpackbits(np.stack(reads), axis=1)
            majority = (stacked.sum(axis=0) > votes // 2).astype(np.uint8)
            out.extend(np.packbits(majority).tobytes())
        return bytes(out[: stored.media.size_bytes])

    def audit_quality(self, stored: StoredMedia, votes: int = 1) -> QualityReport:
        """Read the object back and score its quality against the reference."""
        return measure_quality(stored.media, self.read_back(stored, votes=votes))

    def rewrite(self, stored: StoredMedia, data: bytes | None = None) -> None:
        """Rewrite the object in place (repair path: fresh, clean copy)."""
        payload = stored.media.data if data is None else data
        page_bytes = self.block_layer.page_bytes
        for i, lpn in enumerate(stored.lpns):
            chunk = payload[i * page_bytes: (i + 1) * page_bytes]
            self.block_layer.write_page(lpn, chunk)

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _partition_for(
        offset: int,
        length: int,
        critical_ranges: list[tuple[int, int]],
        layout: MediaLayout,
    ) -> Placement:
        if layout is MediaLayout.FULL_SYS:
            return Placement.SYS
        if layout is MediaLayout.FULL_SPARE:
            return Placement.SPARE
        # HYBRID: a page is critical if it overlaps any I-frame range
        end = offset + length
        for c_start, c_end in critical_ranges:
            if offset < c_end and c_start < end:
                return Placement.SYS
        return Placement.SPARE
