"""Reference implementation the host block layer is pinned to.

:class:`repro.host.block_layer.BlockLayer` keeps no placement record:
``placement_of`` reads the FTL's page map, a write names its partition
(``write_page(..., placement=)``) or rewrites the page where it lives,
and ``relocate`` moves only mapped pages.  The layer it replaced kept a
"sticky" per-LPN placement dict beside the page map, set before a write
by ``relocate`` and dropped by ``trim_page``; it lives here, unchanged
apart from its name, as the reference.  On any op sequence that raises
no ``OutOfSpaceError`` the two agree page for page, with the new
layer's ``write_page(lpn, payload, placement=p)`` to an unmapped LPN
standing for the old ``relocate(lpn, p)`` then ``write_page(lpn,
payload)``.

Tests import this module as ``from host_oracles import ...``.
"""

from __future__ import annotations

from repro.ftl.ftl import Ftl
from repro.host.files import FileRecord
from repro.host.hints import Placement

__all__ = ["StickyBlockLayer"]


class StickyBlockLayer:
    """Logical-page I/O between the file system and the FTL.

    Parameters
    ----------
    ftl:
        Device FTL with (at least) ``sys_stream`` and ``spare_stream``.
    sys_stream, spare_stream:
        Stream names for the two partitions.
    """

    def __init__(self, ftl: Ftl, sys_stream: str = "sys", spare_stream: str = "spare") -> None:
        self.ftl = ftl
        self.sys_stream = sys_stream
        self.spare_stream = spare_stream
        #: sticky placement decisions by LPN (set by the daemon)
        self._placement: dict[int, Placement] = {}
        # the device-visible logical page size is the smaller of the two
        # partitions' payload capacities so data can move freely between them
        self.page_bytes = min(
            ftl.logical_page_bytes(sys_stream), ftl.logical_page_bytes(spare_stream)
        )

    # -- placement -----------------------------------------------------------

    def placement_of(self, lpn: int) -> Placement:
        """Current placement decision for an LPN (default SYS)."""
        return self._placement.get(lpn, Placement.SYS)

    def stream_for(self, placement: Placement) -> str:
        """Stream name implementing a placement."""
        return self.sys_stream if placement is Placement.SYS else self.spare_stream

    # -- I/O --------------------------------------------------------------------

    def write_page(self, lpn: int, payload: bytes, file: FileRecord | None = None) -> None:
        """Write a page, honouring its sticky placement (default SYS)."""
        placement = self.placement_of(lpn)
        self.ftl.write(lpn, payload, self.stream_for(placement))

    def read_page(self, lpn: int) -> bytes:
        """Read a page's decoded payload (may carry residual errors)."""
        return self.ftl.read(lpn).payload

    def read_page_audited(self, lpn: int):
        """Read with full ECC audit info (for the scrubber)."""
        return self.ftl.read(lpn)

    def trim_page(self, lpn: int) -> None:
        """Host discard of a page."""
        self._placement.pop(lpn, None)
        self.ftl.trim(lpn)

    def relocate(self, lpn: int, placement: Placement) -> None:
        """Move an LPN to the partition implementing ``placement``.

        No-op when already there.  The relocation reads through the
        current partition's ECC and re-encodes with the target's, so a
        SPARE->SYS rescue also refreshes/strengthens protection.
        """
        if self.placement_of(lpn) is placement:
            return
        self._placement[lpn] = placement
        if self.ftl.page_map.is_mapped(lpn):
            self.ftl.relocate(lpn, self.stream_for(placement))

    # -- capacity -----------------------------------------------------------------

    def capacity_pages(self) -> int:
        """Current total capacity in logical pages (capacity variance)."""
        return self.ftl.stream_capacity_pages(self.sys_stream) + self.ftl.stream_capacity_pages(
            self.spare_stream
        )
