"""Host block layer: logical-page I/O with per-write placement hints.

Figure 2's middle box.  §4.3 sends classification "for each stored data
block ... using LBA hints": here the hint rides on the write itself
(``write_page(..., placement=)``), and the FTL's page map is the only
record of where a page lives.  A write without a hint rewrites the page
in the partition that holds it, and a page the map does not hold is
new data, which lands on SYS (§4.4: "new file data will first be
written to high-endurance pseudo-QLC memory").  Re-placement decisions
made later by the classifier daemon go through :meth:`relocate`.
"""

from __future__ import annotations

from repro.ftl.ftl import Ftl

from .files import FileRecord
from .hints import Placement

__all__ = ["BlockLayer"]


class BlockLayer:
    """Logical-page I/O between the file system and the FTL.

    Parameters
    ----------
    ftl:
        Device FTL with one stream per :class:`Placement`, named by its
        value (``"sys"`` and ``"spare"``).
    """

    def __init__(self, ftl: Ftl) -> None:
        self.ftl = ftl
        # the device-visible logical page size is the smaller of the two
        # partitions' payload capacities so data can move freely between them
        self.page_bytes = min(ftl.logical_page_bytes(p.value) for p in Placement)

    def placement_of(self, lpn: int) -> Placement:
        """The partition holding an LPN (an unmapped LPN counts as SYS)."""
        return Placement(self.ftl.stream_of(lpn) or Placement.SYS.value)

    # -- I/O --------------------------------------------------------------------

    def write_page(
        self,
        lpn: int,
        payload: bytes,
        file: FileRecord | None = None,
        placement: Placement | None = None,
    ) -> None:
        """Write a page into ``placement``'s partition; without a hint,
        where the page lives now (SYS for a new page)."""
        stream = self.ftl.stream_of(lpn) if placement is None else placement.value
        self.ftl.write(lpn, payload, stream or Placement.SYS.value)

    def read_page(self, lpn: int) -> bytes:
        """Read a page's decoded payload (may carry residual errors)."""
        return self.ftl.read(lpn).payload

    def trim_page(self, lpn: int) -> None:
        """Host discard of a page."""
        self.ftl.trim(lpn)

    def relocate(self, lpn: int, placement: Placement) -> None:
        """Move a written LPN to the partition implementing ``placement``.

        No-op when it is already there or unmapped (nothing to move).
        The relocation reads through the current partition's ECC and
        re-encodes with the target's, so a SPARE->SYS rescue also
        refreshes/strengthens protection.
        """
        current = self.ftl.stream_of(lpn)
        if current is not None and current != placement.value:
            self.ftl.relocate(lpn, placement.value)

    # -- capacity -----------------------------------------------------------------

    def capacity_pages(self) -> int:
        """Current total capacity in logical pages (capacity variance)."""
        return sum(self.ftl.stream_capacity_pages(p.value) for p in Placement)
