#!/usr/bin/env python
"""Quickstart: build an SOS device, store files, watch them get classified.

Walks the Figure 2 pipeline end to end in under a minute:

1. build a PLC device split into SYS (pseudo-QLC, strong ECC) and SPARE
   (native PLC, no ECC, no wear leveling);
2. create a mix of files -- OS data, a treasured family video, a pile of
   screenshots;
3. run the classifier daemon and see where everything landed;
4. report the embodied-carbon win over a TLC device of equal capacity.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.carbon.embodied import intensity_kg_per_gb
from repro.core import SOSDevice, default_config
from repro.core.config import SPARE_MODE, SYS_MODE, TECHNOLOGY
from repro.flash.cell import CellTechnology
from repro.flash.geometry import Geometry
from repro.host.files import FileAttributes, FileKind
from repro.host.hints import Placement


def main() -> None:
    geometry = Geometry(page_size_bytes=512, pages_per_block=16,
                        blocks_per_plane=48, planes_per_die=2, dies=1)
    device = SOSDevice(default_config(seed=1, geometry=geometry))
    rng = np.random.default_rng(0)

    print("== 1. device ==")
    print(f"technology: {TECHNOLOGY.name}, SYS mode {SYS_MODE.name}, "
          f"SPARE mode {SPARE_MODE.name}")
    print(f"capacity: {device.filesystem.capacity_pages()} logical pages "
          f"({device.block_layer.page_bytes} B payload each)")

    print("\n== 2. files ==")
    device.create_file("/system/framework.jar", FileKind.OS_SYSTEM, 8000,
                       content=lambda o: rng.bytes(400))
    device.create_file(
        "/DCIM/wedding.mp4", FileKind.VIDEO, 12000,
        attributes=FileAttributes(user_favorite=True, has_known_faces=True,
                                  access_count=90, cloud_backed=True),
        content=lambda o: rng.bytes(400),
    )
    for i in range(8):
        device.create_file(
            f"/DCIM/screenshot_{i}.png", FileKind.PHOTO, 3000,
            attributes=FileAttributes(is_screenshot=True, duplicate_count=3,
                                      access_count=1),
            content=lambda o: rng.bytes(400),
        )
    print("created 1 system file, 1 favorite video, 8 screenshots "
          "(all land on SYS first, per §4.4)")

    print("\n== 3. daemon ==")
    device.advance_time(30 / 365)  # a month passes
    run = device.run_daemon()
    print(f"daemon reviewed {run.files_reviewed} files, moved {run.files_moved}")
    for record in device.filesystem.live_files():
        placement = device.placement.placement_of(record)
        marker = "SPARE (degradable)" if placement is Placement.SPARE else "SYS  (protected) "
        print(f"  {marker}  {record.path}")

    print("\n== 4. carbon ==")
    carbon = device.embodied_carbon()
    tlc = intensity_kg_per_gb(CellTechnology.TLC)
    print(f"SOS embodied intensity: {carbon.intensity_kg_per_gb:.3f} kg CO2e/GB")
    print(f"TLC baseline:           {tlc:.3f} kg CO2e/GB")
    print(f"reduction:              {(1 - carbon.intensity_kg_per_gb / tlc) * 100:.1f}%")


if __name__ == "__main__":
    main()
