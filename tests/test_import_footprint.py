"""What importing the program loads.

``scipy.stats`` is most of a fresh interpreter's import time and resident
memory, yet only the binomial ECC model (``repro.ecc.model``) uses it, and
it imports it on first use.  This pins that none of the program's entry
points loads scipy at import.
"""

from __future__ import annotations

import subprocess
import sys

ENTRY_POINTS = (
    "repro.fleet",
    "repro.core.sos_device",
    "repro.ecc",
    "repro.runner.cache",
    "repro.store",
)


def test_entry_points_import_without_scipy():
    code = "; ".join([
        "import sys",
        *(f"import {module}" for module in ENTRY_POINTS),
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
    ])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
