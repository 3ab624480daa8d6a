"""Numeric warnings are errors for every test in ``tests/ecc``.

A ``RuntimeWarning`` from the codecs or the binomial model (an invalid
value, an overflow, a division by zero) fails the test that raised it
instead of being logged.
"""

from __future__ import annotations

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # the hook sees every collected item; mark only this directory's
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
