"""Population chunk columns pinned bit for bit.

:func:`~repro.fleet.points.population_batch_observables` is what every
fleet shard stores, and the E16 goldens read its ``wear`` column.  The
oracle tests compare a chunk whose groups retire or change mode only
within ~1e-12 (masked reductions group additions differently than the
oracle's compacted ones), so they would not notice an engine change
that moved the last bit of such a lane.  These pins do: each build's
chunk, with and without a fault plan, must hash to the same SHA-256
over its six columns (dtype, shape and bytes, in column order).

The chunks are small but not gentle: four user mixes on small devices
over a year, so devices end with no, some (0 < retired < 20) or all
groups retired, and the SOS build resuscitates SPARE groups.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.fleet.points import population_batch_observables

COLUMNS = ("wear", "spare_wear", "capacity_gb", "spare_quality",
           "retired_groups", "resuscitated_groups")
MIXES = ("light", "typical", "heavy", "adversarial")
N_DEVICES = 16
DAYS = 365
#: small devices, so a year of writes retires groups
CAPACITY_GB = {"tlc_baseline": 4.0, "qlc_baseline": 8.0, "plc_naive": 8.0,
               "sos": 8.0}
FAULTS = {"block_infant_mortality": 0.1, "power_loss_rate": 0.1,
          "cloud_outage_rate": 0.05}

#: SHA-256 of each chunk's columns, keyed by (build, with faults)
PINS = {
    ("tlc_baseline", False):
        "d554505434e2b092e67577e61768e3552809ac48fb5505343e4c3a6f32d0148b",
    ("tlc_baseline", True):
        "57b6313ddfd469c8d20cbe3c9b40d01e353664f2258320db5a904bdf13ba1afe",
    ("qlc_baseline", False):
        "cacb3b23b24b6eb10e9f51cdb5df36d1e362526586517ef9e162019b7c099632",
    ("qlc_baseline", True):
        "115c137ff209df7cc73409995969400dd0898f40965bfa0b2fb61a467653d9e0",
    ("plc_naive", False):
        "80ffc07111cad5b327e1be22fa87042a560bc2236d7d2510d88290ebba1285e2",
    ("plc_naive", True):
        "90d08f074adf5637b79b4682a941771cd9d5256a381f12356d61ced164902392",
    ("sos", False):
        "e0a7bafa10dd58064a4c8da545b6eac7a7d3d2a85d6afea67db0d578061a391f",
    ("sos", True):
        "fe9bccaf374d4d90e12c908553ff50265efebd747b7a90c94169fc20356a90c6",
}


def _columns(build: str, faults: bool) -> dict:
    params = {
        "mixes": [MIXES[i % len(MIXES)] for i in range(N_DEVICES)],
        "workload_seeds": list(range(100, 100 + N_DEVICES)),
        "capacity_gb": CAPACITY_GB[build],
        "days": DAYS,
        "build": build,
    }
    if faults:
        params["faults"] = FAULTS
    return population_batch_observables(params)


def _digest(columns: dict) -> str:
    sha = hashlib.sha256()
    for name in COLUMNS:
        array = np.ascontiguousarray(columns[name])
        sha.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def chunks() -> dict:
    return {key: _columns(*key) for key in PINS}


@pytest.mark.parametrize("key", list(PINS), ids=[
    f"{build}-{'faults' if faults else 'clean'}" for build, faults in PINS
])
def test_chunk_columns_are_pinned(chunks, key):
    assert _digest(chunks[key]) == PINS[key]


def test_chunks_reach_the_masked_lanes(chunks):
    """The pins cover partly retired devices and resuscitated groups."""
    retired = np.concatenate([c["retired_groups"] for c in chunks.values()])
    resuscitated = np.concatenate(
        [c["resuscitated_groups"] for c in chunks.values()]
    )
    assert ((retired > 0) & (retired < 20)).any()
    assert (retired == 20).any() and (retired == 0).any()
    assert (resuscitated > 0).any() and (resuscitated == 0).any()
    for (build, faults), columns in chunks.items():
        if faults:
            partial = columns["retired_groups"]
            assert ((partial > 0) & (partial < 20)).any(), build
    sos = chunks[("sos", True)]["resuscitated_groups"]
    assert ((sos > 0) & (sos < 20)).any()
