"""Runner scaling smoke: serial vs parallel sweep wall time.

Runs a small A6-style sensitivity grid (one batched point per PLC-PEC
row) through ``run_sweep`` once serially and once with ``jobs=2``,
checks the two executions return bit-identical points (the runner's
core guarantee), and prints both wall times.  It writes no file:
``scripts/regen_bench.py`` records the same serial/``jobs=2`` pair in
``BENCH_runner.json``.

Skipped on single-core boxes: there is no speedup to measure and the
fork/pickle overhead dominates.  The determinism half of the guarantee
is still covered everywhere by ``tests/runner/test_sweep.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.runner import Sweep, run_sweep
from repro.runner.points import sensitivity_batch_point

from .common import run_once

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="runner scaling needs >=2 CPUs; determinism is tested elsewhere",
)

GRID = tuple(
    {"plc_pec": plc_pec, "wafs": [1.5, 3.5], "capacity_gb": 64.0,
     "mix": "typical", "days": 365, "workload_seed": 111}
    for plc_pec in (300, 700)
)


def _sweep():
    return Sweep(name="runner-scaling", fn=sensitivity_batch_point, grid=GRID,
                 base_seed=111)


def compute():
    serial = run_sweep(_sweep(), jobs=1)
    parallel = run_sweep(_sweep(), jobs=2)
    return serial, parallel


def test_bench_runner_scaling(benchmark):
    serial, parallel = run_once(benchmark, compute)
    assert serial.values() == parallel.values(), (
        "parallel sweep diverged from serial"
    )
    speedup = serial.total_wall_s / max(parallel.total_wall_s, 1e-9)
    print(f"\nserial {serial.total_wall_s:.2f}s vs jobs=2 "
          f"{parallel.total_wall_s:.2f}s ({speedup:.2f}x)")
