"""Single-device lifetime runs: the epoch engine's one-device case.

:func:`run_lifetime` drives one device build through a workload's daily
volume arrays (E3, E11 and the A1/A2/A9 ablations) by running it as a
batch of one through :func:`repro.sim.batch.run_lifetime_batch`, the
only epoch stepping code; write routing, fault plans and deletion are
documented there.  It returns the device's end state, matching the
population runs device for device, and trace events carry
``device: 0``.

The scalar per-device engine this replaced is the test oracle in
``tests/sim/lifetime_oracle.py``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.faults.plan import FaultPlan

from .baselines import DeviceBuild
from .batch import SummaryBatch, run_lifetime_batch
from .lifetime import LifetimeResult

__all__ = ["run_lifetime"]


def run_lifetime(
    build: DeviceBuild,
    volumes: Mapping[str, np.ndarray],
    fault_plan: FaultPlan | None = None,
) -> LifetimeResult:
    """Run a device build through daily volumes; return its end state.

    ``volumes`` is the mapping
    :meth:`~repro.workloads.mobile.MobileWorkload.daily_volume_arrays`
    returns (any slice of it, too).  The build's device is updated in
    place with its final state.
    """
    batch = SummaryBatch.from_volume_arrays([volumes])
    return run_lifetime_batch([build], batch, [fault_plan])[0]
