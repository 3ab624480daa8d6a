"""Single-device lifetime runs: the epoch engine's one-device case.

:func:`run_lifetime` drives one device build through a workload's daily
volume arrays (E3, E11 and the A1/A2/A9 ablations) by running it as a
batch of one through :func:`repro.sim.batch.run_lifetime_batch`, the
only epoch stepping code; write routing, fault plans and deletion are
documented there.  The batch returns its end state as arrays; this is
the one place a row of them becomes a :class:`LifetimeResult`, so a
single-device result matches the population runs device for device.
Trace events carry ``device: 0``.

The scalar per-device engine this replaced is the test oracle in
``tests/sim/lifetime_oracle.py``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.faults.plan import FaultPlan

from .baselines import DeviceBuild
from .batch import SummaryBatch, run_lifetime_batch
from .lifetime import DaySample, LifetimeResult

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
    end = run_lifetime_batch([build], batch, [fault_plan])
    return LifetimeResult(
        build_name=build.name,
        capacity_gb=build.capacity_gb,
        intensity_kg_per_gb=build.intensity_kg_per_gb,
        final=DaySample(
            day=end.day,
            years=end.years,
            capacity_gb=float(end.capacity_gb[0]),
            sys_wear_fraction=float(end.sys_wear_fraction[0]),
            spare_wear_fraction=float(end.spare_wear_fraction[0]),
            spare_quality=float(end.spare_quality[0]),
            sys_uncorrectable=float(end.sys_uncorrectable[0]),
            retired_groups=int(end.retired_groups[0]),
            resuscitated_groups=int(end.resuscitated_groups[0]),
        ),
        faults=end.faults[0],
    )
