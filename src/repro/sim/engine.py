"""Single-device lifetime runs: the epoch engine's one-device case.

:func:`run_lifetime` drives one device build through a daily workload
(E3, E11 and the A1/A2/A9 ablations) by running it as a batch of one
through :func:`repro.sim.batch.run_lifetime_batch`, the only epoch
stepping code; write routing, fault plans, deletion and sampling are
documented there.  Results match the population runs device for device,
and trace events carry ``device: 0``.

The scalar per-device engine this replaced is the test oracle in
``tests/sim/lifetime_oracle.py``.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan
from repro.workloads.traces import DailySummary

from .baselines import DeviceBuild
from .batch import run_lifetime_batch
from .lifetime import LifetimeResult, SimConfig

__all__ = ["run_lifetime"]


def run_lifetime(
    build: DeviceBuild,
    summaries: list[DailySummary],
    config: SimConfig | None = None,
    fault_plan: FaultPlan | None = None,
) -> LifetimeResult:
    """Run a device build through a daily workload, sampling metrics.

    The build's device is updated in place with its final state.
    """
    return run_lifetime_batch([build], [summaries], config, [fault_plan])[0]
