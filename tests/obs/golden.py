"""The golden-trace scenario shared by the regression test and its
regenerator.

Regenerate the snapshot after an *intentional* behavior change with::

    PYTHONPATH=src:tests/obs python -m golden

(or simply run this file with the repo's ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

from pathlib import Path

from repro.faults import FaultConfig, FaultPlan
from repro.obs import observed, write_trace_jsonl
from repro.sim.baselines import build_sos
from repro.sim.engine import run_lifetime
from repro.workloads.mobile import MobileWorkload, WorkloadConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace.jsonl"

#: One simulated year of the heavy mix on a 32 GB SOS device with a
#: realistic fault population: exercises every epoch-model event kind
#: (retirement, resuscitation, scrub refresh, torn program, transient
#: read, cloud outage).
DAYS = 365
WORKLOAD_SEED = 13
FAULT_SEED = 13
FAULTS = FaultConfig(
    block_infant_mortality=0.08,
    transient_read_rate=0.3,
    power_loss_rate=0.1,
    cloud_outage_rate=0.03,
    cloud_outage_days=4,
)


def run_golden_scenario() -> list[dict]:
    """Run the fixed-seed scenario and return its event list."""
    volumes = MobileWorkload(
        WorkloadConfig(mix="heavy", days=DAYS, seed=WORKLOAD_SEED)
    ).daily_volume_arrays()
    build = build_sos(32.0)
    targets = {
        name: partition.spec.n_groups
        for name, partition in build.device.partitions.items()
    }
    plan = FaultPlan.generate(
        FAULTS, seed=FAULT_SEED, horizon_days=DAYS, targets=targets
    )
    with observed() as obs:
        run_lifetime(build, volumes, fault_plan=plan)
    return obs.events


if __name__ == "__main__":
    events = run_golden_scenario()
    count = write_trace_jsonl(GOLDEN_PATH, events)
    print(f"wrote {count} events to {GOLDEN_PATH}")
