"""An epoch chunk's per-chunk calls do not grow with its devices.

:func:`~repro.fleet.points.population_batch_observables` runs a chunk
as one array program: one builder call for one build of N device rows,
one multi-user volume block per mix, one stack of the volumes, and one
engine pass that stacks the build once and hands each partition's rows
back once.  A 10-device chunk and a 300-device chunk make the same
calls; an edit that brings back per-device builds, workloads or stacks
fails here, not only in a benchmark.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.fleet.points import population_batch_observables
from repro.sim.baselines import ALL_BUILDERS
from repro.sim.batch import BatchLifetimeDevice, BatchPartition, SummaryBatch
from repro.workloads.mobile import MobileWorkload

MIXES = ("light", "typical", "heavy", "adversarial")


def _chunk_calls(n: int, build: str) -> dict[str, int]:
    """The calls one fault-free 30-day chunk of ``n`` devices makes."""
    builder = mock.Mock(wraps=ALL_BUILDERS[build])
    with mock.patch.dict(ALL_BUILDERS, {build: builder}), mock.patch.object(
        BatchLifetimeDevice, "from_devices", wraps=BatchLifetimeDevice.from_devices
    ) as stacks, mock.patch.object(
        BatchPartition, "scatter_to", autospec=True,
        side_effect=BatchPartition.scatter_to,
    ) as scatters, mock.patch.object(
        SummaryBatch, "from_volume_arrays", wraps=SummaryBatch.from_volume_arrays
    ) as summaries, mock.patch.object(
        MobileWorkload, "daily_volume_arrays", autospec=True,
        side_effect=MobileWorkload.daily_volume_arrays,
    ) as volumes:
        columns = population_batch_observables({
            "mixes": [MIXES[d % len(MIXES)] for d in range(n)],
            "workload_seeds": list(range(100, 100 + n)),
            "capacity_gb": 64.0, "days": 30, "build": build,
        })
    assert len(columns["wear"]) == n
    return {
        "builder": builder.call_count,
        "from_devices": stacks.call_count,
        "scatter_to": scatters.call_count,
        "from_volume_arrays": summaries.call_count,
        "daily_volume_arrays": volumes.call_count,
    }


@pytest.mark.parametrize("build, partitions", [("tlc_baseline", 1), ("sos", 2)])
def test_per_chunk_calls_do_not_grow_with_devices(build, partitions):
    expected = {
        "builder": 1,
        "from_devices": 1,
        "scatter_to": partitions,
        "from_volume_arrays": 1,
        "daily_volume_arrays": len(MIXES),
    }
    assert _chunk_calls(10, build) == expected
    assert _chunk_calls(300, build) == expected
