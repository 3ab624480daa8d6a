"""A multi-user workload forms every user's volumes bit for bit.

``MobileWorkload(config, seeds=...)`` holds every user of one mix, and
one :meth:`~repro.workloads.mobile.MobileWorkload.daily_volume_arrays`
call forms all their volumes, a tile of users at a time.  Row ``i`` must
be the one-user workload seeded ``seeds[i]`` -- the one the scalar
oracle in ``test_workloads.py`` pins -- for every mix, at tile edges,
and it must leave each user's generator where the one-user draw does.
Forming many users costs one tile's scratch beyond the output.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.workloads.apps import USER_MIXES
from repro.workloads.mobile import _TILE_USERS, MobileWorkload, WorkloadConfig

VOLUME_FIELDS = ("new_media_gb", "new_other_gb", "overwrite_gb", "read_gb", "delete_gb")
USER_COUNTS = (1, _TILE_USERS - 1, _TILE_USERS, _TILE_USERS + 1, 3 * _TILE_USERS + 5)


@pytest.mark.parametrize("days", [1, 2, 90, 365])
@pytest.mark.parametrize("mix", USER_MIXES)
def test_rows_are_the_one_user_workloads(mix, days):
    for users in USER_COUNTS:
        seeds = [7 * user + days for user in range(users)]
        workload = MobileWorkload(WorkloadConfig(mix=mix, days=days), seeds=seeds)
        block = workload.daily_volume_arrays()
        assert block["day"].tolist() == list(range(days))
        for row, seed in enumerate(seeds):
            one = MobileWorkload(WorkloadConfig(mix=mix, days=days, seed=seed))
            volumes = one.daily_volume_arrays()
            for name in VOLUME_FIELDS:
                assert block[name].shape == (users, days), name
                assert block[name][row].tobytes() == volumes[name].tobytes(), \
                    (users, row, name)
            assert workload._rngs[row].bit_generator.state == \
                one._rng.bit_generator.state


def test_a_one_user_workload_keeps_its_one_dimensional_rows():
    config = WorkloadConfig(mix="heavy", days=12, seed=4)
    single = MobileWorkload(config).daily_volume_arrays()
    block = MobileWorkload(config, seeds=[4]).daily_volume_arrays()
    for name in VOLUME_FIELDS:
        assert single[name].shape == (12,)
        assert block[name].shape == (1, 12)
        assert single[name].tobytes() == block[name].tobytes()


def test_ops_refuses_a_multi_user_workload():
    with pytest.raises(ValueError, match="one user"):
        MobileWorkload(WorkloadConfig(days=5), seeds=[1, 2]).ops()


def test_a_workload_needs_a_user():
    with pytest.raises(ValueError, match="at least one"):
        MobileWorkload(WorkloadConfig(days=5), seeds=[])


def test_a_thousand_users_peak_at_one_tiles_scratch_beyond_the_output():
    config = WorkloadConfig(mix="adversarial", days=90)
    apps = len(USER_MIXES[config.mix])
    workload = MobileWorkload(config, seeds=range(1000))
    tracemalloc.start()
    try:
        volumes = workload.daily_volume_arrays()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = sum(array.nbytes for array in volumes.values())
    itemsize = np.dtype(float).itemsize
    assert output == (5 * 1000 + 1) * config.days * itemsize
    # one tile's scratch: its jitter, app terms and sums, one user's
    # draw, and numpy's iterator buffers (~50 KB, 256 KiB allowed); all
    # 1000 users' terms at once would be ~39 MB
    scratch = (6 * apps + 4) * _TILE_USERS * config.days * itemsize
    draw = 2 * apps * config.days * itemsize
    assert peak < output + scratch + draw + 256 * 1024
