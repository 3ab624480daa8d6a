"""Replay outcomes pinned to recorded literals.

The analytic-vs-bit-exact suite (``test_ftl_equivalence.py``) compares
two fidelities that share the GC victim choice, the candidate set, the
page map and the timing book-keeping, so a change to that shared code
moves both sides together and passes there.  These goldens pin what one
replay returns -- every ``FtlStats`` field, float time counters
included, compared with ``==`` -- for one device per user mix, so any
change to GC victims, wear, mapping or the counters shows here.

The literals are recorded values, not derived ones: a change that means
to move replay outcomes re-records them and says why; any other change
must leave them passing as they are.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.ftl.replay import FtlReplayConfig, replay

#: (mix, days, seed) -> (FtlStats fields, (mean_wear, max_wear, host_ops,
#: retired_blocks))
GOLDEN = {
    ("light", 90, 1000): (
        {"host_writes": 6996, "host_reads": 12122, "gc_migrations": 5665,
         "gc_erases": 323, "wl_migrations": 0, "blocks_retired": 0,
         "blocks_resuscitated": 0, "corrected_bits": 0,
         "uncorrectable_codewords": 0, "parity_recoveries": 0,
         "read_time_us": 1067220.0, "program_time_us": 15193200.0,
         "erase_time_us": 1130500.0},
        (0.001121527777777778, 0.002, 20352, 0),
    ),
    ("typical", 90, 1001): (
        {"host_writes": 11628, "host_reads": 19905, "gc_migrations": 9420,
         "gc_erases": 607, "wl_migrations": 0, "blocks_retired": 0,
         "blocks_resuscitated": 0, "corrected_bits": 0,
         "uncorrectable_codewords": 0, "parity_recoveries": 0,
         "read_time_us": 1759500.0, "program_time_us": 25257600.0,
         "erase_time_us": 2124500.0},
        (0.002107638888888889, 0.0033333333333333335, 34038, 0),
    ),
    ("heavy", 90, 1002): (
        {"host_writes": 22902, "host_reads": 36893, "gc_migrations": 18870,
         "gc_erases": 1313, "wl_migrations": 0, "blocks_retired": 0,
         "blocks_resuscitated": 0, "corrected_bits": 0,
         "uncorrectable_codewords": 0, "parity_recoveries": 0,
         "read_time_us": 3345780.0, "program_time_us": 50126400.0,
         "erase_time_us": 4595500.0},
        (0.004559027777777777, 0.005666666666666667, 65138, 0),
    ),
    ("adversarial", 10, 1003): (
        {"host_writes": 19871, "host_reads": 7256, "gc_migrations": 43301,
         "gc_erases": 1956, "wl_migrations": 0, "blocks_retired": 0,
         "blocks_resuscitated": 0, "corrected_bits": 0,
         "uncorrectable_codewords": 0, "parity_recoveries": 0,
         "read_time_us": 3033420.0, "program_time_us": 75806400.0,
         "erase_time_us": 6846000.0},
        (0.006791666666666667, 0.008666666666666666, 27861, 0),
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: c[0])
def test_replay_matches_golden(case):
    mix, days, seed = case
    stats, (mean_wear, max_wear, host_ops, retired) = GOLDEN[case]
    result = replay(FtlReplayConfig(mix=mix, days=days, seed=seed))
    assert dataclasses.asdict(result.stats) == stats
    assert result.mean_wear == mean_wear
    assert result.max_wear == max_wear
    assert result.host_ops == host_ops
    assert result.retired_blocks == retired
