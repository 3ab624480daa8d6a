"""The replay's retention clock runs on the repo's one length of year.

The epoch engine steps ``1 / DAYS_PER_YEAR`` years a day; a replayed
day must move the chip clock by the same amount, so both fidelities
age data alike.
"""

from __future__ import annotations

from repro.flash.chip import DAYS_PER_YEAR
from repro.ftl import replay as replay_module
from repro.ftl.replay import FtlReplayConfig, replay


def test_replayed_days_read_days_over_365_on_the_chip_clock(monkeypatch):
    built = []
    build = replay_module.build_replay_ftl

    def recording_build(config):
        built.append(build(config))
        return built[-1]

    monkeypatch.setattr(replay_module, "build_replay_ftl", recording_build)
    days = 30
    replay(FtlReplayConfig(mix="light", days=days, seed=1))
    assert DAYS_PER_YEAR == 365
    assert built[0].chip.now_years == days / 365
