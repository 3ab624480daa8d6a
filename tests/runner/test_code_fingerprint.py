"""A cached result never outlives the code that produced it.

Every sweep point key (and so every fleet shard key) carries
:func:`repro.runner.cache.code_fingerprint`, a hash of the running
``repro`` source.  These tests run a sweep and a fleet from a copy of
the package in a subprocess, edit one constant of the copy, and check
that nothing cached under the old source is served; reverting the edit
makes every entry hit again.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: run from the copy: a 2-point lifetime sweep and a 2-shard fleet into
#: one cache directory (argv[1]); prints what the test compares
SCRIPT = """
import json, sys
import repro
from repro.fleet import FleetPlan, run_fleet
from repro.runner import Sweep, run_sweep
from repro.runner.points import lifetime_point

cache = sys.argv[1]
sweep = Sweep(name="fingerprint", fn=lifetime_point, base_seed=7, grid=tuple(
    {"build": "tlc_baseline", "capacity_gb": 64.0, "mix": mix, "days": 120}
    for mix in ("typical", "heavy")
))
points = run_sweep(sweep, cache_dir=cache)
fleet = run_fleet(FleetPlan(n_devices=20, days=60, capacity_gb=64.0, seed=7,
                            shard_size=10, chunk=10), cache_dir=cache)
print(json.dumps({
    "file": repro.__file__,
    "points_cached": points.cached_count,
    "point_wear": [p.value.final.sys_wear_fraction for p in points.points],
    "shards_cached": fleet.sweep.cached_count,
    "fleet_wear": fleet.wear_values(),
    "code": fleet.summary()["code"],
}))
"""

#: the edit: a constant every epoch-engine wear number scales with
KNOB = "WL_WRITE_OVERHEAD = 0.10"
EDITED = "WL_WRITE_OVERHEAD = 0.50"


@pytest.fixture
def source_copy(tmp_path) -> Path:
    """A copy of the imported ``repro`` package; returns its sys.path root."""
    root = tmp_path / "src"
    shutil.copytree(
        Path(repro.__file__).parent, root / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root


def _run(root: Path, cache: Path) -> dict:
    # no bytecode: an edit that keeps the file's size and mtime second
    # would otherwise load the stale .pyc
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(cache)],
        env=env, capture_output=True, text=True, check=True, timeout=100,
    )
    return json.loads(out.stdout)


def test_source_edit_invalidates_every_point_and_shard(source_copy, tmp_path):
    cache = tmp_path / "cache"
    lifetime = source_copy / "repro" / "sim" / "lifetime.py"
    original = lifetime.read_text()
    assert original.count(KNOB) == 1

    cold = _run(source_copy, cache)
    assert Path(cold["file"]).parent == source_copy / "repro"
    assert cold["points_cached"] == 0 and cold["shards_cached"] == 0

    lifetime.write_text(original.replace(KNOB, EDITED))
    edited = _run(source_copy, cache)
    assert edited["code"] != cold["code"]
    assert edited["points_cached"] == 0  # every point computed again...
    assert edited["shards_cached"] == 0  # ...and every shard
    for column in ("point_wear", "fleet_wear"):
        assert all(new > old for new, old in zip(edited[column], cold[column]))

    lifetime.write_text(original)
    restored = _run(source_copy, cache)
    assert restored["code"] == cold["code"]
    assert restored["points_cached"] == 2
    assert restored["shards_cached"] == 2
    assert restored["point_wear"] == cold["point_wear"]
    assert restored["fleet_wear"] == cold["fleet_wear"]


def test_fingerprint_is_not_computed_at_import():
    code = "; ".join([
        "import repro.fleet, repro.serve, repro.cli",
        "from repro.runner.cache import code_fingerprint",
        "print(code_fingerprint.cache_info().misses)",
    ])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "0"


@pytest.fixture
def fresh_fingerprint():
    """Leave no fingerprint of a faked dependency cached for later tests."""
    from repro.runner.cache import code_fingerprint

    yield
    code_fingerprint.cache_clear()


def _scipy_elsewhere(monkeypatch, tmp_path):
    """Point the scipy lookup at a copy whose ``version.py`` differs."""
    import importlib.util

    find_spec = importlib.util.find_spec
    fake = tmp_path / "scipy"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    (fake / "version.py").write_text('version = "0.0.0"\n')
    spec = importlib.util.spec_from_file_location("scipy", fake / "__init__.py")
    monkeypatch.setattr(
        importlib.util, "find_spec",
        lambda name, *a: spec if name == "scipy" else find_spec(name, *a),
    )


@pytest.mark.parametrize("dependency", ["numpy", "python", "scipy"])
def test_dependency_version_moves_every_key(
    dependency, monkeypatch, tmp_path, fresh_fingerprint
):
    """A numpy, Python or scipy upgrade is other code: the fingerprint,
    every point key and every job id move with it."""
    import numpy

    from repro.runner import Sweep, code_fingerprint
    from repro.runner.points import lifetime_point
    from repro.serve import JobSpec

    sweep = Sweep(name="deps", fn=lifetime_point, base_seed=7,
                  grid=({"build": "tlc_baseline", "days": 10},))
    spec = JobSpec.from_wire({"client": "c", "kind": "population",
                              "params": {"devices": 4, "days": 10}})

    def keys():
        code_fingerprint.cache_clear()
        return code_fingerprint(), sweep.point_key(0, 7), spec.job_id()

    before = keys()
    if dependency == "numpy":
        monkeypatch.setattr(numpy, "__version__", numpy.__version__ + "+other")
    elif dependency == "python":
        monkeypatch.setattr("sys.version", "3.99.0 (other build)")
    else:
        _scipy_elsewhere(monkeypatch, tmp_path)
    after = keys()
    assert all(new != old for new, old in zip(after, before))
    monkeypatch.undo()
    assert keys() == before
