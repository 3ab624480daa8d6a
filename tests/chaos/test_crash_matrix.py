"""The crash matrix, end to end: kill at every label, resume identically.

The fast test keeps one full target (the journal -- no worker pool, a
handful of subprocess runs) in the tier-1 loop; the complete matrix is
the ``slow``-marked acceptance test the CI chaos step runs.  It kills
the sweep and the fleet twice: over a 2-worker pool (``sweep``,
``fleet``) and in-process at ``jobs=1`` (``sweep-inproc``,
``fleet-inproc``), the path the benchmarks and the claim suite take.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    CRASH_POINTS,
    MATRIX_TARGETS,
    MatrixReport,
    MatrixRow,
    run_crash_matrix,
    run_target,
)
from repro.chaos.driver import canonical


class TestRegistryCoverage:
    def test_every_crash_point_is_covered_by_some_target(self):
        """A label no target reaches is a hole in the durability claim."""
        covered = {label for labels in MATRIX_TARGETS.values() for label in labels}
        assert covered == set(CRASH_POINTS)

    def test_unknown_target_is_rejected(self):
        with pytest.raises(ValueError, match="unknown matrix target"):
            run_crash_matrix(["sweeep"])


class TestTargets:
    def test_targets_are_deterministic_in_process(self, tmp_path):
        """Each target's canonical output is identical across fresh and
        re-run state dirs -- the precondition for the stdout comparison
        the matrix rests on."""
        for name in sorted(MATRIX_TARGETS):
            fresh = canonical(run_target(name, tmp_path / name))
            rerun = canonical(run_target(name, tmp_path / name))
            other = canonical(run_target(name, tmp_path / f"{name}-b"))
            assert fresh == rerun == other, name


class TestMatrix:
    def test_journal_target_survives_every_label(self, tmp_path):
        """Fast cell for the tier-1 loop: the journal walks both
        ``journal.save.*`` labels with no worker pool involved."""
        report = run_crash_matrix(["journal"], base_dir=tmp_path)
        assert isinstance(report, MatrixReport)
        assert [row.label for row in report.rows] == list(MATRIX_TARGETS["journal"])
        for row in report.rows:
            assert row.ok, f"{row.target}/{row.label}: {row.detail}"

    @pytest.mark.slow
    def test_full_matrix_resumes_bit_identically(self, tmp_path):
        """The acceptance criterion: every (target, label) cell crashes
        at its point and resumes to byte-identical output."""
        rows_seen: list[MatrixRow] = []
        report = run_crash_matrix(base_dir=tmp_path, on_row=rows_seen.append)
        assert rows_seen == report.rows
        expected = sum(len(labels) for labels in MATRIX_TARGETS.values())
        assert len(report.rows) == expected
        failures = [r for r in report.rows if not r.ok]
        assert report.ok, "\n".join(
            f"{r.target}/{r.label}: {r.detail}" for r in failures
        )
