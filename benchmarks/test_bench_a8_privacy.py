"""A8 ablation: less-pervasive tracking vs classification quality.

§4.5 ("Security"): "to optimally manage users data SOS must continuously
track and monitor user behavior and file content (e.g., family photos).
Many users may deem such tracking as too invasive.  We plan to
investigate the effect of less-pervasive tracking ... on the accuracy of
our proposed data management mechanism."

This ablation runs that investigation: the classifier is retrained with
progressively less invasive feature sets --

* ``full``: everything (content inspection + behaviour tracking);
* ``no_content``: drop content-derived signals (face detection,
  sensitivity scanning) -- no looking *inside* files;
* ``no_behavior``: drop behaviour tracking (access/modify history,
  favorites) -- no watching the *user*;
* ``metadata_only``: only kind, size, and age -- what a filesystem
  already knows.

Measured: held-out accuracy, conservative-demotion risk, and the density
win (SPARE share) at each privacy level.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.claims import ClaimCheck, Comparison
from repro.analysis.reporting import format_table
from repro.classify.classifier import DEMOTE_THRESHOLD
from repro.classify.corpus import CorpusConfig, generate_corpus, labelled_matrix, training_split
from repro.classify.features import FEATURE_NAMES
from repro.classify.logistic import LogisticRegression

from .common import report, run_once

NOW = 2.0

#: feature names dropped at each privacy level; "no_content" removes
#: content inspection (§4.5's "file content (e.g., family photos)"),
#: "no_behavior" removes user-behaviour tracking, "metadata_only" both
_PRIVACY_LEVELS = {
    "full": set(),
    "no_content": {"has_known_faces", "sensitivity_score", "is_screenshot",
                   "log_duplicate_count"},
    "no_behavior": {"log_access_count", "log_modify_count", "idle_years",
                    "user_favorite", "shared_from_other", "cloud_backed"},
    "metadata_only": {"has_known_faces", "sensitivity_score", "is_screenshot",
                      "log_duplicate_count", "log_access_count",
                      "log_modify_count", "idle_years", "user_favorite",
                      "shared_from_other", "cloud_backed"},
}


def _evaluate(X_train, y_train, X_test, y_test, system_test, dropped):
    keep = [i for i, name in enumerate(FEATURE_NAMES) if name not in dropped]
    model = LogisticRegression().fit(X_train[:, keep], y_train)
    p = model.predict_proba(X_test[:, keep])
    pred = (p >= 0.5).astype(int)
    accuracy = float(np.mean(pred == y_test))
    demote = (p < DEMOTE_THRESHOLD) & ~system_test
    critical_total = max(1, int(np.sum(y_test == 1)))
    risk = float(np.sum(demote & (y_test == 1)) / critical_total)
    spare_share = float(np.mean(demote))
    return accuracy, risk, spare_share


def compute():
    corpus = generate_corpus(CorpusConfig(n_files=6000), seed=505)
    X_train, y_train, test = training_split(corpus, NOW, 505, "critical")
    X_test, y_test = labelled_matrix(test, NOW, "critical")
    system_test = np.array([f.record.is_system for f in test])
    return {
        level: _evaluate(X_train, y_train, X_test, y_test, system_test, dropped)
        for level, dropped in _PRIVACY_LEVELS.items()
    }


def test_bench_a8_privacy(benchmark):
    results = run_once(benchmark, compute)
    rows = [
        [level, f"{acc:.3f}", f"{risk:.3f}", f"{share:.3f}"]
        for level, (acc, risk, share) in results.items()
    ]
    body = format_table(
        ["tracking level", "accuracy", "critical demoted (risk)",
         "files on SPARE (density)"],
        rows,
        title="Classification quality vs tracking invasiveness",
    )
    full_acc = results["full"][0]
    metadata_acc = results["metadata_only"][0]
    checks = [
        ClaimCheck("a8.full-is-best", "full tracking gives the best accuracy "
                   "(fraction of reduced levels it beats or ties)", 1.0,
                   sum(1 for level, (acc, _, _) in results.items()
                       if level == "full" or acc <= full_acc + 1e-9)
                   / len(results), rel_tol=0.001),
        ClaimCheck("a8.privacy-costs-accuracy", "metadata-only tracking loses "
                   "measurable accuracy vs full", 0.02,
                   full_acc - metadata_acc, Comparison.AT_LEAST),
        ClaimCheck("a8.metadata-still-useful", "even metadata-only stays well "
                   "above chance (the mechanism degrades, not collapses)",
                   0.65, metadata_acc, Comparison.AT_LEAST),
        ClaimCheck("a8.privacy-costs-safety", "the paper's worry is real: "
                   "metadata-only tracking multiplies demotion risk vs full "
                   "tracking (ratio)", 1.5,
                   results["metadata_only"][1] / max(results["full"][1], 1e-9),
                   Comparison.AT_LEAST),
        ClaimCheck("a8.risk-never-catastrophic", "even metadata-only risk "
                   "stays below half of critical files", 0.5,
                   max(risk for _, risk, _ in results.values()),
                   Comparison.AT_MOST),
    ]
    report("A8 (ablation, §4.5 Security): less-pervasive tracking", body, checks)
