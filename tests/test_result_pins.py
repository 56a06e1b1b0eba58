"""Exact pins of the paper's headline results.

The validation metrics (accuracy, coverage, precision) of the five-step
method and of the RTT-threshold baseline are deterministic for a fixed
seed, so they are pinned *exactly*, not as lower bounds.  The expected
values live in one data file, ``tests/data/expected_metrics.json``; an
intended change to the world or the inference edits that file, and any
other drift fails here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import ExperimentConfig
from repro.study import RemotePeeringStudy
from repro.validation.metrics import evaluate_report

EXPECTED_FILE = Path(__file__).parent / "data" / "expected_metrics.json"

#: Studies the session fixtures already build, by (scale, seed).
SHARED_STUDIES = {("tiny", 7): "tiny_study", ("small", 11): "small_study"}


def _load() -> list[dict]:
    return json.loads(EXPECTED_FILE.read_text())["studies"]


@pytest.fixture(scope="module")
def expected_metrics() -> dict[tuple[str, int], dict]:
    """(scale, seed) -> {method: {metric: value}} from the data file."""
    return {(entry["scale"], entry["seed"]): entry["metrics"] for entry in _load()}


def _study(request, scale: str, seed: int) -> RemotePeeringStudy:
    fixture = SHARED_STUDIES.get((scale, seed))
    if fixture is not None:
        return request.getfixturevalue(fixture)
    return RemotePeeringStudy(getattr(ExperimentConfig, scale)(seed=seed))


@pytest.mark.parametrize(
    ("scale", "seed"), [(entry["scale"], entry["seed"]) for entry in _load()]
)
def test_validation_metrics_are_pinned(request, expected_metrics, scale, seed):
    study = _study(request, scale, seed)
    validation = study.validation
    reports = {
        "five_step": study.outcome.report,
        "rtt_baseline": study.outcome.baseline_report,
    }
    observed = {}
    for method, report in reports.items():
        metrics = evaluate_report(report, validation, ixp_ids=validation.test_ixps())
        observed[method] = {
            "accuracy": metrics.accuracy,
            "coverage": metrics.coverage,
            "precision": metrics.precision,
        }
    assert observed == expected_metrics[(scale, seed)]
