"""The committed benchmark records (BENCH_*.json at the repository root)
against the benchmark they claim to measure (BENCHMARK.json)."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def load(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def declared():
    spec = load(ROOT / "BENCHMARK.json")
    return {
        "workloads": {w["name"] for w in spec["workloads"]},
        "metrics": {m["name"] for m in spec["end_to_end"]},
    }


def test_at_least_one_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_claim_names_a_declared_workload_and_metric(path, declared):
    claim = load(path)["claim"]
    assert claim["workload"] in declared["workloads"]
    assert claim["metric"] in declared["metrics"]


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_declared_metric_has_both_medians(path, declared):
    workloads = load(path)["workloads"]
    assert set(workloads) == declared["workloads"]
    for name, record in workloads.items():
        for metric in declared["metrics"]:
            entry = record["metrics"][metric]
            for side in ("parent", "change"):
                median = entry[side]["median"]
                assert isinstance(median, (int, float)) and math.isfinite(median), (
                    name, metric, side,
                )


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_both_sides_are_correct(path):
    for name, record in load(path)["workloads"].items():
        assert record["correct"] == {"parent": True, "change": True}, name
