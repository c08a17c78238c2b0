"""The committed BENCH_pr*.json files against BENCHMARK.json: each names its
parent commit and the command it ran, holds the parent's and the change's
median of every declared end-to-end metric on every declared workload, and
each median is the median of the per-pair records the file keeps."""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_pr*.json"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]
METRICS = [metric["name"] for metric in DECLARED["end_to_end"]]


def _records(entry: dict, side: str) -> dict | None:
    """Each metric's per-pair values on one side of a workload's entry, from
    its list of pairs of perfbench result lines or from its runs table (which
    rounds them to 6 decimals); None where the entry keeps neither."""
    if isinstance(entry.get("pairs"), list):
        return {name: [pair[side]["metrics"][name]["value"] for pair in entry["pairs"]] for name in METRICS}
    return entry.get("runs", {}).get(side)


def test_the_trajectory_has_bench_files():
    assert len(BENCH_FILES) >= 13


@pytest.mark.parametrize("path", BENCH_FILES, ids=[path.name for path in BENCH_FILES])
def test_a_bench_file_holds_the_median_of_every_declared_metric(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert bench["parent_commit"] and bench["command"]
    for workload in WORKLOADS:
        entry = bench["workloads"][workload]
        for side in ("parent", "change"):
            medians, records = entry["median_of_pairs"][side], _records(entry, side)
            for name in METRICS:
                assert math.isfinite(medians[name]), (workload, side, name)
                if records is not None:
                    median = statistics.median(records[name])
                    assert math.isclose(medians[name], median, rel_tol=1e-9, abs_tol=1e-6), (workload, side, name)
