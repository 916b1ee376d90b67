"""The BENCH_*.json files at the repository root: the benchmark's trajectory.

Each file holds, for every workload BENCHMARK.json declares, a `parent` and
a `change` result in the format of the last stdout line of perfbench/run.py
(`correct`, `attempted`, `failed`, `metrics`), its metric values the medians
over alternating runs of the two commits.  This test only reads
BENCHMARK.json.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = sorted(ROOT.glob("BENCH_*.json"))


def _declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = sorted(w["name"] for w in bench["workloads"])
    return workloads, {m["name"]: m["unit"] for m in bench["end_to_end"]}


def test_trajectory_is_not_empty():
    assert TRAJECTORY


@pytest.mark.parametrize("path", TRAJECTORY, ids=lambda p: p.name)
def test_bench_file_names_the_declared_metrics(path):
    workloads, units = _declared()
    results = json.loads(path.read_text(encoding="utf-8"))["workloads"]
    assert sorted(results) == workloads
    for workload, sides in results.items():
        assert sorted(sides) == ["change", "parent"], workload
        for side, result in sides.items():
            where = f"{workload}.{side}"
            assert result["correct"] is True, where
            assert result["attempted"] > 0 and result["failed"] == 0, where
            metrics = result["metrics"]
            assert {name: m["unit"] for name, m in metrics.items()} == units, where
            assert all(math.isfinite(m["value"]) for m in metrics.values()), where
