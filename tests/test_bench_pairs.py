"""tools/bench_pairs.py's aggregation, on canned perfbench/run.py result lines.

No benchmark runs: the results below stand in for the last stdout line of
perfbench/run.py, and the file built from them must pass the trajectory
test's checks.  The one end-to-end test runs a stub perfbench/run.py that
prints such a line.
"""

import importlib.util
import json
import os
import platform
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(tail_ms: float, rate: float, attempted: int = 100, failed: int = 0) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"latency_tail_ms": {"value": tail_ms, "unit": "ms"},
                        "pipelines_per_s": {"value": rate, "unit": "1/s"}}}


def test_result_is_the_last_stdout_line():
    line = json.dumps(result(40.0, 50.0))
    stdout = f"# perfbench workload=scenarios seed=1\n#   latency_tail_ms = 40.0 ms\n{line}\n"
    assert bench_pairs.parse_result(stdout) == result(40.0, 50.0)
    with pytest.raises(ValueError):
        bench_pairs.parse_result("# perfbench: no slowlight sources\n")


def test_a_side_is_the_median_of_its_runs_and_the_total_of_its_counts():
    side = bench_pairs.aggregate([result(40.0, 50.0), result(30.0, 70.0, 90),
                                  result(35.0, 60.0, 80, failed=2)])
    assert side == {"correct": False, "attempted": 270, "failed": 2,
                    "metrics": {"latency_tail_ms": {"value": 35.0, "unit": "ms"},
                                "pipelines_per_s": {"value": 60.0, "unit": "1/s"}}}


def test_quartiles_interpolate_between_runs():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    parent = [40.0, 41.0, 39.0, 42.0]
    change = [33.0, 41.0, 34.0, 43.0]
    lower = bench_pairs.compare(parent, change, "lower")
    higher = bench_pairs.compare(parent, change, "higher")
    assert (lower["wins"], lower["ties"], lower["pairs"]) == (2, 1, 4)
    assert (higher["wins"], higher["ties"]) == (1, 1)


def test_claim_needs_nine_tenths_of_the_pairs_and_a_shift_past_the_parent_iqr():
    parent = [39.0 + 0.1 * k for k in range(10)]  # IQR 0.45
    assert bench_pairs.compare(parent, [p - 6.0 for p in parent], "lower")["claim"]
    # 9 of 10 pairs still claim; 8 do not
    nine = [p - 6.0 for p in parent[:9]] + [parent[9] + 1.0]
    eight = [p - 6.0 for p in parent[:8]] + [parent[8] + 1.0, parent[9] + 1.0]
    assert bench_pairs.compare(parent, nine, "lower")["claim"]
    assert not bench_pairs.compare(parent, eight, "lower")["claim"]
    # every pair won, but by less than the parent's own spread
    assert not bench_pairs.compare(parent, [p - 0.3 for p in parent], "lower")["claim"]
    # a shift the wrong way is never a claim
    assert not bench_pairs.compare(parent, [p + 6.0 for p in parent], "lower")["claim"]


def test_file_has_the_trajectory_format():
    runs = {"parent": [result(40.0, 50.0), result(42.0, 48.0)],
            "change": [result(33.0, 60.0), result(34.0, 61.0)]}
    pairs = [{"seed": seed, "first": first,
              **{side: {name: m["value"] for name, m in runs[side][i]["metrics"].items()}
                 for side in runs}}
             for i, (seed, first) in enumerate([(1, "parent"), (2, "change")])]
    doc = bench_pairs.bench_file("a change", "two runs", {"scenarios": runs}, {"scenarios": pairs})
    assert sorted(doc["workloads"]["scenarios"]) == ["change", "parent"]
    change = doc["workloads"]["scenarios"]["change"]
    assert change["metrics"]["latency_tail_ms"] == {"value": 33.5, "unit": "ms"}
    assert change["attempted"] == 200 and change["failed"] == 0 and change["correct"] is True
    assert json.loads(json.dumps(doc)) == doc
    lines = bench_pairs.report("scenarios", pairs,
                               {"latency_tail_ms": "lower", "pipelines_per_s": "higher"})
    assert lines[0] == "scenarios: 2 pairs"
    assert all("wins 2/2 (ties 0)" in line for line in lines[1:])


def test_seed_range():
    assert bench_pairs.seed_range("101-103") == [101, 102, 103]
    assert bench_pairs.seed_range("7") == [7]


def _tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in {"BENCHMARK.json": json.dumps({"paths": ["perfbench"]}), **files}.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_unequal_benchmarks_are_refused_before_any_run(tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    same = {"perfbench/run.py": "run", "perfbench/sub/inputs.py": "inputs", "src/a.py": "a"}
    parent = _tree(tmp_path / "parent", {**same, "perfbench/__pycache__/run.pyc": "old"})
    change = _tree(tmp_path / "change", {**same, "perfbench/__pycache__/run.pyc": "new",
                                         "src/a.py": "changed"})
    # only the code under test and the bytecode caches differ
    assert bench_pairs.first_difference(parent, change) is None
    (change / "perfbench/sub/inputs.py").write_text("other inputs")
    (change / "perfbench/smoke.py").write_text("only in the change")
    assert bench_pairs.first_difference(parent, change) == "perfbench/smoke.py"
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--out", str(out), "--change-text", "c", "--seeds", "1"]
    assert bench_pairs.main(argv) == 2
    assert "first at perfbench/smoke.py" in capsys.readouterr().err
    assert not out.exists()
    (change / "perfbench/smoke.py").unlink()
    assert bench_pairs.first_difference(parent, change) == "perfbench/sub/inputs.py"
    (change / "BENCHMARK.json").write_text(json.dumps({"paths": ["perfbench", "tools"]}))
    assert bench_pairs.first_difference(parent, change) == "BENCHMARK.json"
    assert bench_pairs.main(argv) == 2


STUB_RUN = """\
import json, sys, time
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
while time.process_time() < 0.05:  # CPU time the runner must see as the child's
    pass
print("# stub", args["--workload"], args["--seed"])
print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
    "latency_tail_ms": {"value": 30.0 + int(args["--seed"]), "unit": "ms"}}}))
"""


def test_each_run_records_its_conditions_and_the_file_its_environment(tmp_path, capsys):
    bench = {"paths": ["perfbench"], "run_seconds": 0.5,
             "workloads": [{"name": "scenarios", "why": "a stub"}],
             "end_to_end": [{"name": "latency_tail_ms", "unit": "ms", "better": "lower",
                             "bound": 0.25}]}
    stub = {"BENCHMARK.json": json.dumps(bench), "perfbench/run.py": STUB_RUN}
    parent, change = _tree(tmp_path / "parent", stub), _tree(tmp_path / "change", stub)
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--out", str(out), "--change-text", "c", "--seeds", "1-2"]
    assert bench_pairs.main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["workloads"]["scenarios"]["change"]["metrics"]["latency_tail_ms"]["value"] == 31.5
    for pair in doc["pairs"]["scenarios"]:
        assert pair["parent"] == pair["change"] == {"latency_tail_ms": 30.0 + pair["seed"]}
        for side in ("parent", "change"):
            run = pair["conditions"][side]
            assert sorted(run) == ["cpu_s", "wall_s"]
            assert 0.05 <= run["cpu_s"] and 0.05 <= run["wall_s"]
    env = doc["environment"]
    assert sorted(env) == ["PYTHONDONTWRITEBYTECODE", "cpu_count", "loadavg_end",
                           "loadavg_start", "numpy", "orjson", "python"]
    assert env["cpu_count"] == os.cpu_count()
    assert env["python"] == platform.python_version()
    assert len(env["loadavg_start"]) == len(env["loadavg_end"]) == 3
    assert "cpu/wall=" in capsys.readouterr().err
