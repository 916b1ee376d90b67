"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload briefly, untraced and traced, and asserts that:
- the run exits 0 and its last stdout line is a result with exactly the keys
  correct, attempted, failed and metrics, with no failed pipeline;
- every end-to-end (untraced) and per-layer (traced) metric that
  BENCHMARK.json names is emitted, with the unit BENCHMARK.json gives it;
- the per-layer self times plus the benchmark's own spans add up to the
  traced wall time within SELF_TIME_TOLERANCE, and the layers, not the
  benchmark's pipeline glue, take all but SELF_TIME_TOLERANCE of the
  pipelines' time;
- each workload has self time in the layers it must reach (LAYERS_HIT), and
  `sweep` makes no io call;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Exits non-zero on the first assertion that fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Unattributed time is loop glue between spans (freeing a result, drawing the
# next round); it stays well under this share of the traced wall time.  The
# self time of the pipeline root spans (the workload's own code between layer
# calls) stays under the same share of the pipelines' time.
SELF_TIME_TOLERANCE = 0.05

# Layers whose per-pipeline self time must be non-zero on each workload.
LAYERS_HIT = {
    "scenarios": ("io", "scenario", "signal", "spectral", "medium", "propagation", "analysis"),
    "sweep": ("signal", "spectral", "medium", "propagation", "analysis"),
    "cli_chain": ("cli", "io", "signal", "spectral", "medium", "propagation", "analysis"),
}

SECONDS = "0.5"


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=180)


def check_result(proc: subprocess.CompletedProcess, declared: list[dict], what: str) -> dict:
    assert proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], (
        f"{what}: {sorted(result)}")
    assert result["correct"] is True and result["failed"] == 0, f"{what}: {result}"
    assert result["attempted"] >= 1, f"{what}: nothing attempted"
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared), (
        f"{what}: emitted {sorted(metrics)}")
    for m in declared:
        emitted = metrics[m["name"]]
        assert emitted["unit"] == m["unit"], f"{what}: {m['name']} unit {emitted['unit']!r}"
        assert isinstance(emitted["value"], (int, float)), f"{what}: {m['name']} {emitted}"
    return {name: emitted["value"] for name, emitted in metrics.items()}


def check_self_times(workload: str, layer_metrics: dict) -> None:
    artifact = json.loads(
        (ROOT / ".perfbench_out" / f"spans-{workload}-seed0.json").read_text(encoding="ascii"))
    share = abs(artifact["unattributed_s"]) / artifact["wall_s"]
    assert share <= SELF_TIME_TOLERANCE, (
        f"{workload}: self times miss {share:.2%} of the traced wall time")
    col = {name: i for i, name in enumerate(artifact["columns"])}
    pipelines_s = sum(
        s[col["end_s"]] - s[col["start_s"]] for s in artifact["spans"]
        if s[col["parent"]] < 0 and s[col["layer"]] == "bench" and s[col["name"]] == "pipeline")
    glue = artifact["self_s"].get("bench.pipeline", 0.0) / pipelines_s
    assert glue <= SELF_TIME_TOLERANCE, (
        f"{workload}: layer spans miss {glue:.2%} of the pipelines' time")
    for layer in LAYERS_HIT[workload]:
        assert layer_metrics[f"{layer}.self_ms"] > 0, f"{workload}: no self time in {layer}"
    if workload == "sweep":
        assert layer_metrics["io.calls"] == 0, f"sweep: {layer_metrics['io.calls']} io calls"


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "sweep", 0)
        assert proc.returncode != 0, "bare directory: exit 0"
        assert not proc.stdout.strip(), f"bare directory printed {proc.stdout!r}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:  # a benchmark run still uses it
            pass


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    for workload in (w["name"] for w in bench["workloads"]):
        check_result(run(ROOT, workload, 0), bench["end_to_end"], f"{workload} untraced")
        traced = check_result(run(ROOT, workload, 1), bench["per_layer"], f"{workload} traced")
        check_self_times(workload, traced)
        print(f"ok {workload}")
    check_bare_directory()
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
