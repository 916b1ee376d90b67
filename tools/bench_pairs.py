"""Run the benchmark on two checkouts in alternating pairs and write a BENCH file.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json \\
        --change-text "what the change does" [--seeds 1-10]

PARENT and CHANGE are source checkouts, each with its own perfbench/ and
BENCHMARK.json.  Every run is `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` as a fresh process in one checkout, for every workload
W that BENCHMARK.json declares and its run_seconds T, so that the runs are the
benchmark's own.  For each workload and seed the two checkouts run back to
back, and the one that runs first alternates from one seed to the next.

Both checkouts must hold the same benchmark: BENCHMARK.json and every file
under the paths it declares, __pycache__ aside.  Otherwise the runner exits 2
before any run, naming the first file that differs.

The file holds, per workload and side, the median of each metric over its
runs and the totals of attempted and failed pipelines, in the format
tests/test_bench_trajectory.py reads, and every run's metric values under
`pairs`.  The printed table gives each metric's median and quartiles per side,
the pairs the change won (ties count for neither side), and whether a gain
could be claimed: the change wins at least nine tenths of the pairs, and the
medians differ by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def benchmark_files(checkout: Path) -> set[Path]:
    """BENCHMARK.json and every file under the paths it declares, relative to
    the checkout, without __pycache__."""
    bench = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    files = {Path("BENCHMARK.json")}
    for top in (checkout / p for p in bench["paths"]):
        for path in [top] if top.is_file() else top.rglob("*"):
            name = path.relative_to(checkout)
            if path.is_file() and "__pycache__" not in name.parts:
                files.add(name)
    return files


def first_difference(parent: Path, change: Path) -> str | None:
    """The first benchmark file, in path order, that one checkout lacks or
    that differs between the two; None when their benchmarks are the same."""
    def same(name: Path) -> bool:
        a, b = parent / name, change / name
        return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()

    if not same(Path("BENCHMARK.json")):  # the paths to compare come from it
        return "BENCHMARK.json"
    names = benchmark_files(parent) | benchmark_files(change)
    return next((str(name) for name in sorted(names) if not same(name)), None)


def parse_result(stdout: str) -> dict:
    """The JSON object on the last line of perfbench/run.py's stdout."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise ValueError("no result line")
    return json.loads(lines[-1])


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a fresh process; a run whose checks fail keeps its result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL)
    try:
        return parse_result(proc.stdout)
    except ValueError:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode} "
                           f"without a result:\n{proc.stderr[-2000:]}") from None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def aggregate(results: list[dict]) -> dict:
    """One side of a workload as a BENCH file holds it: medians of the metrics,
    totals of attempted and failed, correct only if every run was."""
    units = {name: m["unit"] for name, m in results[0]["metrics"].items()}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
                           "unit": unit}
                    for name, unit in units.items()},
    }


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Paired wins of the change and the claim rule for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "claim": wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1,
    }


def values(pairs: list[dict], side: str, metric: str) -> list[float]:
    return [pair[side][metric] for pair in pairs]


def report(workload: str, pairs: list[dict], better: dict[str, str]) -> list[str]:
    """One line per metric: quartiles per side, wins, relative median shift, claim."""
    lines = [f"{workload}: {len(pairs)} pairs"]
    for metric, direction in better.items():
        c = compare(values(pairs, "parent", metric), values(pairs, "change", metric), direction)
        (p1, pm, p3), (c1, cm, c3) = c["parent"], c["change"]
        shift = (cm - pm) / pm if pm else 0.0
        lines.append(
            f"  {metric:16s} {direction:6s} parent {pm:.4g} [{p1:.4g}-{p3:.4g}]  "
            f"change {cm:.4g} [{c1:.4g}-{c3:.4g}]  {shift:+.1%}  "
            f"wins {c['wins']}/{c['pairs']} (ties {c['ties']})"
            + ("  claim met" if c["claim"] else ""))
    return lines


def bench_file(change: str, runs: str, results: dict[str, dict[str, list[dict]]],
               pairs: dict[str, list[dict]]) -> dict:
    return {
        "change": change,
        "runs": runs,
        "aggregate": "metric values are the medians over the runs of each side; "
                     "attempted and failed are totals over them",
        "workloads": {w: {side: aggregate(by_side[side]) for side in SIDES}
                      for w, by_side in results.items()},
        "pairs": pairs,
    }


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True, help="BENCH file to write")
    parser.add_argument("--change-text", dest="change_text", required=True,
                        help="one line saying what the change does")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                        help="seed range A-B, one pair per seed")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    differs = first_difference(checkouts["parent"], checkouts["change"])
    if differs:
        print(f"bench_pairs: the checkouts' benchmarks differ, first at {differs}",
              file=sys.stderr)
        return 2
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    results, pairs = {}, {}
    for workload in [w["name"] for w in bench["workloads"]]:
        results[workload] = {side: [] for side in SIDES}
        pairs[workload] = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result = run_once(checkouts[side], workload, seed, seconds)
                results[workload][side].append(result)
                pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
                print(f"{workload} seed {seed} {side}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr, flush=True)
            pairs[workload].append(pair)
        print("\n".join(report(workload, pairs[workload], better)), flush=True)

    seeds = f"{args.seeds[0]}-{args.seeds[-1]}"
    runs = (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
            f"--trace 0, seeds {seeds}, parent and change alternating which runs first, "
            f"on one machine of {os.cpu_count()} CPUs")
    doc = bench_file(args.change_text, runs, results, pairs)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for by_side in results.values()
                    for side in by_side.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
