"""Benchmark of the slowlight toolkit: one workload per run.

    python3 perfbench/run.py --workload {scenarios,sweep,cli_chain} \\
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a source checkout: slowlight is imported from the
checkout's src/ and nothing is installed.  One process, one closed loop: each
pipeline finishes before the next starts, numpy's thread pools are pinned to
one thread, and the loop stops on a round boundary once the timed sections
add up to S seconds.  Output checks run between pipelines, outside the timed
sections, and every failure counts toward failed_frac.

--trace 0 reports the end-to-end metrics; --trace 1 runs the same loop
untraced, then traced, and reports the per-layer metrics, with the spans
written to .perfbench_out/.  Metric names and units are the ones the
checkout's BENCHMARK.json declares.  The last line of stdout is one JSON
object; the exit code is 0 only when every pipeline ran and every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("scenarios", "sweep", "cli_chain")

# Fresh interpreters timed per run for setup_s: one start-up varies by ~10%
# between sets of 20, so setup_s is the median of many.
SETUP_SAMPLES = 20

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# A fresh interpreter that imports slowlight and builds one workload's inputs.
PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import inputs; "
    "inputs.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)


@dataclass
class Loop:
    """Outcome of one closed loop of pipelines."""

    latencies: list[float] = field(default_factory=list)  # s, pipelines that passed
    busy_s: float = 0.0  # timed sections of every attempt
    samples: int = 0  # grid samples of the pipelines that passed
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def run_loop(wl, rounds, seconds: float, tracer=None) -> Loop:
    """Run whole rounds until the timed sections add up to `seconds` (at least one)."""
    from slowlight import EdgeEnergyWarning

    loop = Loop()
    run, check = wl.run, wl.check
    if tracer is not None:
        run, check = tracer.root("pipeline", run), tracer.root("check", check)
    with warnings.catch_warnings():
        # a wrapped pulse invalidates a result, as in the CLI
        warnings.simplefilter("error", EdgeEnergyWarning)
        while True:
            for item in next(rounds):
                if tracer is not None:
                    tracer.pipeline = loop.attempted
                loop.attempted += 1
                start = time.perf_counter()
                try:
                    result = run(item)
                except Exception as exc:  # a failed pipeline is counted, not fatal
                    loop.busy_s += time.perf_counter() - start
                    loop.failures.append(f"{type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - start
                loop.busy_s += elapsed
                try:
                    problems = check(item, result)
                except Exception as exc:
                    problems = [f"output check raised {type(exc).__name__}: {exc}"]
                if problems:
                    loop.failures.append("; ".join(problems))
                else:
                    loop.latencies.append(elapsed)
                    loop.samples += wl.size(item)
            if loop.busy_s >= seconds:
                return loop


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median wall time of fresh interpreters building the workload's inputs."""
    workdir.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, "-c", PROBE, str(SRC), str(HERE), workload, str(seed), str(workdir)]
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
    # the first start-up fills the bytecode and page caches
    return statistics.median(times[1:])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the latency tail."""
    ordered = sorted(latencies)
    k = len(ordered) - 1 - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def declared(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares under `kind`."""
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def end_to_end(args, workdir: Path, wl, rounds) -> tuple[dict, list[Loop], list[str]]:
    setup_s = measure_setup(args.workload, args.seed, workdir / "probe")
    warm = run_loop(wl, rounds, 0.0)
    loop = run_loop(wl, rounds, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = len(loop.latencies)
    tail_ms, tail_pct, beyond = tail(loop.latencies) if done else (0.0, 0.0, 0)
    metrics = {
        "setup_s": setup_s,
        "pipelines_per_s": done / loop.busy_s,
        "msamples_per_s": loop.samples / loop.busy_s / 1e6,
        "latency_p50_ms": statistics.median(loop.latencies) * 1e3 if done else 0.0,
        "latency_tail_ms": tail_ms * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    failed = len(loop.failures)
    notes = [
        f"setup_s: median of {SETUP_SAMPLES} fresh interpreters",
        f"pipelines_per_s, msamples_per_s: {done} pipelines, {loop.samples} samples "
        f"in {loop.busy_s:.3f} s of timed sections after a warm-up round",
        f"latency_tail_ms: p{tail_pct:.2f} of {done} samples, {beyond} beyond it",
        f"failed_frac = {failed / loop.attempted!r} frac ({failed} of {loop.attempted})",
    ]
    return metrics, [warm, loop], notes


def per_layer(args, workdir: Path, wl, rounds, build,
              units: dict[str, str]) -> tuple[dict, list[Loop], list[str]]:
    from spans import Tracer

    warm = run_loop(wl, rounds, 0.0)
    plain = run_loop(wl, rounds, args.seconds)
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        inputs = tracer.root("setup", build)(args.workload, args.seed, workdir)
        traced = run_loop(wl, wl.rounds(inputs), args.seconds, tracer)
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    overhead = (traced.busy_s / traced.attempted) / (plain.busy_s / plain.attempted) - 1.0
    metrics = tracer.layer_totals()
    for name, total in metrics.items():
        if units.get(name, "").endswith("/pipeline"):
            metrics[name] = total / traced.attempted
    metrics["trace.overhead_frac"] = overhead

    artifact = {"workload": args.workload, "seed": args.seed, "pipelines": traced.attempted,
                **tracer.artifact(wall_s, overhead)}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(artifact, separators=(",", ":")) + "\n", encoding="ascii")
    notes = [
        f"spans: {len(tracer.spans)} in {path.relative_to(ROOT)}",
        f"traced wall {wall_s:.3f} s, unattributed {artifact['unattributed_s'] * 1e3:.3f} ms, "
        f"{traced.attempted} traced and {plain.attempted} untraced pipelines",
    ]
    return metrics, [warm, plain, traced], notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds per loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slowlight" / "__init__.py").is_file():
        print(f"perfbench: no slowlight sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # set before numpy loads, for the probes too
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import slowlight

    if not Path(slowlight.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported slowlight from {slowlight.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    units = declared("per_layer" if args.trace else "end_to_end")
    from inputs import build
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload]()
        rounds = wl.rounds(build(args.workload, args.seed, workdir))
        if args.trace:
            metrics, loops, notes = per_layer(args, workdir, wl, rounds, build, units)
        else:
            metrics, loops, notes = end_to_end(args, workdir, wl, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    if sorted(metrics) != sorted(units):
        print(f"perfbench: computed metrics {sorted(metrics)} differ from the declared "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    attempted = sum(loop.attempted for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    for failure in failures[:5]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, value in metrics.items():
        print(f"#   {name} = {value!r} {units[name]}")
    for note in notes:
        print(f"#   {note}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
