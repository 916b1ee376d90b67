"""Seeded inputs of the benchmark workloads.

Every input derives from the workload seed alone and is built through
slowlight's public constructors (load_scenario, calibrate_from_transmission,
PulseSpec, SamplingGrid), so one seed always gives the same inputs.  `build`
is also what the set-up probe times in a fresh interpreter, so this module
imports nothing beyond numpy and slowlight.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import slowlight as sl
import slowlight.io as sio

BUNDLED = ("fig2a", "fig2b", "fig3a", "fig3b", "fig4")

# The sweep keeps the default dt and widens the window, so each parameter set
# runs at n = 4096, 16384 and 65536: 64 KiB to 1 MiB per complex array.
SWEEP_SCALES = (1, 4, 16)

# Distinct seeded parameter sets; the timed loops cycle through them.
PARAM_SETS = 16

# Measured-transmission table of the cli_chain workload: +-3 MHz covers the
# window and both sidebands; the ripple stands in for measurement noise.
TABLE_SPAN_HZ = 3e6
TABLE_POINTS = 1201
TABLE_RIPPLE = 0.005


@dataclass(frozen=True)
class ScenarioInputs:
    scenarios: tuple[sl.Scenario, ...]
    order_rng: np.random.Generator  # draws the order of each pass


@dataclass(frozen=True)
class SweepCase:
    spec: sl.PulseSpec
    grid: sl.SamplingGrid
    medium: sl.EitMedium
    channel: sl.Channel
    compensation: sl.CompensationConfig


@dataclass(frozen=True)
class Chain:
    n: int
    steps: tuple[tuple[str, ...], ...]  # argv of each CLI step, in order


def _window(rng: np.random.Generator) -> dict[str, float]:
    """A transparency window around the paper's (0.615, 0.10, 350 kHz)."""
    return {
        "peak": float(rng.uniform(0.5, 0.8)),
        "background": float(rng.uniform(0.05, 0.2)),
        "fwhm": float(rng.uniform(250e3, 450e3)),
    }


def _amg_pulse(rng: np.random.Generator) -> sl.PulseSpec:
    """An AMG pulse around the paper's t0 = 6.5 us, f_mod = 700 kHz.

    f_mod * t0 stays within (3.31, 6.84), where default_grid picks n = 4096,
    and f_mod stays above every window's half-width, so the sidebands see
    fast light while the carrier sees slow light.
    """
    return sl.PulseSpec(
        sl.AMG,
        t0=float(rng.uniform(6.0e-6, 7.5e-6)),
        mod_depth=float(rng.uniform(0.6, 1.0)),
        mod_freq=float(rng.uniform(600e3, 850e3)),
    )


def _scenarios(rng: np.random.Generator, workdir: Path) -> ScenarioInputs:
    return ScenarioInputs(
        tuple(sl.load_scenario(name, out_dir=workdir / name) for name in BUNDLED), rng
    )


def _sweep(rng: np.random.Generator) -> tuple[SweepCase, ...]:
    cases = []
    for _ in range(PARAM_SETS):
        medium = sl.calibrate_from_transmission(**_window(rng))
        spec = _amg_pulse(rng)
        base = sl.default_grid(spec)
        for scale in SWEEP_SCALES:
            n = base.n * scale
            grid = sl.SamplingGrid(n=n, dt=base.dt, t_start=spec.center - n * base.dt / 2.0)
            cases.append(
                SweepCase(spec, grid, medium, sl.Channel.analytic(medium), sl.CompensationConfig())
            )
    return tuple(cases)


def _cli_chains(rng: np.random.Generator, workdir: Path) -> tuple[Chain, ...]:
    window = _window(rng)
    medium = sl.calibrate_from_transmission(**window)
    detunings = np.linspace(-TABLE_SPAN_HZ, TABLE_SPAN_HZ, TABLE_POINTS)
    ripple = 1.0 + TABLE_RIPPLE * rng.standard_normal(TABLE_POINTS)
    measured = np.clip(sl.intensity_transmission(medium, detunings) * ripple, 0.0, 1.0)
    table = workdir / "transmission.csv"
    sio.write_transmission_csv(table, sl.MeasuredTransmission(detunings, measured))

    pulse_in = str(workdir / "input.csv")
    out_intensity = str(workdir / "output_intensity.csv")
    out_spectrum = str(workdir / "output_spectrum.csv")
    medium_args = (
        "--peak", repr(window["peak"]),
        "--background", repr(window["background"]),
        "--fwhm-khz", repr(window["fwhm"] / 1e3),
    )
    chains = []
    for _ in range(PARAM_SETS):
        spec = _amg_pulse(rng)
        mod_khz = repr(spec.mod_freq / 1e3)
        steps = (
            ("synth", "--kind", sl.AMG, "--t0-us", repr(spec.t0 * 1e6),
             "--depth", repr(spec.mod_depth), "--mod-khz", mod_khz, "--out", pulse_in),
            ("propagate", "--input", pulse_in, *medium_args, "--transmission-file", str(table),
             "--out", out_intensity, "--spectrum-out", out_spectrum),
            ("compensate", "--spectrum", out_spectrum, "--transmission-file", str(table),
             "--time-ref", pulse_in, "--out", str(workdir / "recovered.csv"),
             "--gain-out", str(workdir / "gain.csv")),
            ("decompose", "--input", pulse_in, "--spectrum", out_spectrum,
             "--mod-khz", mod_khz, "--out-dir", str(workdir / "components")),
            ("metrics", "--out", out_intensity, "--in", pulse_in),
        )
        chains.append(Chain(sl.default_grid(spec).n, steps))
    return tuple(chains)


def build(workload: str, seed: int, workdir: str | Path):
    """Build the inputs of one workload from its seed; files go under workdir."""
    rng = np.random.default_rng(seed)
    workdir = Path(workdir)
    if workload == "scenarios":
        return _scenarios(rng, workdir)
    if workload == "sweep":
        return _sweep(rng)
    if workload == "cli_chain":
        return _cli_chains(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")
