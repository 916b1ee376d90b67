"""Acceptance suite: one gated check per criterion, each reporting a
PASS/FAIL line (run with -s to see the lines on success)."""

import hashlib
import math
import time
from pathlib import Path

import numpy as np

from slowlight import (
    AMG,
    GAUSSIAN,
    Channel,
    CompensationConfig,
    EitMedium,
    PulseSpec,
    SamplingGrid,
    Spectrum,
    Waveform,
    amg_spectrum_closed_form,
    calibrate_from_transmission,
    compensate_spectrum,
    decompose_components,
    default_grid,
    dft,
    group_delay,
    idft,
    intensity_spectrum,
    intensity_transmission,
    load_scenario,
    measure_metrics,
    peak_location,
    phase_response,
    propagate,
    propagate_spectrum,
    recover_waveform,
    run_scenario,
    synth,
)
from slowlight.scenario import BUNDLED_SCENARIOS

from conftest import MOD_DEPTH, MOD_FREQ, T0, WINDOW_BACKGROUND, WINDOW_FWHM, WINDOW_PEAK

LN2 = math.log(2.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_calibration():
    start = time.perf_counter()
    medium = calibrate_from_transmission(WINDOW_PEAK, WINDOW_BACKGROUND, WINDOW_FWHM)
    elapsed = time.perf_counter() - start

    peak = float(intensity_transmission(medium, 0.0))
    background = float(intensity_transmission(medium, 1e12))
    half = float(intensity_transmission(medium, WINDOW_FWHM / 2.0))
    conditions_ok = (
        abs(peak - WINDOW_PEAK) <= 1e-6 * WINDOW_PEAK
        and abs(background - WINDOW_BACKGROUND) <= 1e-6 * WINDOW_BACKGROUND
        and abs(half - 0.5 * (WINDOW_PEAK + WINDOW_BACKGROUND))
        <= 1e-6 * 0.5 * (WINDOW_PEAK + WINDOW_BACKGROUND)
    )
    params_ok = (
        abs(medium.gamma_eit - 268.2e3) <= 0.5e3
        and abs(medium.z - 0.9083) <= 1e-4
        and medium.scale == WINDOW_PEAK
    )
    ok = conditions_ok and params_ok and elapsed < 0.010
    _report(
        "criterion 1 (calibration)",
        ok,
        f"gamma={medium.gamma_eit/1e3:.4f} kHz, z={medium.z:.6f}, "
        f"scale={medium.scale}, runtime={elapsed*1e3:.2f} ms",
    )


def test_criterion_2_resonant_delay(calibrated, gauss_spec, gauss_grid):
    w = synth(gauss_spec, gauss_grid)
    out = propagate(w, Channel.analytic(calibrated))[2]
    t = gauss_grid.times()
    delay = peak_location(t, np.abs(out.samples) ** 2) - peak_location(
        t, np.abs(w.samples) ** 2
    )
    tau0 = calibrated.z / (2.0 * math.pi * calibrated.gamma_eit)
    rel = abs(delay - tau0) / tau0
    measured_band = abs(delay - 0.47e-6) / 0.47e-6  # informational only
    _report(
        "criterion 2 (resonant delay)",
        rel <= 0.02,
        f"simulated {delay*1e6:.4f} us vs analytic {tau0*1e6:.4f} us "
        f"({rel*100:.2f}%); vs measured 0.47 us: {measured_band*100:.1f}% (informational)",
    )


def test_criterion_3_sideband_fast_light(calibrated, amg_spec, amg_grid):
    gd = float(group_delay(calibrated, MOD_FREQ))
    s_in = dft(synth(amg_spec, amg_grid))
    s_out = propagate_spectrum(s_in, Channel.analytic(calibrated))
    parts = decompose_components(s_out, s_in, MOD_FREQ)
    ok = (
        gd < 0
        and float(group_delay(calibrated, -MOD_FREQ)) < 0
        and parts.left_delay < 0
        and parts.right_delay < 0
    )
    _report(
        "criterion 3 (sideband fast light)",
        ok,
        f"group delay {gd*1e6:.4f} us; decomposed sidebands "
        f"{parts.left_delay*1e6:.4f}/{parts.right_delay*1e6:.4f} us "
        f"(measured values were -0.18/-0.20 us; magnitude not gated)",
    )


def test_criterion_4_compensation_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        t0 = rng.uniform(2e-6, 12e-6)
        depth = rng.uniform(0.1, 1.0)
        mod_freq = rng.uniform(80e3, 900e3)
        medium = EitMedium(
            gamma_eit=rng.uniform(3e4, 6e5),
            z=rng.uniform(0.1, 2.5),
            scale=rng.uniform(0.3, 1.0),
        )
        spec = PulseSpec(AMG, t0, mod_depth=depth, mod_freq=mod_freq)
        grid = default_grid(spec)
        s_in = dft(synth(spec, grid))
        s_out = propagate_spectrum(s_in, Channel.analytic(medium))
        transmission = np.asarray(intensity_transmission(medium, grid.detunings()))
        cfg = CompensationConfig(floor=float(transmission.min()) / 2.0)
        compensated = compensate_spectrum(s_out, transmission, cfg)[0]
        reference = intensity_spectrum(s_in)
        # relative check where the spectrum is meaningfully above the float
        # underflow region of |E|^2; both sides vanish below it
        big = reference > reference.max() * 1e-200
        rel = np.max(np.abs(compensated[big] - reference[big]) / reference[big])
        worst = max(worst, float(rel))
        assert np.all(np.abs(compensated[~big]) <= reference.max() * 1e-190)
    _report(
        "criterion 4 (compensation identity)",
        worst <= 1e-9,
        f"20 randomized cases, worst bin-wise relative deviation {worst:.3e}",
    )


def test_criterion_5_delay_reduction(calibrated, amg_spec, amg_grid):
    w = synth(amg_spec, amg_grid)
    s_out = propagate_spectrum(dft(w), Channel.analytic(calibrated))
    transmission = np.asarray(intensity_transmission(calibrated, amg_grid.detunings()))
    cfg = CompensationConfig(floor=1e-3)
    out_delay = measure_metrics(idft(s_out), w).delay
    rec_delay = measure_metrics(recover_waveform(s_out, transmission, cfg), w).delay
    _report(
        "criterion 5 (delay reduction)",
        rec_delay < out_delay,
        f"output {out_delay*1e6:.4f} us -> recovered {rec_delay*1e6:.4f} us "
        f"(measured values were 0.14 -> 0.11 us; direction gated)",
    )


def test_criterion_6_closed_form_spectrum(amg_spec, amg_grid):
    spectral_fwhm = LN2 / (math.pi * T0)
    assert MOD_FREQ / spectral_fwhm > 10
    s = dft(synth(amg_spec, amg_grid))
    numeric = intensity_spectrum(s)
    numeric = numeric / numeric[amg_grid.n // 2]
    closed = amg_spectrum_closed_form(T0, MOD_DEPTH, MOD_FREQ, s.detunings())
    profile_dev = float(np.max(np.abs(closed - numeric)))

    ratio = amg_spectrum_closed_form(
        T0, MOD_DEPTH, MOD_FREQ, np.array([-MOD_FREQ, MOD_FREQ])
    )
    ratio_dev = float(np.max(np.abs(ratio - MOD_DEPTH**2 / 4.0)))
    ok = profile_dev < 1e-6 and ratio_dev <= 1e-6
    _report(
        "criterion 6 (closed-form spectrum)",
        ok,
        f"profile deviation {profile_dev:.2e} of carrier peak; "
        f"sideband/carrier ratio off by {ratio_dev:.2e}",
    )


def test_criterion_7_distortion_ordering(calibrated, gauss_spec, amg_spec):
    channel = Channel.analytic(calibrated)
    results = {}
    for spec in (gauss_spec, amg_spec):
        w = synth(spec)
        out = idft(propagate_spectrum(dft(w), channel))
        results[spec.kind] = measure_metrics(out, w).nrmse
    ok = results[AMG] > 4.0 * results[GAUSSIAN]
    _report(
        "criterion 7 (distortion ordering)",
        ok,
        f"nrmse AMG {results[AMG]:.4f} vs {results[GAUSSIAN]:.4f} Gaussian "
        f"(ratio {results[AMG]/results[GAUSSIAN]:.1f}, gate 4x)",
    )


def test_criterion_8_numerics_suite(rng):
    grid = SamplingGrid(n=512, dt=0.4e-6, t_start=-102.4e-6)
    w = Waveform(grid, rng.standard_normal(512) + 1j * rng.standard_normal(512))

    back = idft(dft(w))
    round_trip = float(
        np.max(np.abs(back.samples - w.samples)) / np.max(np.abs(w.samples))
    )
    parseval = abs(dft(w).energy() - w.energy()) / w.energy()

    spec = PulseSpec(GAUSSIAN, T0)
    g = default_grid(spec)
    pulse = synth(spec, g)
    s = dft(pulse)
    tau = 0.5e-6
    shifted = idft(
        Spectrum(g, s.samples * np.exp(-2j * math.pi * s.detunings() * tau))
    )
    t = g.times()
    shift_err = abs(
        peak_location(t, np.abs(shifted.samples) ** 2)
        - peak_location(t, np.abs(pulse.samples) ** 2)
        - tau
    )

    deltas = rng.uniform(-1e7, 1e7, 10_000)
    gammas = 10.0 ** rng.uniform(3, 7, 10_000)
    zs = rng.uniform(0.0, 10.0, 10_000)
    compact = np.exp(-deltas * zs / (deltas - 1j * gammas))
    expanded = np.exp(-(deltas**2) * zs / (deltas**2 + gammas**2)) * np.exp(
        -1j * deltas * zs * gammas / (deltas**2 + gammas**2)
    )
    two_form = float(np.max(np.abs(compact - expanded) / np.abs(compact)))

    medium = EitMedium(gamma_eit=268.2e3, z=0.9083)
    tau0 = medium.z / (2 * math.pi * medium.gamma_eit)
    step = medium.gamma_eit * 1e-6
    sample = np.linspace(-10 * medium.gamma_eit, 10 * medium.gamma_eit, 2001)
    fd = (phase_response(medium, sample + step) - phase_response(medium, sample - step)) / (
        4.0 * math.pi * step
    )
    gd = np.asarray(group_delay(medium, sample))
    strict = np.abs(gd) >= 1e-3 * tau0
    gd_err = float(np.max(np.abs(fd[strict] - gd[strict]) / np.abs(gd[strict])))
    gd_zero_err = float(np.max(np.abs(fd[~strict] - gd[~strict]))) / tau0

    ok = (
        round_trip <= 1e-12
        and parseval <= 1e-12
        and shift_err <= g.dt / 10.0
        and two_form <= 1e-12
        and gd_err <= 1e-6
        and gd_zero_err <= 1e-6
    )
    _report(
        "criterion 8 (numerics suite)",
        ok,
        f"round trip {round_trip:.1e}, parseval {parseval:.1e}, "
        f"shift {shift_err:.1e} s (dt/10 = {g.dt/10:.1e}), two-form {two_form:.1e}, "
        f"group-delay fd {gd_err:.1e}",
    )


def test_criterion_9_scenarios_deterministic(tmp_path):
    def run_all(root: Path) -> dict[str, str]:
        digests = {}
        for name in BUNDLED_SCENARIOS:
            sc = load_scenario(name, out_dir=root / name)
            run_scenario(sc)
            for f in sorted((root / name).iterdir()):
                digests[f"{name}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
        return digests

    start = time.perf_counter()
    first = run_all(tmp_path / "run1")
    elapsed = time.perf_counter() - start
    second = run_all(tmp_path / "run2")

    ok = elapsed < 5.0 and first == second and len(first) >= 25
    _report(
        "criterion 9 (end-to-end scenarios)",
        ok,
        f"{len(BUNDLED_SCENARIOS)} scenarios in {elapsed:.2f} s, "
        f"{len(first)} artifacts byte-identical across runs",
    )
