"""Scenario files: a flat key = value description of one full pipeline run.

A scenario names a pulse, a channel, optional grid overrides, a compensation
configuration, and which stages to run.  Physical quantities carry explicit
unit suffixes in their key names (_us, _khz) to keep microseconds and
kilohertz straight.  Bundled scenarios live in the package's scenarios/
directory and can be referenced by bare name.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import io as sio
from .analysis import (
    MEASURED,
    MODEL,
    CompensationConfig,
    PulseMetrics,
    compensate_intensity_spectrum,
    decompose_components,
    export_gain_spectrum,
    measure_metrics,
    recover_waveform,
)
from .errors import ValidationError
from .medium import (
    EitMedium,
    MeasuredTransmission,
    calibrate_from_transmission,
    intensity_transmission,
    transmission_lookup,
)
from .propagation import Channel, propagate_spectrum, warn_if_wrapped
from .signal import AMG, GAUSSIAN, PulseSpec, SamplingGrid, default_grid, intensity_of, synth
from .spectral import dft, idft, intensity_spectrum

BUNDLED_SCENARIOS = ("fig2a", "fig2b", "fig3a", "fig3b", "fig4")


@dataclass(frozen=True)
class Scenario:
    name: str
    pulse: PulseSpec
    medium: EitMedium
    transmission: MeasuredTransmission | None
    grid: SamplingGrid
    compensation: CompensationConfig
    do_compensate: bool
    do_decompose: bool
    out_dir: Path


class _SectionReader:
    """configparser access that raises ValidationError naming section.key."""

    def __init__(self, parser: configparser.ConfigParser, origin: str, section: str):
        self._parser = parser
        self._origin = origin
        self._section = section

    def _fail(self, key: str, message: str):
        raise ValidationError(f"{self._origin}: [{self._section}] {key}: {message}")

    def has(self, key: str) -> bool:
        return self._parser.has_option(self._section, key)

    def raw(self, key: str, fallback: str | None = None) -> str:
        if not self.has(key):
            if fallback is not None:
                return fallback
            self._fail(key, "missing required key")
        return self._parser.get(self._section, key).strip()

    def number(self, key: str, fallback: float | None = None) -> float:
        if not self.has(key) and fallback is not None:
            return fallback
        value = self.raw(key)
        try:
            return float(value)
        except ValueError:
            self._fail(key, f"not a number: {value!r}")

    def integer(self, key: str, fallback: int | None = None) -> int:
        if not self.has(key) and fallback is not None:
            return fallback
        value = self.raw(key)
        try:
            return int(value)
        except ValueError:
            self._fail(key, f"not an integer: {value!r}")

    def boolean(self, key: str, fallback: bool) -> bool:
        if not self.has(key):
            return fallback
        value = self.raw(key).lower()
        if value in ("1", "yes", "true", "on"):
            return True
        if value in ("0", "no", "false", "off"):
            return False
        self._fail(key, f"not a boolean: {value!r}")


def _resolve_scenario_path(name_or_path: str) -> tuple[str, str]:
    """Return (scenario name, file text) for a bundled name or a file path."""
    if name_or_path in BUNDLED_SCENARIOS:
        ref = resources.files("slowlight") / "scenarios" / f"{name_or_path}.ini"
        return name_or_path, ref.read_text(encoding="ascii")
    path = Path(name_or_path)
    if not path.exists():
        raise ValidationError(
            f"no scenario named {name_or_path!r}; bundled scenarios are "
            f"{', '.join(BUNDLED_SCENARIOS)}"
        )
    return path.stem, path.read_text(encoding="ascii")


def load_scenario(name_or_path: str, out_dir: str | Path | None = None) -> Scenario:
    name, text = _resolve_scenario_path(str(name_or_path))
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=str(name_or_path))
    except configparser.Error as exc:
        raise ValidationError(f"{name_or_path}: {exc}") from exc
    origin = str(name_or_path)

    def section(sec: str) -> _SectionReader:
        if not parser.has_section(sec):
            raise ValidationError(f"{origin}: missing required section [{sec}]")
        return _SectionReader(parser, origin, sec)

    pulse_sec = section("pulse")
    kind = pulse_sec.raw("kind").lower()
    if kind not in (GAUSSIAN, AMG):
        raise ValidationError(f"{origin}: [pulse] kind: must be gaussian or amg, got {kind!r}")
    try:
        pulse = PulseSpec(
            kind=kind,
            t0=pulse_sec.number("t0_us") * 1e-6,
            mod_depth=pulse_sec.number("depth", 0.0),
            mod_freq=pulse_sec.number("mod_khz", 0.0) * 1e3,
            center=pulse_sec.number("center_us", 0.0) * 1e-6,
        )
    except ValidationError as exc:
        raise ValidationError(f"{origin}: [pulse] {exc}") from exc

    medium_sec = section("medium")
    try:
        if medium_sec.has("gamma_khz"):
            medium = EitMedium(
                gamma_eit=medium_sec.number("gamma_khz") * 1e3,
                z=medium_sec.number("z"),
                scale=medium_sec.number("scale", 1.0),
            )
        else:
            medium = calibrate_from_transmission(
                peak=medium_sec.number("peak"),
                background=medium_sec.number("background"),
                fwhm=medium_sec.number("fwhm_khz") * 1e3,
            )
    except ValidationError as exc:
        raise ValidationError(f"{origin}: [medium] {exc}") from exc

    transmission = None
    if medium_sec.has("transmission_file"):
        transmission = sio.read_transmission_csv(medium_sec.raw("transmission_file"))

    if parser.has_section("grid"):
        grid_sec = section("grid")
        window = grid_sec.number("window_us") * 1e-6
        n = grid_sec.integer("n")
        try:
            grid = SamplingGrid(n=n, dt=window / n, t_start=pulse.center - window / 2.0)
        except ValidationError as exc:
            raise ValidationError(f"{origin}: [grid] {exc}") from exc
    else:
        grid = default_grid(pulse)

    comp_sec = section("compensation") if parser.has_section("compensation") else None
    if comp_sec is not None:
        source = comp_sec.raw("source", MODEL).lower()
        try:
            compensation = CompensationConfig(floor=comp_sec.number("floor", 1e-3), source=source)
        except ValidationError as exc:
            raise ValidationError(f"{origin}: [compensation] {exc}") from exc
    else:
        compensation = CompensationConfig()
    if compensation.source == MEASURED and transmission is None:
        raise ValidationError(
            f"{origin}: [compensation] source: 'measured' needs a "
            f"[medium] transmission_file"
        )

    run_sec = section("run") if parser.has_section("run") else None
    do_compensate = run_sec.boolean("compensate", True) if run_sec else True
    do_decompose = run_sec.boolean("decompose", pulse.kind == AMG) if run_sec else pulse.kind == AMG
    if do_decompose and pulse.kind != AMG:
        raise ValidationError(f"{origin}: [run] decompose: only AMG pulses decompose")

    if out_dir is None:
        out_sec = section("output")
        out_dir = out_sec.raw("dir")
    return Scenario(
        name=name,
        pulse=pulse,
        medium=medium,
        transmission=transmission,
        grid=grid,
        compensation=compensation,
        do_compensate=do_compensate,
        do_decompose=do_decompose,
        out_dir=Path(out_dir),
    )


def _metrics_rows(prefix: str, metrics: PulseMetrics) -> list[tuple[str, float]]:
    return [
        (f"{prefix}_delay_s", metrics.delay),
        (f"{prefix}_loss", metrics.loss),
        (f"{prefix}_nrmse", metrics.nrmse),
        (f"{prefix}_fwhm_s", metrics.fwhm_time),
    ]


def run_scenario(sc: Scenario) -> dict[str, float]:
    """Run the full pipeline and write every artifact under sc.out_dir.

    Deterministic: identical scenarios produce bit-identical files.  Returns
    the metrics summary that is also written to metrics.csv.
    """
    out = sc.out_dir
    out.mkdir(parents=True, exist_ok=True)

    pulse = synth(sc.pulse, sc.grid)
    s_in = dft(pulse)
    if sc.transmission is not None:
        channel = Channel.hybrid(sc.transmission, sc.medium)
    else:
        channel = Channel.analytic(sc.medium)
    s_out = propagate_spectrum(s_in, channel)
    output = idft(s_out)
    warn_if_wrapped(output)

    deltas = sc.grid.detunings()
    rows: list[tuple[str, float]] = [
        ("gamma_eit_hz", sc.medium.gamma_eit),
        ("z", sc.medium.z),
        ("scale", sc.medium.scale),
    ]
    rows += _metrics_rows("output", measure_metrics(output, pulse))

    sio.write_waveform_csv(out / "input_pulse.csv", pulse)
    sio.write_spectrum_csv(out / "input_spectrum.csv", s_in)
    sio.write_intensity_csv(out / "output_intensity.csv", intensity_of(output))
    sio.write_spectrum_csv(out / "output_spectrum.csv", s_out)

    if sc.do_compensate:
        if sc.compensation.source == MEASURED:
            transmission = np.asarray(transmission_lookup(sc.transmission, deltas))
        else:
            transmission = np.asarray(intensity_transmission(sc.medium, deltas))
        compensated = compensate_intensity_spectrum(
            intensity_spectrum(s_out), transmission, sc.compensation
        )
        recovered = recover_waveform(s_out, transmission, sc.compensation)
        gain = export_gain_spectrum(transmission, sc.compensation)
        rows += _metrics_rows("recovered", measure_metrics(recovered, pulse))
        sio.write_intensity_spectrum_csv(out / "compensated_spectrum.csv", deltas, compensated)
        sio.write_intensity_csv(out / "recovered_intensity.csv", intensity_of(recovered))
        sio.write_gain_csv(out / "gain_spectrum.csv", deltas, gain)

    if sc.do_decompose:
        parts = decompose_components(s_out, s_in, sc.pulse.mod_freq)
        rows += [
            ("carrier_delay_s", parts.carrier_delay),
            ("left_delay_s", parts.left_delay),
            ("right_delay_s", parts.right_delay),
        ]
        for label, w in (
            ("carrier", parts.carrier),
            ("left", parts.left),
            ("right", parts.right),
            ("reference", parts.reference),
        ):
            sio.write_intensity_csv(out / f"component_{label}.csv", intensity_of(w))

    sio.write_metrics_csv(out / "metrics.csv", rows)
    return dict(rows)
