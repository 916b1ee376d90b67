"""Scenario files: a flat key = value description of one full pipeline run.

A scenario names a pulse, a channel, optional grid overrides, a compensation
configuration, and which stages to run.  Physical quantities carry explicit
unit suffixes in their key names (_us, _khz) to keep microseconds and
kilohertz straight.  Bundled scenarios live in the package's scenarios/
directory and can be referenced by bare name.

run_scenario chains the stage functions propagate, compensate, decompose and
metric_rows; the CLI subcommands call the same stages, one each.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import io as sio
from .analysis import (
    CompensationConfig,
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
from .signal import (
    AMG,
    GAUSSIAN,
    PulseSpec,
    SamplingGrid,
    Waveform,
    default_grid,
    intensity_of,
    synth,
)
from .spectral import Spectrum, dft, idft, intensity_spectrum

BUNDLED_SCENARIOS = ("fig2a", "fig2b", "fig3a", "fig3b", "fig4")

# [compensation] source: divide out the medium's model or the measured table
MODEL = "model"
MEASURED = "measured"

# the [medium] keys, also the CLI's medium options; see resolve_medium
MEDIUM_KEYS = ("gamma_khz", "z", "scale", "peak", "background", "fwhm_khz")


@dataclass(frozen=True)
class Scenario:
    """transmission: measured channel amplitude, if any; compensation_table:
    the table compensation divides out instead of the model, if any."""

    name: str
    pulse: PulseSpec
    medium: EitMedium
    transmission: MeasuredTransmission | None
    grid: SamplingGrid
    compensation: CompensationConfig
    compensation_table: MeasuredTransmission | None
    do_compensate: bool
    do_decompose: bool
    out_dir: Path


class _SectionReader:
    """configparser access that raises ValidationError naming section.key."""

    def __init__(self, parser: configparser.ConfigParser, origin: str, section: str):
        self._parser = parser
        self._origin = origin
        self._section = section

    def fail(self, key: str, message: str):
        raise ValidationError(f"{self._origin}: [{self._section}] {key}: {message}")

    def has(self, key: str) -> bool:
        return self._parser.has_option(self._section, key)

    def raw(self, key: str, fallback: str | None = None) -> str:
        if not self.has(key):
            if fallback is not None:
                return fallback
            self.fail(key, "missing required key")
        return self._parser.get(self._section, key).strip()

    def number(self, key: str, fallback: float | None = None) -> float:
        if not self.has(key) and fallback is not None:
            return fallback
        value = self.raw(key)
        try:
            return float(value)
        except ValueError:
            self.fail(key, f"not a number: {value!r}")

    def integer(self, key: str, fallback: int | None = None) -> int:
        if not self.has(key) and fallback is not None:
            return fallback
        value = self.raw(key)
        try:
            return int(value)
        except ValueError:
            self.fail(key, f"not an integer: {value!r}")

    def boolean(self, key: str, fallback: bool) -> bool:
        if not self.has(key):
            return fallback
        value = self.raw(key).lower()
        if value in ("1", "yes", "true", "on"):
            return True
        if value in ("0", "no", "false", "off"):
            return False
        self.fail(key, f"not a boolean: {value!r}")


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


def resolve_medium(values) -> EitMedium:
    """The medium of gamma_khz, z and scale (default 1), or else the one
    calibrated from peak, background and fwhm_khz.

    values maps MEDIUM_KEYS to numbers; a key mapped to None is not given.
    """
    v = {key: value for key, value in values.items() if value is not None}
    if "gamma_khz" in v:
        if "z" not in v:
            raise ValidationError("gamma_khz needs z")
        return EitMedium(v["gamma_khz"] * 1e3, v["z"], v.get("scale", 1.0))
    if not {"peak", "background", "fwhm_khz"} <= v.keys():
        raise ValidationError("give gamma_khz and z, or peak, background and fwhm_khz")
    return calibrate_from_transmission(v["peak"], v["background"], v["fwhm_khz"] * 1e3)


def pulse_grid(spec: PulseSpec, n: int | None, window: float | None) -> SamplingGrid:
    """default_grid(spec), or n samples over `window` seconds centred on the pulse.

    A grid override gives both n and window, or neither.
    """
    if n is None and window is None:
        return default_grid(spec)
    if n is None or window is None:
        raise ValidationError("a grid override needs both n and window")
    if n == 0:  # SamplingGrid rejects it, but window / n would raise first
        raise ValidationError("grid size must be a power of two >= 8, got 0")
    return SamplingGrid(n=n, dt=window / n, t_start=spec.center - window / 2.0)


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
    values = {key: medium_sec.number(key) for key in MEDIUM_KEYS if medium_sec.has(key)}
    try:
        medium = resolve_medium(values)
    except ValidationError as exc:
        raise ValidationError(f"{origin}: [medium] {exc}") from exc

    transmission = None
    if medium_sec.has("transmission_file"):
        transmission = sio.read_transmission_csv(medium_sec.raw("transmission_file"))

    # optional sections: a reader of a missing section finds no keys
    grid_sec = _SectionReader(parser, origin, "grid")
    n = grid_sec.integer("n") if grid_sec.has("n") else None
    window = grid_sec.number("window_us") * 1e-6 if grid_sec.has("window_us") else None
    try:
        grid = pulse_grid(pulse, n, window)
    except ValidationError as exc:
        raise ValidationError(f"{origin}: [grid] {exc}") from exc

    comp_sec = _SectionReader(parser, origin, "compensation")
    source = comp_sec.raw("source", MODEL).lower()
    if source not in (MODEL, MEASURED):
        comp_sec.fail("source", f"must be {MODEL!r} or {MEASURED!r}, got {source!r}")
    if source == MEASURED and transmission is None:
        comp_sec.fail("source", "'measured' needs a [medium] transmission_file")
    floor = comp_sec.number("floor", 1e-3)
    try:
        compensation = CompensationConfig(floor=floor)
    except ValidationError as exc:
        raise ValidationError(f"{origin}: [compensation] {exc}") from exc

    run_sec = _SectionReader(parser, origin, "run")
    do_compensate = run_sec.boolean("compensate", True)
    do_decompose = run_sec.boolean("decompose", pulse.kind == AMG)
    if do_decompose and pulse.kind != AMG:
        raise ValidationError(f"{origin}: [run] decompose: only AMG pulses decompose")

    if out_dir is None:
        out_dir = section("output").raw("dir")
    return Scenario(
        name=name,
        pulse=pulse,
        medium=medium,
        transmission=transmission,
        grid=grid,
        compensation=compensation,
        compensation_table=transmission if source == MEASURED else None,
        do_compensate=do_compensate,
        do_decompose=do_decompose,
        out_dir=Path(out_dir),
    )


def propagate(pulse: Waveform, medium: EitMedium, table: MeasuredTransmission | None):
    """Input spectrum, output spectrum and output waveform of `pulse`.

    The channel is the analytic one of `medium`, or the hybrid one (the
    table's amplitude, the medium's phase) when a table is given.  Warns
    with EdgeEnergyWarning when the output wraps around the window.
    """
    channel = Channel.analytic(medium) if table is None else Channel.hybrid(table, medium)
    s_in = dft(pulse)
    s_out = propagate_spectrum(s_in, channel)
    output = idft(s_out)
    warn_if_wrapped(output)
    return s_in, s_out, output


def compensate(s_out: Spectrum, medium: EitMedium | None,
               table: MeasuredTransmission | None, cfg: CompensationConfig):
    """Compensated intensity spectrum, recovered waveform and gain spectrum.

    The transmission divided out of s_out is the table's when one is given,
    otherwise the model transmission of `medium`.
    """
    deltas = s_out.detunings()
    if table is not None:
        transmission = transmission_lookup(table, deltas)
    else:
        transmission = intensity_transmission(medium, deltas)
    return (
        compensate_intensity_spectrum(intensity_spectrum(s_out), transmission, cfg),
        recover_waveform(s_out, transmission, cfg),
        export_gain_spectrum(transmission, cfg),
    )


def decompose(s_out: Spectrum, s_in: Spectrum, mod_freq: float, out_dir: Path):
    """Write each component of s_out as out_dir/component_<label>.csv and
    return the carrier and sideband delays as (name, value) rows."""
    parts = decompose_components(s_out, s_in, mod_freq)
    out_dir.mkdir(parents=True, exist_ok=True)
    for label in ("carrier", "left", "right", "reference"):
        w = getattr(parts, label)
        sio.write_intensity_csv(out_dir / f"component_{label}.csv", intensity_of(w))
    return [(f"{label}_delay_s", getattr(parts, f"{label}_delay"))
            for label in ("carrier", "left", "right")]


def metric_rows(prefix: str, out: Waveform, reference: Waveform):
    """measure_metrics(out, reference) as (name, value) rows, names prefixed."""
    m = measure_metrics(out, reference)
    return [
        (f"{prefix}delay_s", m.delay),
        (f"{prefix}loss", m.loss),
        (f"{prefix}nrmse", m.nrmse),
        (f"{prefix}fwhm_s", m.fwhm_time),
    ]


def run_scenario(sc: Scenario) -> dict[str, float]:
    """Run the full pipeline and write every artifact under sc.out_dir.

    Deterministic: identical scenarios produce bit-identical files.  Returns
    the metrics summary that is also written to metrics.csv.
    """
    out = sc.out_dir
    out.mkdir(parents=True, exist_ok=True)

    pulse = synth(sc.pulse, sc.grid)
    s_in, s_out, output = propagate(pulse, sc.medium, sc.transmission)
    rows: list[tuple[str, float]] = [
        ("gamma_eit_hz", sc.medium.gamma_eit),
        ("z", sc.medium.z),
        ("scale", sc.medium.scale),
    ]
    rows += metric_rows("output_", output, pulse)

    sio.write_waveform_csv(out / "input_pulse.csv", pulse)
    sio.write_spectrum_csv(out / "input_spectrum.csv", s_in)
    sio.write_intensity_csv(out / "output_intensity.csv", intensity_of(output))
    sio.write_spectrum_csv(out / "output_spectrum.csv", s_out)

    if sc.do_compensate:
        compensated, recovered, gain = compensate(
            s_out, sc.medium, sc.compensation_table, sc.compensation
        )
        rows += metric_rows("recovered_", recovered, pulse)
        deltas = s_out.detunings()
        sio.write_intensity_spectrum_csv(out / "compensated_spectrum.csv", deltas, compensated)
        sio.write_intensity_csv(out / "recovered_intensity.csv", intensity_of(recovered))
        sio.write_gain_csv(out / "gain_spectrum.csv", deltas, gain)

    if sc.do_decompose:
        rows += decompose(s_out, s_in, sc.pulse.mod_freq, out)

    sio.write_metrics_csv(out / "metrics.csv", rows)
    return dict(rows)
