"""Scenario files: a flat key = value description of one full pipeline run.

A scenario names a pulse, a channel, optional grid overrides, a compensation
configuration, and which stages to run.  Physical quantities carry explicit
unit suffixes in their key names (_us, _khz) to keep microseconds and
kilohertz straight.  Bundled scenarios live in the package's scenarios/
directory and can be referenced by bare name.

load_scenario parses each section inside _section, the one place that adds
the `file: [section]` prefix to a ValidationError or OSError; _get parses
one key.  A relative [medium] transmission_file is read from the scenario
file's directory.

run_scenario chains the stage functions propagation.propagate, compensate,
decompose and metric_rows; the CLI subcommands call the same stages, one
each.
"""

from __future__ import annotations

import configparser
from contextlib import contextmanager
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
from .propagation import Channel, propagate
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
from .spectral import Spectrum, intensity_spectrum

BUNDLED_SCENARIOS = ("fig2a", "fig2b", "fig3a", "fig3b", "fig4")

# [compensation] source: divide out the medium's model or the measured table
MODEL = "model"
MEASURED = "measured"

# the [medium] keys, also the CLI's medium options; see resolve_medium
MEDIUM_KEYS = ("gamma_khz", "z", "scale", "peak", "background", "fwhm_khz")


@dataclass(frozen=True)
class Scenario:
    """channel: the medium, with the measured table's amplitude if any;
    compensation_table: the table compensation divides out instead of the
    model, if any."""

    name: str
    pulse: PulseSpec
    channel: Channel
    grid: SamplingGrid
    compensation: CompensationConfig
    compensation_table: MeasuredTransmission | None
    do_compensate: bool
    do_decompose: bool
    out_dir: Path


_REQUIRED = object()
_EXPECTED = {float: "a number", int: "an integer", bool: "a boolean"}


@contextmanager
def _section(parser: configparser.ConfigParser, origin: str, name: str, required: bool):
    """Yield section `name` ({} if absent and optional); prefix any
    ValidationError or OSError raised in the block with `origin: [name]`."""
    try:
        if parser.has_section(name):
            yield parser[name]
        elif required:
            raise ValidationError("missing required section")
        else:
            yield {}
    except (ValidationError, OSError) as exc:
        raise type(exc)(f"{origin}: [{name}] {exc}") from exc


def _get(section, key: str, parse=str, fallback=_REQUIRED):
    """section[key] parsed as str, float, int or bool; fallback when absent.

    section is a configparser section, or {} for an absent optional one.
    Booleans take configparser's spellings (1/yes/true/on, 0/no/false/off).
    """
    if key not in section:
        if fallback is _REQUIRED:
            raise ValidationError(f"{key}: missing required key")
        return fallback
    value = section[key].strip()
    try:
        if parse is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
        return parse(value)
    except (KeyError, ValueError):
        raise ValidationError(f"{key}: not {_EXPECTED[parse]}: {value!r}") from None


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
    origin = str(name_or_path)
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ValidationError(f"{origin}: {exc}") from exc

    with _section(parser, origin, "pulse", required=True) as sec:
        kind = _get(sec, "kind").lower()
        if kind not in (GAUSSIAN, AMG):
            raise ValidationError(f"kind: must be gaussian or amg, got {kind!r}")
        pulse = PulseSpec(
            kind=kind,
            t0=_get(sec, "t0_us", float) * 1e-6,
            mod_depth=_get(sec, "depth", float, 0.0),
            mod_freq=_get(sec, "mod_khz", float, 0.0) * 1e3,
            center=_get(sec, "center_us", float, 0.0) * 1e-6,
        )

    with _section(parser, origin, "medium", required=True) as sec:
        medium = resolve_medium({key: _get(sec, key, float, None) for key in MEDIUM_KEYS})
        table_path = _get(sec, "transmission_file", str, None)
        # a bundled name has no directory part: its tables resolve against "."
        transmission = None if table_path is None else sio.read_transmission_csv(
            Path(origin).parent / table_path
        )

    with _section(parser, origin, "grid", required=False) as sec:
        n = _get(sec, "n", int, None)
        window = _get(sec, "window_us", float, None)
        grid = pulse_grid(pulse, n, None if window is None else window * 1e-6)

    with _section(parser, origin, "compensation", required=False) as sec:
        source = _get(sec, "source", str, MODEL).lower()
        if source not in (MODEL, MEASURED):
            raise ValidationError(f"source: must be {MODEL!r} or {MEASURED!r}, got {source!r}")
        if source == MEASURED and transmission is None:
            raise ValidationError("source: 'measured' needs a [medium] transmission_file")
        compensation = CompensationConfig(floor=_get(sec, "floor", float, 1e-3))

    with _section(parser, origin, "run", required=False) as sec:
        do_compensate = _get(sec, "compensate", bool, True)
        do_decompose = _get(sec, "decompose", bool, pulse.kind == AMG)
        if do_decompose and pulse.kind != AMG:
            raise ValidationError("decompose: only AMG pulses decompose")

    if out_dir is None:
        with _section(parser, origin, "output", required=True) as sec:
            out_dir = _get(sec, "dir")
    return Scenario(
        name=name,
        pulse=pulse,
        channel=Channel(medium, transmission),
        grid=grid,
        compensation=compensation,
        compensation_table=transmission if source == MEASURED else None,
        do_compensate=do_compensate,
        do_decompose=do_decompose,
        out_dir=Path(out_dir),
    )


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
    s_in, s_out, output = propagate(pulse, sc.channel)
    medium = sc.channel.medium
    rows: list[tuple[str, float]] = [
        ("gamma_eit_hz", medium.gamma_eit),
        ("z", medium.z),
        ("scale", medium.scale),
    ]
    rows += metric_rows("output_", output, pulse)

    sio.write_waveform_csv(out / "input_pulse.csv", pulse)
    sio.write_spectrum_csv(out / "input_spectrum.csv", s_in)
    sio.write_intensity_csv(out / "output_intensity.csv", intensity_of(output))
    sio.write_spectrum_csv(out / "output_spectrum.csv", s_out)

    if sc.do_compensate:
        compensated, recovered, gain = compensate(
            s_out, medium, sc.compensation_table, sc.compensation
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
