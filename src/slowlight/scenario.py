"""Scenario files: a flat key = value description of one full pipeline run.

A scenario names a pulse, a channel, optional grid overrides, a compensation
configuration, and which stages to run.  Physical quantities carry explicit
unit suffixes in their key names (_us, _khz) to keep microseconds and
kilohertz straight.  Bundled scenarios live in the package's scenarios/
directory and can be referenced by bare name.

load_scenario parses each section inside _section, the one place that adds
the `file: [section]` prefix to a ValidationError or OSError; _get takes
and parses one key.  A key that no _get takes, and a section that no
_section opens, is rejected as unknown once every known one has been read.
resolve_pulse, resolve_medium and pulse_grid resolve the [pulse], [medium]
and [grid] keys, which are also the CLI's options, in SI units.  A relative
[medium] transmission_file is read from the scenario file's directory.
A scenario that decomposes has its band plan checked at load, so an aliased
sideband is a ValidationError before propagate's edge-energy guards run.

run_scenario chains the stage functions propagation.propagate, compensate,
decompose and metric_rows, which compute but write nothing; it writes the
artifacts once every stage has run.  The CLI subcommands call the same
stages, one each.
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
    check_band_plan,
    compensate_spectrum,
    decompose_components,
    measure_metrics,
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
    PulseSpec,
    SamplingGrid,
    Waveform,
    default_grid,
    synth,
)
from .spectral import Spectrum

BUNDLED_SCENARIOS = ("fig2a", "fig2b", "fig3a", "fig3b", "fig4")

# [compensation] source: divide out the medium's model or the measured table
MODEL = "model"
MEASURED = "measured"

# the [pulse] keys, also synth's pulse options; see resolve_pulse
PULSE_KEYS = ("kind", "t0_us", "depth", "mod_khz", "center_us")
# the [medium] keys, also the CLI's medium options; see resolve_medium
MEDIUM_KEYS = ("gamma_khz", "z", "scale", "peak", "background", "fwhm_khz")
_CALIBRATION_KEYS = ("peak", "background", "fwhm_khz")
# the sections load_scenario reads; any other section is unknown
_SECTIONS = ("pulse", "medium", "grid", "compensation", "run", "output")


@dataclass(frozen=True)
class Scenario:
    """channel: the medium, with the measured table's amplitude if any;
    measured: compensation divides out channel.table instead of the model."""

    name: str
    pulse: PulseSpec
    channel: Channel
    grid: SamplingGrid
    compensation: CompensationConfig
    measured: bool
    do_compensate: bool
    do_decompose: bool
    out_dir: Path


_REQUIRED = object()
_EXPECTED = {float: "a number", int: "an integer", bool: "a boolean"}


@contextmanager
def _section(unread: dict, origin: str, name: str, required: bool):
    """Yield section `name` of unread, the dict of keys _get has not yet
    taken ({} if absent and optional); prefix any ValidationError or OSError
    raised in the block with `origin: [name]`."""
    try:
        if name in unread:
            yield unread[name]
        elif required:
            raise ValidationError("missing required section")
        else:
            yield {}
    except (ValidationError, OSError) as exc:
        raise type(exc)(f"{origin}: [{name}] {exc}") from exc


def _get(section: dict, key: str, parse=str, fallback=_REQUIRED):
    """section[key], taken out of section and parsed as str, float, int or
    bool; fallback when absent.

    Booleans take configparser's spellings (1/yes/true/on, 0/no/false/off).
    """
    if key not in section:
        if fallback is _REQUIRED:
            raise ValidationError(f"{key}: missing required key")
        return fallback
    value = section.pop(key).strip()
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
    return path.stem, sio.read_ascii_text(name_or_path)


def resolve_pulse(values) -> PulseSpec:
    """The pulse of kind and t0_us, modulated by depth at mod_khz and
    centred at center_us (each 0 when not given).

    values maps PULSE_KEYS to values; a key mapped to None is not given.
    """
    v = {key: value for key, value in values.items() if value is not None}
    for key in ("kind", "t0_us"):
        if key not in v:
            raise ValidationError(f"{key}: missing required key")
    return PulseSpec(
        kind=v["kind"].lower(),
        t0=v["t0_us"] * 1e-6,
        mod_depth=v.get("depth", 0.0),
        mod_freq=v.get("mod_khz", 0.0) * 1e3,
        center=v.get("center_us", 0.0) * 1e-6,
    )


def resolve_medium(values) -> EitMedium:
    """The medium of gamma_khz, z and scale (EitMedium's default when not
    given), or else the one calibrated from peak, background and fwhm_khz.
    A key of the other parametrisation beside them is an error.

    values maps MEDIUM_KEYS to numbers; a key mapped to None is not given.
    """
    v = {key: value for key, value in values.items() if value is not None}

    def reject_beside(used: str, keys) -> None:
        unused = [key for key in keys if key in v]
        if unused:
            raise ValidationError(f"{', '.join(unused)}: not used beside {used}")

    if "gamma_khz" in v:
        reject_beside("gamma_khz", _CALIBRATION_KEYS)
        if "z" not in v:
            raise ValidationError("gamma_khz needs z")
        return EitMedium(v["gamma_khz"] * 1e3, v["z"], v.get("scale", EitMedium.scale))
    if not set(_CALIBRATION_KEYS) <= v.keys():
        raise ValidationError("give gamma_khz and z, or peak, background and fwhm_khz")
    reject_beside("peak, background and fwhm_khz", ("z", "scale"))
    return calibrate_from_transmission(v["peak"], v["background"], v["fwhm_khz"] * 1e3)


def pulse_grid(spec: PulseSpec, n: int | None, window_us: float | None) -> SamplingGrid:
    """default_grid(spec), or n samples over window_us microseconds centred
    on the pulse: the [grid] keys, also synth's --n and --window-us.

    A grid override gives both n and window_us, or neither.
    """
    if n is None and window_us is None:
        return default_grid(spec)
    if n is None or window_us is None:
        raise ValidationError("a grid override needs both n and window_us")
    if n == 0:  # SamplingGrid rejects it, but window / n would raise first
        raise ValidationError("grid size must be a power of two >= 8, got 0")
    window = window_us * 1e-6
    return SamplingGrid(n=n, dt=window / n, t_start=spec.center - window / 2.0)


def load_scenario(name_or_path: str, out_dir: str | Path | None = None) -> Scenario:
    name, text = _resolve_scenario_path(str(name_or_path))
    origin = str(name_or_path)
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=origin)
        unread = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ValidationError(f"{origin}: {exc}") from exc

    with _section(unread, origin, "pulse", required=True) as sec:
        pulse = resolve_pulse({key: _get(sec, key, str if key == "kind" else float, None)
                               for key in PULSE_KEYS})

    with _section(unread, origin, "medium", required=True) as sec:
        medium = resolve_medium({key: _get(sec, key, float, None) for key in MEDIUM_KEYS})
        table_path = _get(sec, "transmission_file", str, None)
        # a bundled name has no directory part: its tables resolve against "."
        transmission = None if table_path is None else sio.read_transmission_csv(
            Path(origin).parent / table_path
        )

    with _section(unread, origin, "grid", required=False) as sec:
        grid = pulse_grid(pulse, _get(sec, "n", int, None), _get(sec, "window_us", float, None))

    with _section(unread, origin, "compensation", required=False) as sec:
        source = _get(sec, "source", str, MODEL).lower()
        if source not in (MODEL, MEASURED):
            raise ValidationError(f"source: must be {MODEL!r} or {MEASURED!r}, got {source!r}")
        if source == MEASURED and transmission is None:
            raise ValidationError("source: 'measured' needs a [medium] transmission_file")
        compensation = CompensationConfig(floor=_get(sec, "floor", float, CompensationConfig.floor))

    with _section(unread, origin, "run", required=False) as sec:
        do_compensate = _get(sec, "compensate", bool, True)
        do_decompose = _get(sec, "decompose", bool, pulse.kind == AMG)
        if do_decompose:
            if pulse.kind != AMG:
                raise ValidationError("decompose: only AMG pulses decompose")
            check_band_plan(grid, pulse.mod_freq)  # before propagate's edge guards

    with _section(unread, origin, "output", required=out_dir is None) as sec:
        # taken even when out_dir overrides it, else it would be left as unknown
        file_dir = _get(sec, "dir", str, _REQUIRED if out_dir is None else None)

    for section, keys in unread.items():
        if section not in _SECTIONS:
            raise ValidationError(f"{origin}: [{section}] unknown section")
        if keys:
            raise ValidationError(f"{origin}: [{section}] {', '.join(keys)}: unknown key")
    return Scenario(
        name=name,
        pulse=pulse,
        channel=Channel(medium, transmission),
        grid=grid,
        compensation=compensation,
        measured=source == MEASURED,
        do_compensate=do_compensate,
        do_decompose=do_decompose,
        out_dir=Path(file_dir if out_dir is None else out_dir),
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
    return compensate_spectrum(s_out, transmission, cfg)


def decompose(s_out: Spectrum, s_in: Spectrum, mod_freq: float):
    """Each component waveform of s_out by the name of its intensity file,
    component_<label>.csv, and the carrier and sideband delays as
    (name, value) rows."""
    parts = decompose_components(s_out, s_in, mod_freq)
    components = {f"component_{label}.csv": getattr(parts, label)
                  for label in ("carrier", "left", "right", "reference")}
    rows = [(f"{label}_delay_s", getattr(parts, f"{label}_delay"))
            for label in ("carrier", "left", "right")]
    return components, rows


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

    Deterministic: identical scenarios produce bit-identical files.  Every
    stage runs before the first file is written, so a scenario that a guard
    rejects writes nothing.  Returns the metrics summary that is also written
    to metrics.csv.
    """
    pulse = synth(sc.pulse, sc.grid)
    s_in, s_out, output = propagate(pulse, sc.channel)
    medium = sc.channel.medium
    rows: list[tuple[str, float]] = [
        ("gamma_eit_hz", medium.gamma_eit),
        ("z", medium.z),
        ("scale", medium.scale),
    ]
    rows += metric_rows("output_", output, pulse)
    if sc.do_compensate:
        table = sc.channel.table if sc.measured else None
        compensated, recovered, gain = compensate(s_out, medium, table, sc.compensation)
        rows += metric_rows("recovered_", recovered, pulse)
    if sc.do_decompose:
        components, delay_rows = decompose(s_out, s_in, sc.pulse.mod_freq)
        rows += delay_rows

    out = sc.out_dir
    out.mkdir(parents=True, exist_ok=True)
    sio.write_waveform_csv(out / "input_pulse.csv", pulse)
    sio.write_spectrum_csv(out / "input_spectrum.csv", s_in)
    sio.write_intensity_csv(out / "output_intensity.csv", output)
    sio.write_spectrum_csv(out / "output_spectrum.csv", s_out)
    if sc.do_compensate:
        deltas = s_out.detunings()
        sio.write_intensity_spectrum_csv(out / "compensated_spectrum.csv", deltas, compensated)
        sio.write_intensity_csv(out / "recovered_intensity.csv", recovered)
        sio.write_gain_csv(out / "gain_spectrum.csv", deltas, gain)
    if sc.do_decompose:
        for name, component in components.items():
            sio.write_intensity_csv(out / name, component)
    sio.write_metrics_csv(out / "metrics.csv", rows)
    return dict(rows)
