"""Command-line front end.

Each pipeline subcommand is one stage of scenario.run_scenario: synth,
propagate, compensate, decompose and metrics parse their options, read their
input CSV files, call the stage and write what it returns, so a chain of
subcommands on a scenario's parameters writes the same bytes as
`slowlight run`.  Their pulse, grid and medium options are the scenario's
[pulse], [grid] and [medium] keys, resolved by the same functions.
propagate builds the analytic channel of the medium options, or the hybrid
one with --transmission-file, and calls propagation.propagate.  Exit codes:
0 ok, 2 validation error (argparse's included), 3 numeric guard, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as sio
from .analysis import CompensationConfig
from .errors import NumericError, ValidationError
from .medium import EitMedium, MeasuredTransmission
from .propagation import Channel, propagate
from .scenario import (
    BUNDLED_SCENARIOS,
    MEDIUM_KEYS,
    PULSE_KEYS,
    compensate,
    decompose,
    load_scenario,
    metric_rows,
    pulse_grid,
    resolve_medium,
    resolve_pulse,
    run_scenario,
)
from .signal import (
    IntensityTrace,
    Waveform,
    amplitude_from_intensity,
    intensity_of,
    synth,
)
from .spectral import dft

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _add_medium_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma-khz", type=float, help="EIT half-linewidth in kHz")
    p.add_argument("--z", type=float, help="normalized propagation length")
    p.add_argument("--scale", type=float, help="peak intensity transmission")
    p.add_argument("--peak", type=float, help="window peak transmission (calibration)")
    p.add_argument("--background", type=float, help="window background transmission")
    p.add_argument("--fwhm-khz", type=float, help="window FWHM in kHz (calibration)")


def _medium_from_args(args: argparse.Namespace) -> EitMedium:
    return resolve_medium({key: getattr(args, key, None) for key in MEDIUM_KEYS})


def _table_from_args(args: argparse.Namespace) -> MeasuredTransmission | None:
    if args.transmission_file:
        return sio.read_transmission_csv(args.transmission_file)
    return None


def _load_waveform(path) -> Waveform:
    loaded = sio.read_timeseries_csv(path)
    if isinstance(loaded, IntensityTrace):
        return amplitude_from_intensity(loaded)
    return loaded


def _print_kv(key: str, value: float) -> None:
    print(f"{key} = {value!r}")


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = resolve_pulse({key: getattr(args, key) for key in PULSE_KEYS})
    w = synth(spec, pulse_grid(spec, args.n, args.window_us))
    sio.write_waveform_csv(args.out, w)
    if args.spectrum_out:
        sio.write_spectrum_csv(args.spectrum_out, dft(w))
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    medium = _medium_from_args(args)
    _print_kv("gamma_khz", medium.gamma_eit / 1e3)
    _print_kv("z", medium.z)
    _print_kv("scale", medium.scale)
    return EXIT_OK


def _cmd_propagate(args: argparse.Namespace) -> int:
    w = _load_waveform(args.input)
    _, s_out, out = propagate(w, Channel(_medium_from_args(args), _table_from_args(args)))
    sio.write_intensity_csv(args.out, intensity_of(out))
    if args.spectrum_out:
        sio.write_spectrum_csv(args.spectrum_out, s_out)
    return EXIT_OK


def _cmd_compensate(args: argparse.Namespace) -> int:
    ref_grid = _load_waveform(args.time_ref).grid if args.time_ref else None
    s_out = sio.read_spectrum_csv(args.spectrum, ref_grid)
    table = _table_from_args(args)
    # the table supplies the transmission, but medium flags beside it are still checked
    given = any(getattr(args, key) is not None for key in MEDIUM_KEYS)
    medium = _medium_from_args(args) if table is None or given else None
    compensated, recovered, gain = compensate(
        s_out, medium, table, CompensationConfig(floor=args.floor)
    )
    sio.write_intensity_csv(args.out, intensity_of(recovered))
    deltas = s_out.detunings()
    if args.compensated_spectrum_out:
        sio.write_intensity_spectrum_csv(args.compensated_spectrum_out, deltas, compensated)
    if args.gain_out:
        sio.write_gain_csv(args.gain_out, deltas, gain)
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    w_in = _load_waveform(args.input)
    s_out = sio.read_spectrum_csv(args.spectrum, w_in.grid)
    traces, rows = decompose(s_out, dft(w_in), args.mod_khz * 1e3)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, trace in traces.items():
        sio.write_intensity_csv(out_dir / name, trace)
    for key, value in rows:
        _print_kv(key, value)
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    out = _load_waveform(args.out_file)
    for key, value in metric_rows("", out, _load_waveform(args.in_file)):
        _print_kv(key, value)
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    if args.out_dir is not None and len(args.scenario) > 1:
        raise ValidationError("--out-dir applies to a single scenario only")
    for name in args.scenario:
        sc = load_scenario(name, out_dir=args.out_dir)
        summary = run_scenario(sc)
        print(f"# scenario {sc.name} -> {sc.out_dir}")
        for key, value in summary.items():
            _print_kv(key, value)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # main's one error line, not usage and SystemExit
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slowlight",
        description="Spectral-domain slow-light simulator and compensation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a probe pulse to CSV")
    p.add_argument("--kind", help="pulse kind, gaussian or amg (any case)")
    p.add_argument("--t0-us", type=float, help="width t0 (half the intensity FWHM) in microseconds")
    p.add_argument("--depth", type=float, help="modulation depth A (default 0)")
    p.add_argument("--mod-khz", type=float, help="modulation frequency in kHz (default 0)")
    p.add_argument("--center-us", type=float, help="pulse center in microseconds (default 0)")
    p.add_argument("--n", type=int, help="grid size override (power of two)")
    p.add_argument("--window-us", type=float, help="grid window override in microseconds")
    p.add_argument("--out", required=True, help="output waveform CSV")
    p.add_argument("--spectrum-out", help="also write the pulse spectrum CSV")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("calibrate", help="fit a medium to a transmission window")
    p.add_argument("--peak", type=float, required=True)
    p.add_argument("--background", type=float, required=True)
    p.add_argument("--fwhm-khz", type=float, required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("propagate", help="apply a channel to a waveform")
    p.add_argument("--input", required=True, help="input waveform CSV")
    _add_medium_args(p)
    p.add_argument("--transmission-file", help="measured transmission CSV (hybrid channel)")
    p.add_argument("--out", required=True, help="output intensity CSV")
    p.add_argument("--spectrum-out", help="also write the output spectrum CSV")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("compensate", help="divide out the transmission and recover the pulse")
    p.add_argument("--spectrum", required=True, help="output spectrum CSV to compensate")
    _add_medium_args(p)
    p.add_argument("--transmission-file", help="measured transmission CSV")
    p.add_argument("--floor", type=float, default=CompensationConfig.floor)
    p.add_argument("--time-ref", help="waveform CSV fixing the time origin")
    p.add_argument("--out", required=True, help="recovered intensity CSV")
    p.add_argument("--compensated-spectrum-out")
    p.add_argument("--gain-out", help="write the required intensity gain spectrum")
    p.set_defaults(func=_cmd_compensate)

    p = sub.add_parser("decompose", help="split an output AMG spectrum into components")
    p.add_argument("--input", required=True, help="input waveform CSV (defines the grid)")
    p.add_argument("--spectrum", required=True, help="output spectrum CSV")
    p.add_argument("--mod-khz", type=float, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("metrics", help="delay/loss/shape metrics of one trace vs another")
    p.add_argument("--out", dest="out_file", required=True, help="measured output CSV")
    p.add_argument("--in", dest="in_file", required=True, help="reference input CSV")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("run", help="run scenario files end to end")
    p.add_argument("scenario", nargs="+",
                   help=f"scenario file path or bundled name ({', '.join(BUNDLED_SCENARIOS)})")
    p.add_argument("--out-dir", help="output directory override (single scenario only)")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"slowlight: error[validation]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"slowlight: error[numeric]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"slowlight: error[io]: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
