"""Command-line interface: subcommands, exit codes, scenario runs."""

import dataclasses
import math

import numpy as np
import pytest

from slowlight import MeasuredTransmission, SamplingGrid, Spectrum, Waveform, dft, synth
from slowlight.cli import build_parser, main
from slowlight.errors import ValidationError
from slowlight.scenario import (
    MEDIUM_KEYS,
    PULSE_KEYS,
    Scenario,
    load_scenario,
    resolve_medium,
    run_scenario,
)
from slowlight.io import (
    read_detuning_series_csv,
    read_timeseries_csv,
    write_spectrum_csv,
    write_transmission_csv,
    write_waveform_csv,
)


def _parse_kv(output: str) -> dict:
    values = {}
    for line in output.splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = float(value)
    return values


def test_calibrate_prints_fit(capsys):
    assert main(["calibrate", "--peak", "0.615", "--background", "0.10",
                 "--fwhm-khz", "350"]) == 0
    values = _parse_kv(capsys.readouterr().out)
    assert values["gamma_khz"] == pytest.approx(268.18, abs=0.5)
    assert values["z"] == pytest.approx(0.9083, abs=1e-4)
    assert values["scale"] == 0.615


def test_calibrate_rejects_degenerate_window(capsys):
    code = main(["calibrate", "--peak", "0.5", "--background", "0.5",
                 "--fwhm-khz", "350"])
    assert code == 2
    assert "error[validation]" in capsys.readouterr().err


def test_synth_amg_has_modulation_zeros(tmp_path):
    out = tmp_path / "amg.csv"
    assert main(["synth", "--kind", "amg", "--t0-us", "6.5", "--depth", "1",
                 "--mod-khz", "700", "--out", str(out)]) == 0
    w = read_timeseries_csv(out)
    t = w.grid.times()
    intensity = np.abs(w.samples) ** 2
    # deep minima around +-1/(2 * 700 kHz) = +-0.714 us from center
    for sign in (+1, -1):
        target = sign / (2.0 * 700e3)
        near = np.abs(t - target) <= w.grid.dt
        assert intensity[near].min() < 1e-3 * intensity.max()
        trough = t[near][np.argmin(intensity[near])]
        assert abs(trough - target) <= w.grid.dt


def test_synth_needs_a_width(capsys):
    assert main(["synth", "--kind", "gaussian", "--out", "x.csv"]) == 2


@pytest.mark.parametrize("argv", [
    ["synth", "--kind", "amg", "--t0-us", "6.5", "--out", "x.csv", "--bogus"],  # unknown flag
    ["synth", "--kind", "amg", "--t0-us", "6.5"],  # missing --out
    ["synth", "--kind", "amg", "--t0-us", "abc", "--out", "x.csv"],  # bad float
    ["frobnicate"],  # bad subcommand
    [],  # no subcommand
    ["synth", "--kind", "foo", "--t0-us", "6.5", "--out", "x.csv"],
    ["synth", "--t0-us", "6.5", "--out", "x.csv"],  # no --kind
], ids=["unknown-flag", "missing-flag", "bad-float", "bad-subcommand", "no-subcommand",
        "bad-kind", "no-kind"])
def test_bad_arguments_print_one_validation_line(capsys, argv):
    assert main(argv) == 2  # returned: argparse raised no SystemExit
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("slowlight: error[validation]: "), lines
    assert captured.out == ""  # no usage text on either stream


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--help"])
    assert exc.value.code == 0
    assert "--kind" in capsys.readouterr().out


def test_synth_kind_is_case_insensitive(tmp_path):
    for kind in ("amg", "AMG"):
        assert main(["synth", "--kind", kind, "--t0-us", "6.5", "--depth", "1",
                     "--mod-khz", "700", "--out", str(tmp_path / f"{kind}.csv")]) == 0
    assert (tmp_path / "AMG.csv").read_bytes() == (tmp_path / "amg.csv").read_bytes()


@pytest.mark.parametrize("command, keys, required", [
    ("synth", (*PULSE_KEYS, "n", "window_us"), ["--out", "x.csv"]),  # [pulse] and [grid]
    ("propagate", MEDIUM_KEYS, ["--input", "x.csv", "--out", "y.csv"]),
    ("compensate", MEDIUM_KEYS, ["--spectrum", "x.csv", "--out", "y.csv"]),
])
def test_options_are_the_scenario_keys(command, keys, required):
    argv = [command, *required]
    for key in keys:
        argv += ["--" + key.replace("_", "-"), "amg" if key == "kind" else "8"]
    args = build_parser().parse_args(argv)
    for key in keys:
        assert getattr(args, key) == ("amg" if key == "kind" else 8), key
    # an absent option is None, so the resolver fills it in as for an absent key
    bare = [command, *required] + (["--kind", "amg"] if command == "synth" else [])
    args = build_parser().parse_args(bare)
    assert [key for key in keys if key != "kind" and getattr(args, key) is not None] == []


def test_synth_writes_the_scenario_pulse_bytes(tmp_path):
    # every pulse and grid key off its default
    config = tmp_path / "pulse.ini"
    config.write_text(
        "[pulse]\nkind = amg\nt0_us = 6.5\ndepth = 0.6\nmod_khz = 900\ncenter_us = 3\n"
        "[medium]\npeak = 0.615\nbackground = 0.10\nfwhm_khz = 350\n"
        "[grid]\nn = 2048\nwindow_us = 120\n"
        "[run]\ncompensate = no\ndecompose = no\n"
        f"[output]\ndir = {tmp_path / 'scenario'}\n"
    )
    run_scenario(load_scenario(str(config)))
    assert main(["synth", "--kind", "amg", "--t0-us", "6.5", "--depth", "0.6",
                 "--mod-khz", "900", "--center-us", "3", "--n", "2048", "--window-us", "120",
                 "--out", str(tmp_path / "pulse.csv"),
                 "--spectrum-out", str(tmp_path / "spectrum.csv")]) == 0
    for ours, theirs in (("pulse.csv", "input_pulse.csv"), ("spectrum.csv", "input_spectrum.csv")):
        assert (tmp_path / ours).read_bytes() == (tmp_path / "scenario" / theirs).read_bytes()


def test_metrics_on_identical_files(tmp_path, capsys, gauss_spec):
    path = tmp_path / "pulse.csv"
    write_waveform_csv(path, synth(gauss_spec))
    assert main(["metrics", "--out", str(path), "--in", str(path)]) == 0
    values = _parse_kv(capsys.readouterr().out)
    assert values["delay_s"] == 0.0
    assert values["loss"] == pytest.approx(0.0, abs=1e-12)
    assert values["nrmse"] == pytest.approx(0.0, abs=1e-12)


def test_propagate_compensate_decompose_flow(tmp_path, capsys):
    medium = ["--peak", "0.615", "--background", "0.10", "--fwhm-khz", "350"]
    pulse = tmp_path / "amg.csv"
    out_int = tmp_path / "out.csv"
    out_spec = tmp_path / "out_spec.csv"
    rec = tmp_path / "rec.csv"
    gain = tmp_path / "gain.csv"
    comps = tmp_path / "components"

    assert main(["synth", "--kind", "amg", "--t0-us", "6.5", "--depth", "1",
                 "--mod-khz", "700", "--out", str(pulse)]) == 0
    assert main(["propagate", "--input", str(pulse), *medium,
                 "--out", str(out_int), "--spectrum-out", str(out_spec)]) == 0
    assert main(["metrics", "--out", str(out_int), "--in", str(pulse)]) == 0
    out_values = _parse_kv(capsys.readouterr().out)

    assert main(["compensate", "--spectrum", str(out_spec), *medium,
                 "--time-ref", str(pulse), "--out", str(rec),
                 "--gain-out", str(gain)]) == 0
    assert main(["metrics", "--out", str(rec), "--in", str(pulse)]) == 0
    rec_values = _parse_kv(capsys.readouterr().out)

    # compensation weakens the slow-light effect of the modulated pulse
    assert rec_values["delay_s"] < out_values["delay_s"]
    assert rec_values["loss"] < out_values["loss"]

    assert main(["decompose", "--input", str(pulse), "--spectrum", str(out_spec),
                 "--mod-khz", "700", "--out-dir", str(comps)]) == 0
    delays = _parse_kv(capsys.readouterr().out)
    assert delays["carrier_delay_s"] > 0
    assert delays["left_delay_s"] < 0
    assert delays["right_delay_s"] < 0
    for name in ("carrier", "left", "right", "reference"):
        assert (comps / f"component_{name}.csv").exists()


def test_compensate_without_time_ref_keeps_the_detuning_column(tmp_path):
    # the grid read from the spectrum alone writes the detunings it was read from
    pulse, spectrum = tmp_path / "p.csv", tmp_path / "s.csv"
    compensated, gain = tmp_path / "c.csv", tmp_path / "g.csv"
    assert main(["synth", "--kind", "gaussian", "--t0-us", "6.5", "--out", str(pulse),
                 "--spectrum-out", str(spectrum)]) == 0
    assert main(["compensate", "--spectrum", str(spectrum), "--peak", "0.615",
                 "--background", "0.10", "--fwhm-khz", "350", "--out", str(tmp_path / "r.csv"),
                 "--compensated-spectrum-out", str(compensated),
                 "--gain-out", str(gain)]) == 0

    def first_column(path):
        return [line.split(",", 1)[0] for line in path.read_text().splitlines()[1:]]

    assert first_column(compensated) == first_column(spectrum)
    assert first_column(gain) == first_column(spectrum)


def test_run_bundled_scenario(tmp_path, capsys):
    out_dir = tmp_path / "fig2a"
    assert main(["run", "fig2a", "--out-dir", str(out_dir)]) == 0
    values = _parse_kv(capsys.readouterr().out)
    assert values["output_delay_s"] == pytest.approx(0.539e-6, rel=0.05)
    for name in ("input_pulse.csv", "input_spectrum.csv", "output_intensity.csv",
                 "output_spectrum.csv", "metrics.csv"):
        assert (out_dir / name).exists()


def test_run_unknown_scenario(capsys):
    assert main(["run", "nonexistent-scenario"]) == 2


def test_run_scenario_with_grid_override(tmp_path, capsys):
    config = tmp_path / "custom.ini"
    config.write_text(
        "[pulse]\nkind = gaussian\nt0_us = 6.5\n"
        "[medium]\ngamma_khz = 268.18\nz = 0.9082\nscale = 0.615\n"
        "[grid]\nn = 512\nwindow_us = 240\n"
        "[run]\ncompensate = no\n"
        "[output]\ndir = " + str(tmp_path / "out") + "\n"
    )
    assert main(["run", str(config)]) == 0
    values = _parse_kv(capsys.readouterr().out)
    assert values["output_delay_s"] == pytest.approx(0.539e-6, rel=0.05)
    pulse = read_timeseries_csv(tmp_path / "out" / "input_pulse.csv")
    assert pulse.grid.n == 512
    assert pulse.grid.window == pytest.approx(240e-6, rel=1e-12)


@pytest.mark.parametrize("grid", [["--n", "0", "--window-us", "240"], ["--n", "512"]])
def test_synth_grid_override_is_validated(tmp_path, capsys, grid):
    assert main(["synth", "--kind", "gaussian", "--t0-us", "6.5", *grid,
                 "--out", str(tmp_path / "g.csv")]) == 2
    assert "error[validation]" in capsys.readouterr().err


def test_run_malformed_config_names_field(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text(
        "[pulse]\nkind = amg\nt0_us = 6.5\ndepth = 2.0\nmod_khz = 700\n"
        "[medium]\ngamma_khz = 268.2\nz = 0.9083\n"
        "[output]\ndir = " + str(tmp_path / "out") + "\n"
    )
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err
    assert "pulse" in err and "depth" in err


def test_metrics_non_ascii_file_is_validation_error(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"time_s,intensity\n0.0,1.0\n1e-6,2.0\n2e-6,\xb5\n")
    assert main(["metrics", "--out", str(path), "--in", str(path)]) == 2
    assert f"error[validation]: {path}: not ASCII text: byte 0xb5" in capsys.readouterr().err


def test_run_non_ascii_scenario_is_validation_error(tmp_path, capsys):
    config = tmp_path / "micro.ini"
    config.write_text(
        "[pulse]\nkind = gaussian\n; 6.5 \u00b5s\nt0_us = 6.5\n"
        "[medium]\ngamma_khz = 268.2\nz = 0.9083\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
        encoding="latin-1",
    )
    assert main(["run", str(config)]) == 2
    assert f"error[validation]: {config}: not ASCII text: byte 0xb5" in capsys.readouterr().err


def test_missing_input_file_is_io_error(tmp_path, capsys):
    assert main(["propagate", "--input", str(tmp_path / "nope.csv"),
                 "--gamma-khz", "268", "--z", "0.9",
                 "--out", str(tmp_path / "o.csv")]) == 4
    assert "error[io]" in capsys.readouterr().err


def test_wrapped_output_is_numeric_error(tmp_path, capsys):
    # pulse parked at the window edge: the filtered tail wraps around
    grid = SamplingGrid(n=512, dt=0.25e-6, t_start=-64e-6)
    t = grid.times()
    center = grid.t_start + grid.window - 3e-6
    field = np.exp(-math.log(2.0) * (t - center) ** 2 / (2 * (2e-6) ** 2))
    path = tmp_path / "edge.csv"
    write_waveform_csv(path, Waveform(grid, field))
    code = main(["propagate", "--input", str(path),
                 "--gamma-khz", "268.2", "--z", "0.9083",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 3
    assert "error[numeric]" in capsys.readouterr().err


def test_medium_flags_are_validated(capsys, tmp_path, gauss_spec):
    path = tmp_path / "pulse.csv"
    write_waveform_csv(path, synth(gauss_spec))
    assert main(["propagate", "--input", str(path), "--gamma-khz", "268.2",
                 "--out", str(tmp_path / "o.csv")]) == 2  # missing --z
    assert main(["propagate", "--input", str(path),
                 "--out", str(tmp_path / "o.csv")]) == 2  # no medium at all


def test_calibration_keys_reject_scale(tmp_path, capsys, gauss_spec):
    window = {"peak": 0.615, "background": 0.1, "fwhm_khz": 350}
    with pytest.raises(ValidationError, match="scale: not used beside peak"):
        resolve_medium({**window, "scale": 0.3})
    path = tmp_path / "pulse.csv"
    write_waveform_csv(path, synth(gauss_spec))
    assert main(["propagate", "--input", str(path), "--peak", "0.615", "--background", "0.1",
                 "--fwhm-khz", "350", "--scale", "0.3", "--out", str(tmp_path / "o.csv")]) == 2
    assert "error[validation]: scale: not used beside" in capsys.readouterr().err


def test_gamma_keys_reject_calibration_keys(tmp_path, capsys):
    with pytest.raises(ValidationError, match="peak, background, fwhm_khz: not used beside gamma"):
        resolve_medium({"gamma_khz": 268, "z": 0.9, "peak": 0.615, "background": 0.1,
                        "fwhm_khz": 350})
    config = _scenario_with(tmp_path, "medium", "fwhm_khz", "350")  # beside gamma_khz and z
    assert main(["run", str(config)]) == 2
    assert f"{config}: [medium] fwhm_khz: not used beside gamma_khz" in capsys.readouterr().err


def _source_scenario(tmp_path, name, medium_extra, source):
    config = tmp_path / f"{name}.ini"
    config.write_text(
        "[pulse]\nkind = gaussian\nt0_us = 6.5\n"
        "[medium]\npeak = 0.615\nbackground = 0.10\nfwhm_khz = 350\n" + medium_extra +
        f"[compensation]\nsource = {source}\n"
        f"[output]\ndir = {tmp_path / name}\n"
    )
    return str(config)


def test_run_measured_source_divides_out_the_table(tmp_path, capsys):
    table = tmp_path / "flat.csv"
    write_transmission_csv(table, MeasuredTransmission(np.linspace(-3e6, 3e6, 5), np.full(5, 0.5)))
    medium_extra = f"transmission_file = {table}\n"
    for source in ("model", "measured"):
        assert main(["run", _source_scenario(tmp_path, source, medium_extra, source)]) == 0
    _, model_gain = read_detuning_series_csv(tmp_path / "model" / "gain_spectrum.csv")
    _, measured_gain = read_detuning_series_csv(tmp_path / "measured" / "gain_spectrum.csv")
    np.testing.assert_array_equal(measured_gain, 2.0)  # 1 / 0.5 at every bin
    assert not np.array_equal(model_gain, measured_gain)


def test_measured_source_reads_the_channel_table(tmp_path):
    table = tmp_path / "flat.csv"
    write_transmission_csv(table, MeasuredTransmission(np.linspace(-3e6, 3e6, 5), np.full(5, 0.5)))
    medium_extra = f"transmission_file = {table}\n"
    model = load_scenario(_source_scenario(tmp_path, "model", medium_extra, "model"))
    measured = load_scenario(_source_scenario(tmp_path, "measured", medium_extra, "measured"))
    assert len(dataclasses.fields(Scenario)) == 9
    assert (model.measured, measured.measured) == (False, True)
    assert model.channel.table is not None and measured.channel.table is not None


@pytest.mark.parametrize("source", ["measured", "oracle"])
def test_run_rejects_compensation_source_without_table(tmp_path, capsys, source):
    assert main(["run", _source_scenario(tmp_path, "bad", "", source)]) == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err
    assert "[compensation] source" in err


def _scenario_with(tmp_path, section, key, value):
    """A valid Gaussian scenario file, bad.ini, with [section] key set to value."""
    sections = {
        "pulse": {"kind": "gaussian", "t0_us": "6.5"},
        "medium": {"gamma_khz": "268.2", "z": "0.9083"},
        "output": {"dir": str(tmp_path / "out")},
    }
    sections.setdefault(section, {})[key] = value
    config = tmp_path / "bad.ini"
    config.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    ))
    return config


@pytest.mark.parametrize("section, key, value, named", [
    ("pulse", "t0_us", "abc", "t0_us"),
    ("medium", "z", "abc", "z"),
    ("grid", "n", "abc", "n"),
    ("compensation", "floor", "abc", "floor"),
    ("run", "compensate", "maybe", "compensate"),
    ("pulse", "t0_us", "inf", "t0 must be finite"),
    ("medium", "z", "inf", "z must be finite"),
])
def test_run_bad_value_is_prefixed_once(tmp_path, capsys, section, key, value, named):
    config = _scenario_with(tmp_path, section, key, value)
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{config}: [{section}] {named}" in err
    assert err.count("bad.ini") == 1


@pytest.mark.parametrize("section, key, message", [
    ("pulse", "depht", "[pulse] depht: unknown key"),  # a typo of depth
    ("output", "dri", "[output] dri: unknown key"),
    ("pulses", "depth", "[pulses] unknown section"),
])
def test_run_rejects_unknown_keys_and_sections(tmp_path, capsys, section, key, message):
    config = _scenario_with(tmp_path, section, key, "1.0")
    assert main(["run", str(config)]) == 2
    assert f"error[validation]: {config}: {message}" in capsys.readouterr().err
    # --out-dir overrides [output] dir but not the check of [output]'s keys
    assert main(["run", str(config), "--out-dir", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_synth_non_finite_width_is_validation_error(tmp_path, capsys):
    assert main(["synth", "--kind", "gaussian", "--t0-us", "inf",
                 "--out", str(tmp_path / "g.csv")]) == 2
    assert "t0 must be finite" in capsys.readouterr().err


def test_synth_overflowing_grid_is_validation_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["synth", "--kind", "amg", "--t0-us", "1e306", "--depth", "1",
                 "--mod-khz", "1e297", "--out", str(out)]) == 2
    assert "t0 must lie in [1e-18, 1e+18], got 9.999999999999999e+299" in capsys.readouterr().err
    assert not out.exists()


def test_synth_width_below_the_scale_is_validation_error(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["synth", "--kind", "gaussian", "--t0-us", "1e-294", "--out", str(out)]) == 2
    assert "t0 must lie in [1e-18, 1e+18], got 1e-300" in capsys.readouterr().err
    assert not out.exists()


def _aliased_scenario(tmp_path, decompose="yes"):
    # fig3b's pulse and medium on a grid whose Nyquist frequency (640 kHz)
    # lies below the right band's top, 3 * 700 kHz / 2
    config = tmp_path / "aliased.ini"
    config.write_text(
        "[pulse]\nkind = amg\nt0_us = 6.5\ndepth = 1.0\nmod_khz = 700\n"
        "[medium]\npeak = 0.615\nbackground = 0.10\nfwhm_khz = 350\n"
        "[grid]\nn = 256\nwindow_us = 200\n"
        f"[run]\ndecompose = {decompose}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    return str(config)


def test_run_aliased_decompose_is_validation_error(tmp_path, capsys):
    assert main(["run", _aliased_scenario(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "1050000.0 Hz" in err and "Nyquist frequency 640000.0 Hz" in err


def test_run_rejected_by_the_last_stage_writes_no_file(tmp_path, capsys):
    # decompose is the last stage to run; every artifact waits for it
    assert main(["run", _aliased_scenario(tmp_path)]) == 2
    assert list(tmp_path.glob("out/*.csv")) == []


def test_run_undersampled_pulse_is_numeric_error(tmp_path, capsys):
    # without decompose the band plan is not checked; the aliased sideband
    # puts energy at the Nyquist edge of the input spectrum
    assert main(["run", _aliased_scenario(tmp_path, decompose="no")]) == 3
    err = capsys.readouterr().err
    assert "error[numeric]" in err and "input spectrum" in err
    assert not (tmp_path / "out").exists()


def test_compensate_with_table_checks_the_medium_flags(tmp_path, capsys):
    pulse, spectrum, table = tmp_path / "p.csv", tmp_path / "s.csv", tmp_path / "t.csv"
    out = tmp_path / "r.csv"
    assert main(["synth", "--kind", "amg", "--t0-us", "6.5", "--depth", "1",
                 "--mod-khz", "700", "--out", str(pulse), "--spectrum-out", str(spectrum)]) == 0
    write_transmission_csv(table, MeasuredTransmission(np.linspace(-3e6, 3e6, 5), np.full(5, 0.5)))
    base = ["compensate", "--spectrum", str(spectrum), "--transmission-file", str(table),
            "--time-ref", str(pulse), "--out", str(out)]
    assert main([*base, "--gamma-khz", "-5", "--z", "nan"]) == 2
    assert "gamma_eit must lie in [1e-18, 1e+18], got -5000.0" in capsys.readouterr().err
    assert not out.exists()
    assert main([*base, "--gamma-khz", "268.2", "--z", "0.9083"]) == 0
    assert main(base) == 0


def test_run_grid_over_the_cap_is_validation_error(tmp_path, capsys):
    config = tmp_path / "big.ini"
    config.write_text(
        "[pulse]\nkind = gaussian\nt0_us = 6.5\n"
        "[medium]\ngamma_khz = 268.2\nz = 0.9083\n"
        "[grid]\nn = 8388608\nwindow_us = 240\n"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert "[grid] grid size 8388608 exceeds the cap of 4194304" in err


def _table_scenario(path, table, out_dir):
    path.write_text(
        "[pulse]\nkind = gaussian\nt0_us = 6.5\n"
        "[medium]\npeak = 0.615\nbackground = 0.10\nfwhm_khz = 350\n"
        f"transmission_file = {table}\n"
        "[compensation]\nsource = measured\n"
        f"[output]\ndir = {out_dir}\n"
    )


def test_run_reads_relative_table_beside_the_scenario(tmp_path, monkeypatch, capsys):
    detunings = np.linspace(-3e6, 3e6, 5)
    (tmp_path / "sub").mkdir()
    write_transmission_csv(tmp_path / "sub" / "t.csv", MeasuredTransmission(detunings, np.full(5, 0.5)))
    # a decoy in the current directory, which a cwd-relative lookup would read
    write_transmission_csv(tmp_path / "t.csv", MeasuredTransmission(detunings, np.full(5, 0.25)))
    _table_scenario(tmp_path / "sub" / "alias.ini", "t.csv", tmp_path / "out")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "sub/alias.ini"]) == 0
    _, gain = read_detuning_series_csv(tmp_path / "out" / "gain_spectrum.csv")
    np.testing.assert_array_equal(gain, 2.0)  # 1 / 0.5: sub/t.csv, not ./t.csv


def test_run_missing_table_names_the_scenario(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    _table_scenario(config, "nope.csv", tmp_path / "out")
    assert main(["run", str(config)]) == 4
    err = capsys.readouterr().err
    assert f"error[io]: {config}: [medium]" in err
    assert str(tmp_path / "nope.csv") in err


def test_propagate_overflowing_field_is_numeric_error(tmp_path, capsys, gauss_spec):
    w = synth(gauss_spec)
    path = tmp_path / "huge.csv"
    write_waveform_csv(path, Waveform(w.grid, w.samples * 1e308))
    code = main(["propagate", "--input", str(path), "--gamma-khz", "268.2",
                 "--z", "0.9083", "--out", str(tmp_path / "o.csv")])
    assert code == 3
    # numpy's overflow warnings stay silent: the guard's line is the only report
    assert capsys.readouterr().err.splitlines() == [
        "slowlight: error[numeric]: the input waveform energy sum overflowed float64; "
        "the pulse amplitude is too large"
    ]


def test_metrics_overflowing_field_is_numeric_error(tmp_path, capsys, gauss_spec):
    w = synth(gauss_spec)
    path = tmp_path / "huge.csv"
    write_waveform_csv(path, Waveform(w.grid, w.samples * 1e200))
    assert main(["metrics", "--out", str(path), "--in", str(path)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "slowlight: error[numeric]: the reference waveform energy sum overflowed float64; "
        "the pulse amplitude is too large"
    ]


def test_compensate_overflowing_spectrum_is_numeric_error(tmp_path, capsys, gauss_spec):
    s = dft(synth(gauss_spec))
    path = tmp_path / "huge_spectrum.csv"
    write_spectrum_csv(path, Spectrum(s.grid, s.samples * 1e200))
    code = main(["compensate", "--spectrum", str(path), "--gamma-khz", "268.2",
                 "--z", "0.9083", "--out", str(tmp_path / "rec.csv")])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "slowlight: error[numeric]: the output spectrum energy sum overflowed float64; "
        "the pulse amplitude is too large"
    ]


def test_decompose_overflowing_spectrum_is_numeric_error(tmp_path, capsys, amg_spec):
    # the sideband check names the overflow as every other stage does, before
    # the components' directory is made
    w = synth(amg_spec)
    pulse, path, out_dir = tmp_path / "p.csv", tmp_path / "huge.csv", tmp_path / "c"
    write_waveform_csv(pulse, w)
    write_spectrum_csv(path, Spectrum(w.grid, dft(w).samples * 1e200))
    code = main(["decompose", "--input", str(pulse), "--spectrum", str(path),
                 "--mod-khz", "700", "--out-dir", str(out_dir)])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "slowlight: error[numeric]: the output spectrum energy sum overflowed float64; "
        "the pulse amplitude is too large"
    ]
    assert not out_dir.exists()


def test_propagate_negative_intensity_file_is_validation_error(tmp_path, capsys):
    grid = SamplingGrid(n=8, dt=1e-6)
    path = tmp_path / "bad.csv"
    path.write_text("time_s,intensity\n" + "".join(
        f"{t!r},{v!r}\n" for t, v in zip(grid.times().tolist(), [1.0, -1.0] + [0.0] * 6)))
    assert main(["propagate", "--input", str(path), "--gamma-khz", "268.2",
                 "--z", "0.9083", "--out", str(tmp_path / "o.csv")]) == 2
    assert (f"error[validation]: {path}: intensity samples must be nonnegative"
            in capsys.readouterr().err)


@pytest.mark.parametrize("window_us,code", [("55.25", 2), ("58.5", 0)])  # 8.5 t0, 9 t0
def test_synth_window_guard_is_the_propagate_guard(tmp_path, capsys, window_us, code):
    # 8.5 t0 leaves 1.47e-6 of the energy in the window's outer 5%, 9 t0 3.8e-7
    out = tmp_path / "g.csv"
    assert main(["synth", "--kind", "gaussian", "--t0-us", "6.5", "--n", "1024",
                 "--window-us", window_us, "--out", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    if code:
        assert len(err) == 1 and err[0].startswith(
            "slowlight: error[validation]: pulse t0 = 6.500e-06 s centred at 0.000e+00 s "
            "does not fit the 5.525e-05 s window from -2.762e-05 s: 1.47e-06 of the pulse "
            "energy lies in the outer 5% of the window"), err
        assert not out.exists()
    else:
        assert err == [] and out.exists()


def test_propagate_all_zero_field_is_numeric_error(tmp_path, capsys):
    grid = SamplingGrid(n=64, dt=1e-6)
    path = tmp_path / "zero.csv"
    write_waveform_csv(path, Waveform(grid, np.zeros(64)))
    assert main(["propagate", "--input", str(path), "--gamma-khz", "268.2",
                 "--z", "0.9083", "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "slowlight: error[numeric]: the input waveform holds no energy"
    ]
    assert not (tmp_path / "o.csv").exists()
