"""Command-line interface: subcommands, exit codes, scenario runs."""

import math

import numpy as np
import pytest

from slowlight import MeasuredTransmission, SamplingGrid, Waveform, synth
from slowlight.cli import main
from slowlight.io import (
    read_detuning_series_csv,
    read_timeseries_csv,
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


def test_synth_accepts_intensity_fwhm(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["synth", "--kind", "gaussian", "--intensity-fwhm-us", "13",
                 "--out", str(out)]) == 0
    w = read_timeseries_csv(out)
    # same pulse as --t0-us 6.5
    out2 = tmp_path / "g2.csv"
    assert main(["synth", "--kind", "gaussian", "--t0-us", "6.5",
                 "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_synth_needs_a_width(capsys):
    assert main(["synth", "--kind", "gaussian", "--out", "x.csv"]) == 2


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


def test_synth_non_finite_width_is_validation_error(tmp_path, capsys):
    assert main(["synth", "--kind", "gaussian", "--t0-us", "inf",
                 "--out", str(tmp_path / "g.csv")]) == 2
    assert "t0 must be finite" in capsys.readouterr().err


def test_synth_overflowing_grid_is_validation_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["synth", "--kind", "amg", "--t0-us", "1e306", "--depth", "1",
                 "--mod-khz", "1e297", "--out", str(out)]) == 2
    assert "grid sample count inf is not finite; the cap is 4194304" in capsys.readouterr().err
    assert not out.exists()


def test_run_aliased_decompose_is_validation_error(tmp_path, capsys):
    # fig3b's pulse and medium on a grid whose Nyquist frequency (640 kHz)
    # lies below the right band's top, 3 * 700 kHz / 2
    config = tmp_path / "aliased.ini"
    config.write_text(
        "[pulse]\nkind = amg\nt0_us = 6.5\ndepth = 1.0\nmod_khz = 700\n"
        "[medium]\npeak = 0.615\nbackground = 0.10\nfwhm_khz = 350\n"
        "[grid]\nn = 256\nwindow_us = 200\n"
        "[run]\ndecompose = yes\n"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert "1050000.0 Hz" in err and "Nyquist frequency 640000.0 Hz" in err


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
