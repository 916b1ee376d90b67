"""The CLI subcommands, chained through files, write run_scenario's bytes.

Each subcommand is one stage of run_scenario: synth, propagate, compensate
and decompose, run in process through cli.main on a scenario's parameters,
must write every artifact of that scenario (all but metrics.csv) byte for
byte, and decompose must print the delays the scenario records.
"""

import numpy as np
import pytest

from slowlight import (
    MeasuredTransmission,
    calibrate_from_transmission,
    intensity_transmission,
    load_scenario,
    run_scenario,
)
from slowlight.cli import main
from slowlight.io import write_transmission_csv

GAUSSIAN_ARGS = ["--kind", "gaussian", "--t0-us", "6.5"]
AMG_ARGS = ["--kind", "amg", "--t0-us", "6.5", "--depth", "1.0", "--mod-khz", "700"]
WINDOW_ARGS = ["--peak", "0.615", "--background", "0.10", "--fwhm-khz", "350"]


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0, argv


def _cli_chain(d, pulse_args, channel_args, capsys) -> dict[str, float]:
    """Write into d, under run_scenario's file names, what the CLI chain writes.

    Returns the delays decompose prints (none for a Gaussian pulse).
    """
    d.mkdir()
    pulse, s_out = d / "input_pulse.csv", d / "output_spectrum.csv"
    _run("synth", *pulse_args, "--out", pulse, "--spectrum-out", d / "input_spectrum.csv")
    _run("propagate", "--input", pulse, *WINDOW_ARGS, *channel_args,
         "--out", d / "output_intensity.csv", "--spectrum-out", s_out)
    _run("compensate", "--spectrum", s_out, *WINDOW_ARGS, *channel_args,
         "--time-ref", pulse, "--out", d / "recovered_intensity.csv",
         "--gain-out", d / "gain_spectrum.csv",
         "--compensated-spectrum-out", d / "compensated_spectrum.csv")
    if "amg" not in pulse_args:
        return {}
    capsys.readouterr()
    _run("decompose", "--input", pulse, "--spectrum", s_out, "--mod-khz", "700", "--out-dir", d)
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        key, _, value = line.partition(" = ")
        printed[key] = float(value)
    return printed


def _assert_same_artifacts(scenario_dir, chain_dir, expected_count) -> None:
    names = sorted(p.name for p in scenario_dir.iterdir() if p.name != "metrics.csv")
    assert len(names) == expected_count
    differ = [n for n in names if (chain_dir / n).read_bytes() != (scenario_dir / n).read_bytes()]
    assert not differ, f"CLI chain and run_scenario differ in {differ}"


def _metrics(scenario_dir) -> dict[str, float]:
    rows = (scenario_dir / "metrics.csv").read_text().splitlines()[1:]
    return {key: float(value) for key, value in (row.split(",") for row in rows)}


@pytest.mark.parametrize(
    "name, pulse_args, expected_count",
    [
        ("fig2a", GAUSSIAN_ARGS, 4),  # input and output pulse and spectrum
        ("fig3b", AMG_ARGS, 7),  # plus compensated, recovered and gain
        ("fig4", AMG_ARGS, 8),  # input, output and the four components
    ],
)
def test_cli_chain_writes_bundled_scenario_bytes(tmp_path, capsys, name, pulse_args,
                                                 expected_count):
    scenario_dir = tmp_path / "scenario"
    run_scenario(load_scenario(name, out_dir=scenario_dir))
    printed = _cli_chain(tmp_path / "cli", pulse_args, [], capsys)
    _assert_same_artifacts(scenario_dir, tmp_path / "cli", expected_count)
    if name == "fig4":
        recorded = _metrics(scenario_dir)
        for key in ("carrier_delay_s", "left_delay_s", "right_delay_s"):
            assert printed[key] == recorded[key], key


def test_cli_chain_writes_measured_scenario_bytes(tmp_path, capsys):
    medium = calibrate_from_transmission(0.615, 0.10, 350e3)
    detunings = np.linspace(-3e6, 3e6, 1201)
    ripple = 1.0 + 0.005 * np.random.default_rng(4).standard_normal(detunings.size)
    table = tmp_path / "transmission.csv"
    write_transmission_csv(table, MeasuredTransmission(
        detunings, np.clip(intensity_transmission(medium, detunings) * ripple, 0.0, 1.0)))
    config = tmp_path / "measured.ini"
    config.write_text(
        "[pulse]\nkind = amg\nt0_us = 6.5\ndepth = 1.0\nmod_khz = 700\n"
        "[medium]\npeak = 0.615\nbackground = 0.10\nfwhm_khz = 350\n"
        f"transmission_file = {table}\n"
        "[compensation]\nsource = measured\n"
        "[run]\ncompensate = yes\ndecompose = yes\n"
        f"[output]\ndir = {tmp_path / 'scenario'}\n"
    )
    run_scenario(load_scenario(str(config)))
    printed = _cli_chain(tmp_path / "cli", AMG_ARGS, ["--transmission-file", table], capsys)
    _assert_same_artifacts(tmp_path / "scenario", tmp_path / "cli", 11)
    recorded = _metrics(tmp_path / "scenario")
    for key in ("carrier_delay_s", "left_delay_s", "right_delay_s"):
        assert printed[key] == recorded[key], key
