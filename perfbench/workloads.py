"""The pipelines the benchmark times, and the checks on their outputs.

Each workload runs one pipeline per item and yields its items in rounds: a
round is one shuffled pass over the bundled scenarios, one sweep parameter
set at every window scale, or one CLI chain.  The loop ends only on a round
boundary, so every run measures the same mix of grid sizes.  All calls into
slowlight go through module attributes, so the traced run's wrappers see
them.  `check` runs outside the timed section and returns the problems it
found; an empty list means the outputs are correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math

import numpy as np

import slowlight as sl
import slowlight.cli
import slowlight.propagation

from inputs import PARAM_SETS, SWEEP_SCALES

# Parseval between a spectrum and its inverse transform, relative.
PARSEVAL_RTOL = 1e-9


class StepFailed(RuntimeError):
    """A CLI step returned a non-zero exit code."""


class Scenarios:
    """run_scenario over the bundled figure set, writing every artifact."""

    def __init__(self) -> None:
        self.digests: dict[str, dict[str, str]] = {}

    def rounds(self, inputs):
        while True:
            order = inputs.order_rng.permutation(len(inputs.scenarios))
            yield [inputs.scenarios[i] for i in order]

    def size(self, sc) -> int:
        return sc.grid.n

    def run(self, sc):
        return sl.run_scenario(sc)

    def check(self, sc, summary) -> list[str]:
        problems = []
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(sc.out_dir.iterdir())
        }
        if digests != self.digests.setdefault(sc.name, digests):
            problems.append(f"{sc.name}: artifacts differ from the first pass")
        if not summary["output_delay_s"] > 0:
            problems.append(f"{sc.name}: output is not delayed")
        if sc.name in ("fig3a", "fig3b") and not (
            summary["recovered_delay_s"] < summary["output_delay_s"]
        ):
            problems.append(f"{sc.name}: recovered delay is not below the output delay")
        if sc.name == "fig4":
            problems += _delay_sign_problems(
                sc.name, summary["carrier_delay_s"], summary["left_delay_s"],
                summary["right_delay_s"],
            )
        return problems


class Sweep:
    """In-memory slow/fast-light parameter study; no file I/O."""

    def rounds(self, cases):
        scales = len(SWEEP_SCALES)
        for i in itertools.cycle(range(PARAM_SETS)):
            yield cases[i * scales:(i + 1) * scales]

    def size(self, case) -> int:
        return case.grid.n

    def run(self, case):
        pulse = sl.synth(case.spec, case.grid)
        s_in = sl.dft(pulse)
        s_out = sl.propagate_spectrum(s_in, case.channel)
        output = sl.idft(s_out)
        slowlight.propagation.warn_if_wrapped(output)
        transmission = sl.intensity_transmission(case.medium, s_out.detunings())
        recovered = sl.recover_waveform(s_out, transmission, case.compensation)
        parts = sl.decompose_components(s_out, s_in, case.spec.mod_freq)
        return (
            s_out,
            output,
            recovered,
            parts,
            sl.measure_metrics(output, pulse),
            sl.measure_metrics(recovered, pulse),
        )

    def check(self, case, result) -> list[str]:
        s_out, output, recovered, parts, m_out, m_rec = result
        problems = []
        scalars = (
            m_out.delay, m_out.loss, m_out.nrmse, m_out.fwhm_time,
            m_rec.delay, m_rec.loss, m_rec.nrmse, m_rec.fwhm_time,
            parts.carrier_delay, parts.left_delay, parts.right_delay,
        )
        if not (
            all(math.isfinite(x) for x in scalars)
            and np.isfinite(output.samples).all()
            and np.isfinite(recovered.samples).all()
        ):
            problems.append("NaN or infinity in the outputs")
        if not 0.0 <= m_out.loss < 1.0:
            problems.append(f"output loss {m_out.loss} outside [0, 1)")
        e_spec, e_time = s_out.energy(), output.energy()
        if not abs(e_spec - e_time) <= PARSEVAL_RTOL * e_spec:
            problems.append(f"Parseval fails: spectrum {e_spec!r} vs waveform {e_time!r}")
        problems += _delay_sign_problems(
            f"n={case.grid.n}", parts.carrier_delay, parts.left_delay, parts.right_delay
        )
        return problems


class CliChain:
    """slowlight.cli.main in-process: synth -> propagate -> compensate ->
    decompose -> metrics, each step reading the previous step's CSV."""

    def rounds(self, chains):
        for chain in itertools.cycle(chains):
            yield [chain]

    def size(self, chain) -> int:
        return chain.n

    def run(self, chain) -> dict[str, str]:
        printed = {}
        for argv in chain.steps:
            step = argv[0]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = slowlight.cli.main(list(argv))
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
            if code != 0:
                raise StepFailed(f"{step} exited {code}: {err.getvalue().strip()}")
            printed[step] = out.getvalue()
        return printed

    def check(self, chain, printed) -> list[str]:
        values = {}
        for line in printed["decompose"].splitlines():
            key, _, value = line.partition(" = ")
            values[key] = float(value)
        return _delay_sign_problems(
            "decompose", values["carrier_delay_s"], values["left_delay_s"],
            values["right_delay_s"],
        )


def _delay_sign_problems(where: str, carrier: float, left: float, right: float) -> list[str]:
    """The paper's signs: the carrier is slowed, both sidebands advanced."""
    problems = []
    if not carrier > 0:
        problems.append(f"{where}: carrier delay {carrier!r} is not positive")
    if not (left < 0 and right < 0):
        problems.append(f"{where}: sideband delays {left!r}, {right!r} are not both negative")
    return problems


WORKLOADS = {"scenarios": Scenarios, "sweep": Sweep, "cli_chain": CliChain}
