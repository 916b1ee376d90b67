import numpy as np
import pytest
from hypothesis import settings

from slowlight import (
    AMG,
    GAUSSIAN,
    PulseSpec,
    calibrate_from_transmission,
    default_grid,
)

# Tier-1 draws the same hypothesis examples on every run: no random seed, no
# example database carried between runs, no wall-clock deadline
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

# measured window used throughout: peak 61.5%, background 10%, FWHM 350 kHz
WINDOW_PEAK = 0.615
WINDOW_BACKGROUND = 0.10
WINDOW_FWHM = 350e3

T0 = 6.5e-6
MOD_FREQ = 700e3
MOD_DEPTH = 1.0


def assert_same_text(got, expected, note=None) -> None:
    """Assert that two texts, or two byte strings, are equal.

    A mismatch reports the first differing offset, its line number and that
    line of each side, not a diff of the whole texts, so a broken writer on a
    file of thousands of rows fails in milliseconds.
    """
    __tracebackhide__ = True
    if got == expected:
        return
    i = next((k for k, (a, b) in enumerate(zip(got, expected)) if a != b),
             min(len(got), len(expected)))
    newline = "\n" if isinstance(got, str) else b"\n"
    start = got.rfind(newline, 0, i) + 1

    def line_at(text):
        end = text.find(newline, start)
        return text[start:end if end >= 0 else len(text)]

    raise AssertionError(
        f"texts differ at offset {i} (lengths {len(got)} and {len(expected)}), "
        f"line {got.count(newline, 0, i) + 1}:\n  got:      {line_at(got)!r}\n"
        f"  expected: {line_at(expected)!r}" + (f"\n  {note}" if note is not None else ""))


@pytest.fixture(scope="session")
def calibrated():
    return calibrate_from_transmission(WINDOW_PEAK, WINDOW_BACKGROUND, WINDOW_FWHM)


@pytest.fixture(scope="session")
def gauss_spec():
    return PulseSpec(GAUSSIAN, T0)


@pytest.fixture(scope="session")
def amg_spec():
    return PulseSpec(AMG, T0, mod_depth=MOD_DEPTH, mod_freq=MOD_FREQ)


@pytest.fixture(scope="session")
def gauss_grid(gauss_spec):
    return default_grid(gauss_spec)


@pytest.fixture(scope="session")
def amg_grid(amg_spec):
    return default_grid(amg_spec)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)
