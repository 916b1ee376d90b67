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
