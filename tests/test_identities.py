"""The transform, channel and calibration identities as properties over the
constructors' domains.

Pulses are any PulseSpec that synth accepts on a SamplingGrid with n from 8
to 4096 whose window lies within SCALE of zero; media are any EitMedium;
windows are any 0 < background < peak <= 1 and fwhm > 0.  The identities:
idft inverts dft, Parseval's theorem holds in physical units, a whole-sample
circular shift multiplies the spectrum by its phase ramp, propagate_spectrum
is linear, group_delay changes sign exactly at |delta| = gamma_eit and is
dPhi/ddelta / 2pi, and calibrate_from_transmission either names the input
outside its domain or returns a model meeting its three conditions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from slowlight import (
    AMG,
    GAUSSIAN,
    Channel,
    EitMedium,
    PulseSpec,
    SamplingGrid,
    Spectrum,
    ValidationError,
    Waveform,
    calibrate_from_transmission,
    dft,
    group_delay,
    idft,
    intensity_transmission,
    phase_response,
    propagate_spectrum,
    synth,
)
from slowlight.errors import SCALE

# the domains SamplingGrid, synth and EitMedium check: scales within SCALE
positive = st.floats(min_value=1.0 / SCALE, max_value=SCALE)
signed = st.floats(min_value=-SCALE, max_value=SCALE)
unit = st.floats(min_value=0.0, max_value=1.0)
above_zero = st.floats(min_value=0.0, max_value=SCALE, exclude_min=True)

# below the normal float range (2.2e-308) squares and products round to an
# absolute, not a relative, precision; summed over n <= 4096 terms and scaled
# by dt, df or 1/dt <= SCALE that rounding stays below this floor
FLOOR = 1e-300


@st.composite
def grids(draw):
    """A grid whose window lies within SCALE of zero, as a pulse's centre must."""
    n = 2 ** draw(st.integers(3, 12))
    dt = draw(st.floats(min_value=1.0 / SCALE, max_value=SCALE / n))
    return SamplingGrid(n=n, dt=dt, t_start=min(draw(signed), SCALE - n * dt))


@st.composite
def pulses(draw, grid):
    """A pulse synth accepts on grid: its samples hold energy, and at most
    1e-6 of it lies in their outer 5%.  Drawn with t0 from a quarter sample
    to a sixteenth of the window and the centre in the window's middle 40%,
    then filtered through synth itself, which also rejects every pulse on a
    grid whose times do not resolve dt beside t_start."""
    t0 = max(1.0 / SCALE, grid.window * draw(st.floats(1.0 / (4 * grid.n), 1.0 / 16)))
    center = grid.t_start + grid.window * (0.3 + 0.4 * draw(unit))
    if draw(st.booleans()):
        spec = PulseSpec(GAUSSIAN, t0, center=center)
    else:
        spec = PulseSpec(AMG, t0, mod_depth=draw(unit), mod_freq=draw(above_zero),
                         center=center)
    try:
        synth(spec, grid)
    except ValidationError:
        reject()
    return spec


media = st.builds(EitMedium, gamma_eit=positive, z=st.floats(min_value=0.0, max_value=SCALE),
                  scale=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))


@settings(max_examples=40)
@given(data=st.data())
def test_idft_inverts_dft(data):
    grid = data.draw(grids())
    w = synth(data.draw(pulses(grid)), grid)
    back = idft(dft(w)).samples
    np.testing.assert_allclose(back, w.samples, rtol=0,
                               atol=1e-12 * np.max(np.abs(w.samples)) + FLOOR)


@settings(max_examples=40)
@given(data=st.data())
def test_parseval(data):
    grid = data.draw(grids())
    w = synth(data.draw(pulses(grid)), grid)
    np.testing.assert_allclose(dft(w).energy(), w.energy(), rtol=1e-12, atol=FLOOR)


@settings(max_examples=40)
@given(data=st.data(), medium=media,
       a=st.complex_numbers(max_magnitude=10.0), b=st.complex_numbers(max_magnitude=10.0))
def test_propagate_spectrum_is_linear(data, medium, a, b):
    grid = data.draw(grids())
    s1, s2 = (dft(synth(data.draw(pulses(grid)), grid)) for _ in range(2))
    channel = Channel(medium)
    combined = propagate_spectrum(Spectrum(grid, a * s1.samples + b * s2.samples), channel)
    p1, p2 = (propagate_spectrum(s, channel).samples for s in (s1, s2))
    size = abs(a) * np.max(np.abs(p1)) + abs(b) * np.max(np.abs(p2))
    np.testing.assert_allclose(combined.samples, a * p1 + b * p2, rtol=0,
                               atol=1e-12 * size + FLOOR)


@settings(max_examples=40)
@given(data=st.data())
def test_whole_sample_shift_is_a_phase_ramp(data):
    # rolling by k samples multiplies bin j by exp(-i 2 pi delta_j k dt), with
    # delta_j k dt = (j - n/2) k / n cycles, reduced mod 1 exactly in integers
    grid = data.draw(grids())
    w = synth(data.draw(pulses(grid)), grid)
    k = data.draw(st.integers(0, grid.n - 1))
    cycles = ((np.arange(grid.n) - grid.n // 2) * k % grid.n) / grid.n
    expected = dft(w).samples * np.exp(-2j * math.pi * cycles)
    shifted = dft(Waveform(grid, np.roll(w.samples, k))).samples
    np.testing.assert_allclose(shifted, expected, rtol=0,
                               atol=1e-12 * np.max(np.abs(expected)) + FLOOR)


@settings(max_examples=100)
@given(medium=media, data=st.data())
def test_group_delay_changes_sign_exactly_at_gamma(medium, data):
    gamma = medium.gamma_eit
    near = unit.map(lambda u: min(gamma * (0.5 + u), SCALE))  # within a factor 2 of gamma
    delta = data.draw(signed | near)
    delay = float(group_delay(medium, delta))
    assert float(group_delay(medium, gamma)) == 0.0 == float(group_delay(medium, -gamma))
    # rounding is monotone, so delta^2 and gamma^2 keep their order: the
    # delay has the sign of gamma - |delta|, or underflowed to zero
    assert np.sign(delay) in (0.0, np.sign(gamma - abs(delta)))
    if medium.z >= 1e-200 and abs(abs(delta) / gamma - 1.0) >= 1e-9:
        assert delay != 0.0


@settings(max_examples=100)
@given(medium=media, u=st.floats(min_value=-2.0, max_value=2.0))
def test_group_delay_is_the_phase_slope(medium, u):
    # central difference of Phi over +-h, h = 1e-4 gamma: truncation error
    # (h/gamma)^2 and rounding 1e-16 gamma/h, both far below 1e-6 of the
    # delay's scale z/(2 pi gamma)
    gamma = medium.gamma_eit
    delta, h = max(-SCALE / 2, min(gamma * u, SCALE / 2)), 1e-4 * gamma
    slope = (float(phase_response(medium, delta + h))
             - float(phase_response(medium, delta - h))) / (2.0 * h * 2.0 * math.pi)
    scale = medium.z / (2.0 * math.pi * gamma)
    assert abs(float(group_delay(medium, delta)) - slope) <= 1e-6 * scale + FLOOR


@settings(max_examples=150)
@given(peak=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       ratio=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       fwhm=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_calibration_conditions(peak, ratio, fwhm):
    background = peak * ratio
    inside = (1.0 / SCALE <= background < peak and 2.0 / SCALE <= fwhm <= SCALE / 4
              and 0.5 * math.log(peak / background) >= 1e-6)
    if not inside:
        with pytest.raises(ValidationError, match="background|fwhm"):
            calibrate_from_transmission(peak, background, fwhm)
        return
    m = calibrate_from_transmission(peak, background, fwhm)
    assert float(intensity_transmission(m, 0.0)) == pytest.approx(peak, rel=1e-15)
    assert m.scale * math.exp(-2.0 * m.z) == pytest.approx(background, rel=1e-13)  # T(inf)
    half = 0.5 * (peak + background)
    for edge in (-fwhm / 2, fwhm / 2):
        assert abs(float(intensity_transmission(m, edge)) - half) <= 1e-9 * (peak - background)
