"""The transform and channel identities as properties over the constructors' domains.

Pulses are any PulseSpec that synth accepts on any SamplingGrid with n from
8 to 4096; media are any EitMedium.  The identities: idft inverts dft,
Parseval's theorem holds in physical units, and propagate_spectrum is
linear.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from slowlight import (
    AMG,
    GAUSSIAN,
    Channel,
    EitMedium,
    PulseSpec,
    SamplingGrid,
    Spectrum,
    dft,
    idft,
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
    n = 2 ** draw(st.integers(3, 12))
    return SamplingGrid(n=n, dt=draw(positive), t_start=draw(signed))


@st.composite
def pulses(draw, grid):
    """A pulse synth accepts on grid: window >= 8 t0; the centre anywhere,
    or inside the window."""
    t0 = min(max(1.0 / SCALE, grid.window / 8.0 * draw(unit)), SCALE)
    inside = unit.map(lambda u: min(max(-SCALE, grid.t_start + u * grid.window), SCALE))
    center = draw(signed | inside)
    if draw(st.booleans()):
        return PulseSpec(GAUSSIAN, t0, center=center)
    return PulseSpec(AMG, t0, mod_depth=draw(unit), mod_freq=draw(above_zero), center=center)


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
