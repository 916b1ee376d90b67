"""Channel model: response functions, group delay, calibration, lookup."""

import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from slowlight import (
    Channel,
    EitMedium,
    MeasuredTransmission,
    ValidationError,
    amplitude_response,
    calibrate_from_transmission,
    field_response,
    group_delay,
    intensity_transmission,
    phase_response,
    transmission_lookup,
)

from conftest import WINDOW_BACKGROUND, WINDOW_FWHM, WINDOW_PEAK

# rounded example parameters used for frozen values below
GAMMA = 268.2e3
Z = 0.9083


def transfer_function(m, delta):
    """The medium's complex field response H(delta)."""
    return field_response(Channel.analytic(m), delta)


def test_transfer_function_resonance_is_unity():
    for z in (0.0, 0.5, 3.0):
        m = EitMedium(gamma_eit=GAMMA, z=z, scale=1.0)
        assert transfer_function(m, 0.0) == pytest.approx(1.0 + 0.0j, abs=0.0)


def test_transfer_function_identity_medium():
    m = EitMedium(gamma_eit=GAMMA, z=0.0, scale=1.0)
    deltas = np.array([-1e7, -GAMMA, 0.0, 12.3e3, 5e6])
    np.testing.assert_allclose(transfer_function(m, deltas), 1.0, rtol=0, atol=1e-15)


def test_transfer_function_far_detuned_limit():
    # oracle: evaluate at delta = 1e9 * gamma, where |H|^2 -> scale * e^(-2Z)
    m = EitMedium(gamma_eit=GAMMA, z=Z, scale=1.0)
    h = transfer_function(m, 1e9 * GAMMA)
    assert abs(h) ** 2 == pytest.approx(math.exp(-2.0 * Z), rel=1e-9)
    assert abs(h) ** 2 == pytest.approx(0.1626, abs=5e-5)


def test_two_form_equality():
    # exp[-dZ/(d - iG)] must equal exp[-d^2 Z/(d^2+G^2)] * exp[-i d Z G/(d^2+G^2)]
    rng = np.random.default_rng(7)
    n = 10_000
    deltas = rng.uniform(-1e7, 1e7, n)
    gammas = 10.0 ** rng.uniform(3, 7, n)
    zs = rng.uniform(0.0, 10.0, n)
    compact = np.exp(-deltas * zs / (deltas - 1j * gammas))
    expanded = np.exp(-(deltas**2) * zs / (deltas**2 + gammas**2)) * np.exp(
        -1j * deltas * zs * gammas / (deltas**2 + gammas**2)
    )
    np.testing.assert_allclose(compact, expanded, rtol=1e-12, atol=0)


def test_transfer_equals_amplitude_times_phase(rng):
    for _ in range(50):
        m = EitMedium(
            gamma_eit=10.0 ** rng.uniform(3, 7),
            z=rng.uniform(0, 5),
            scale=rng.uniform(0.05, 1.0),
        )
        deltas = rng.uniform(-1e7, 1e7, 200)
        h = transfer_function(m, deltas)
        reconstructed = amplitude_response(m, deltas) * np.exp(
            -1j * phase_response(m, deltas)
        )
        np.testing.assert_allclose(h, reconstructed, rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.abs(h), amplitude_response(m, deltas), rtol=1e-12)


def test_amplitude_examples(calibrated):
    m1 = EitMedium(gamma_eit=GAMMA, z=Z, scale=1.0)
    assert amplitude_response(m1, 0.0) == pytest.approx(1.0, abs=0.0)
    # at delta = gamma the exponent ratio is exactly 1/2
    assert amplitude_response(m1, GAMMA) == pytest.approx(math.exp(-Z / 2.0), rel=1e-12)
    assert amplitude_response(m1, GAMMA) == pytest.approx(0.6350, abs=5e-5)
    # calibrated window: half of (peak + background) at +-fwhm/2 by construction
    half = 0.5 * (WINDOW_PEAK + WINDOW_BACKGROUND)
    for sign in (+1, -1):
        a2 = amplitude_response(calibrated, sign * WINDOW_FWHM / 2) ** 2
        assert a2 == pytest.approx(half, rel=1e-9)
        assert a2 == pytest.approx(0.3575, abs=1e-4)


def test_phase_examples():
    m = EitMedium(gamma_eit=GAMMA, z=Z, scale=1.0)
    assert phase_response(m, 0.0) == 0.0
    assert phase_response(m, GAMMA) == pytest.approx(Z / 2.0, rel=1e-12)
    # frozen from the closed form: 0.9083 * (7e5 * 2.682e5) / (5.6193e11)
    assert phase_response(m, 700e3) == pytest.approx(0.303461, abs=1e-6)


def test_amplitude_even_phase_odd(rng):
    m = EitMedium(gamma_eit=GAMMA, z=Z, scale=0.7)
    deltas = rng.uniform(0, 5e6, 500)
    np.testing.assert_array_equal(
        amplitude_response(m, deltas), amplitude_response(m, -deltas)
    )
    np.testing.assert_array_equal(
        phase_response(m, deltas), -phase_response(m, -deltas)
    )


def test_monotone_loss(rng):
    m = EitMedium(gamma_eit=GAMMA, z=Z, scale=0.9)
    mags = np.sort(rng.uniform(0, 1e7, 1000))
    amps = np.asarray(amplitude_response(m, mags))
    assert np.all(np.diff(amps) <= 0)


def test_group_delay_examples():
    m = EitMedium(gamma_eit=GAMMA, z=Z, scale=1.0)
    tau0 = Z / (2.0 * math.pi * GAMMA)
    assert group_delay(m, 0.0) == pytest.approx(tau0, rel=1e-12)
    assert tau0 == pytest.approx(0.539e-6, abs=1e-9)
    assert group_delay(m, GAMMA) == 0.0
    assert group_delay(m, -GAMMA) == 0.0
    for sign in (+1, -1):
        assert group_delay(m, sign * 700e3) == pytest.approx(-0.0513e-6, abs=1e-10)


def test_group_delay_is_zero_exactly_at_gamma():
    # pow rounds 1.7371607681654914e16**2 one unit above the product that
    # numpy forms for delta**2, which left 2.7e-34 s at delta = +-gamma
    gamma = 1.7371607681654914e16
    m = EitMedium(gamma_eit=gamma, z=1.0)
    assert group_delay(m, gamma) == 0.0 == group_delay(m, -gamma)


def test_group_delay_vs_finite_difference():
    # oracle: central finite difference of the phase, step gamma * 1e-6
    m = EitMedium(gamma_eit=GAMMA, z=Z, scale=0.8)
    tau0 = m.z / (2.0 * math.pi * m.gamma_eit)
    h = m.gamma_eit * 1e-6
    deltas = np.linspace(-10 * m.gamma_eit, 10 * m.gamma_eit, 2001)
    fd = (phase_response(m, deltas + h) - phase_response(m, deltas - h)) / (
        2.0 * h * 2.0 * math.pi
    )
    gd = np.asarray(group_delay(m, deltas))
    strict = np.abs(gd) >= 1e-3 * tau0
    np.testing.assert_allclose(fd[strict], gd[strict], rtol=1e-6, atol=0)
    # near the zeros at |delta| = gamma, compare on the natural delay scale
    np.testing.assert_allclose(fd[~strict], gd[~strict], rtol=0, atol=1e-6 * tau0)


def test_calibration_example(calibrated):
    assert calibrated.scale == WINDOW_PEAK
    assert calibrated.z == pytest.approx(0.9083, abs=1e-4)
    assert calibrated.gamma_eit == pytest.approx(268.2e3, abs=0.5e3)
    # oracle: the three defining conditions of the returned model
    assert intensity_transmission(calibrated, 0.0) == pytest.approx(WINDOW_PEAK, rel=1e-9)
    assert intensity_transmission(calibrated, 1e12) == pytest.approx(
        WINDOW_BACKGROUND, rel=1e-9
    )
    half = 0.5 * (WINDOW_PEAK + WINDOW_BACKGROUND)
    assert intensity_transmission(calibrated, WINDOW_FWHM / 2) == pytest.approx(
        half, rel=1e-9
    )


def test_calibration_z_closed_form():
    m = calibrate_from_transmission(1.0, math.exp(-2.0), 123e3)
    assert m.z == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "peak,background,fwhm",
    [
        (0.615, 0.615, 350e3),  # degenerate, no window
        (0.5, 0.6, 350e3),
        (0.615, 0.10, 0.0),
        (0.615, 0.10, -1e3),
        (1.2, 0.10, 350e3),
        (0.5, 0.0, 350e3),
    ],
)
def test_calibration_rejects(peak, background, fwhm):
    with pytest.raises(ValidationError):
        calibrate_from_transmission(peak, background, fwhm)


@pytest.mark.parametrize("peak,background,fwhm,message", [
    (0.615, 0.10, math.inf, "fwhm must be finite, got inf"),
    (0.615, 0.10, 1e300, "fwhm must lie in [2e-18, 2.5e+17], got 1e+300"),
    (0.615, 5e-324, 350e3, "background must lie in [1e-18, 1], got 5e-324"),
    # z = 1.1e-16: the bisection gave gamma_eit = 303.1 kHz, not 175.0 kHz
    (0.615, math.nextafter(0.615, 0.0), 350e3,
     "background 0.6149999999999999 lies above peak * exp(-2e-6)"),
])
def test_calibration_names_the_input_outside_its_domain(peak, background, fwhm, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        calibrate_from_transmission(peak, background, fwhm)


def test_calibration_round_trip_identity(rng):
    # measure (peak, background, fwhm) of a known model analytically, then
    # calibrate from those numbers; parameters must come back to 1e-6 relative
    for _ in range(25):
        gamma = 10.0 ** rng.uniform(4, 6.5)
        z = rng.uniform(0.05, 3.0)
        scale = rng.uniform(0.2, 1.0)
        peak = scale
        background = scale * math.exp(-2.0 * z)
        x = -math.log(0.5 * (1.0 + math.exp(-2.0 * z))) / (2.0 * z)
        fwhm = 2.0 * gamma * math.sqrt(x / (1.0 - x))
        m = calibrate_from_transmission(peak, background, fwhm)
        assert m.gamma_eit == pytest.approx(gamma, rel=1e-6)
        assert m.z == pytest.approx(z, rel=1e-6)
        assert m.scale == pytest.approx(scale, rel=1e-6)


def test_calibrated_model_fwhm_via_root_finding(calibrated):
    # independent check of the half-width location by root bracketing
    half = 0.5 * (WINDOW_PEAK + WINDOW_BACKGROUND)
    crossing = brentq(
        lambda d: float(intensity_transmission(calibrated, d)) - half,
        1.0,
        10.0 * calibrated.gamma_eit,
        xtol=1e-6,
    )
    assert 2.0 * crossing == pytest.approx(WINDOW_FWHM, rel=1e-6)


def test_medium_validation():
    with pytest.raises(ValidationError):
        EitMedium(gamma_eit=0.0, z=1.0)
    with pytest.raises(ValidationError):
        EitMedium(gamma_eit=1e5, z=-0.1)
    with pytest.raises(ValidationError):
        EitMedium(gamma_eit=1e5, z=1.0, scale=0.0)
    with pytest.raises(ValidationError):
        EitMedium(gamma_eit=1e5, z=1.0, scale=1.5)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["gamma_eit", "z"])
def test_medium_rejects_non_finite(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        EitMedium(**{"gamma_eit": 1e5, "z": 1.0, name: value})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("response", [
    amplitude_response, phase_response, group_delay, intensity_transmission,
    lambda m, d: transmission_lookup(_table(), d),
    lambda m, d: field_response(Channel(m), d),
], ids=["amplitude", "phase", "group_delay", "intensity", "lookup", "field"])
def test_responses_reject_non_finite_detunings(response, value):
    m = EitMedium(GAMMA, Z)
    with pytest.raises(ValidationError, match=f"detuning must be finite, got {value}"):
        response(m, value)
    with pytest.raises(ValidationError, match=f"detuning must be finite, got {value}"):
        response(m, np.array([0.0, 1e5, value, math.nan]))


def _table():
    return MeasuredTransmission(
        detunings=np.array([-2e5, -1e5, 0.0, 1e5, 2e5]),
        transmissions=np.array([0.2, 0.4, 0.6, 0.4, 0.2]),
    )


def test_transmission_lookup_tabulated_points():
    table = _table()
    assert transmission_lookup(table, 0.0) == 0.6
    assert transmission_lookup(table, -2e5) == 0.2


def test_transmission_lookup_midpoint():
    table = _table()
    assert transmission_lookup(table, 1.5e5) == pytest.approx(0.3, rel=1e-12)


def test_transmission_lookup_extrapolation():
    # outside the table: the mean of the endpoints, not the nearest endpoint
    table = MeasuredTransmission(
        np.array([-2e5, -1e5, 0.0, 1e5, 2e5]), np.array([0.3, 0.4, 0.6, 0.4, 0.1])
    )
    assert transmission_lookup(table, 9e5) == 0.5 * float(0.3 + 0.1)
    assert transmission_lookup(table, -9e5) == 0.5 * float(0.3 + 0.1)


def test_transmission_lookup_array_and_clamp():
    table = _table()
    values = np.asarray(transmission_lookup(table, np.array([-3e5, -5e4, 5e4, 3e5])))
    np.testing.assert_allclose(values, [0.2, 0.5, 0.5, 0.2], rtol=1e-12)
    assert np.all((values >= 0) & (values <= 1))


def test_measured_transmission_validation():
    with pytest.raises(ValidationError):
        MeasuredTransmission(np.array([0.0, 1.0, 2.0]), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValidationError):
        MeasuredTransmission(
            np.array([0.0, 1.0, 1.0, 2.0]), np.array([0.1, 0.2, 0.3, 0.4])
        )
    with pytest.raises(ValidationError):
        MeasuredTransmission(
            np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.1, 0.2, 1.3, 0.4])
        )
    with pytest.raises(ValidationError,
                       match=r"tabulated transmission must be finite, got nan at index 2"):
        MeasuredTransmission(
            np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.1, 0.2, np.nan, 0.4])
        )


@pytest.mark.parametrize("detunings, bad", [
    ([0.0, math.nan, 2.0, 3.0], "nan at index 1"),
    ([0.0, 1.0, 2.0, math.inf], "inf at index 3"),
])
def test_table_rejects_non_finite_detunings(detunings, bad):
    with pytest.raises(ValidationError, match=f"tabulated detuning must be finite, got {bad}"):
        MeasuredTransmission(detunings, [0.5] * 4)
