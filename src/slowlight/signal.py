"""Time grids and probe-pulse synthesis.

Pulses are described by their real, nonnegative field amplitude e(t) with
intensity I(t) = e(t)^2.  Two shapes are supported: a plain Gaussian,

    I(t) = exp[-ln2 * (t - center)^2 / t0^2],

whose intensity half-maximum points sit at center +- t0, and an
amplitude-modulated Gaussian (AMG) whose field is the Gaussian field times
1 + mod_depth * cos(2*pi*mod_freq*(t - center)).  PulseSpec checks the
pulse's parameters, each against one range; synth accepts a pulse only when
it fits its window by propagate's own rule, errors.require_inside.
_intensity is the package's one |x|^2: np.abs, then squared in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SCALE, WINDOW_EDGE, NumericError, ValidationError, energy_sum
from .errors import require_finite, require_inside, require_within

LN2 = math.log(2.0)

GAUSSIAN = "gaussian"
AMG = "amg"

_KINDS = (GAUSSIAN, AMG)

# largest grid size: 64 MiB per complex array
MAX_GRID_N = 1 << 22


def gaussian_spectral_fwhm(t0: float) -> float:
    """FWHM (Hz) of the intensity spectrum of a Gaussian pulse with width t0."""
    return LN2 / (math.pi * t0)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform time lattice with its conjugate detuning lattice.

    The n time samples start at t_start with spacing dt; n is a power of
    two from 8 to MAX_GRID_N, dt lies in [1/SCALE, SCALE] seconds and
    |t_start| is at most SCALE seconds.  The conjugate lattice has spacing
    df = 1/(n*dt) and spans +-1/(2*dt), with the zero detuning (carrier) bin
    at index n//2.
    """

    n: int
    dt: float
    t_start: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or not _is_pow2(int(self.n)) or self.n < 8:
            raise ValidationError(f"grid size must be a power of two >= 8, got {self.n}")
        if self.n > MAX_GRID_N:
            raise ValidationError(f"grid size {self.n} exceeds the cap of {MAX_GRID_N}")
        require_within(self.dt, 1.0 / SCALE, SCALE, "dt")
        require_within(self.t_start, -SCALE, SCALE, "t_start")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t_start", float(self.t_start))

    @property
    def window(self) -> float:
        """Total time span n*dt in seconds."""
        return self.n * self.dt

    @property
    def df(self) -> float:
        """Detuning bin spacing 1/(n*dt) in Hz."""
        return 1.0 / (self.n * self.dt)

    @property
    def nyquist(self) -> float:
        return 1.0 / (2.0 * self.dt)

    def times(self) -> np.ndarray:
        return self.t_start + np.arange(self.n) * self.dt

    def detunings(self) -> np.ndarray:
        """Ascending detuning lattice; the carrier bin (0 Hz) is at index n//2."""
        return (np.arange(self.n) - self.n // 2) * self.df


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _own_samples(obj, what: str) -> None:
    """Set obj.samples to a frozen complex copy of itself, after checking that
    it holds obj.grid.n finite values; `what` formats its shape for the error."""
    arr = np.array(obj.samples, dtype=np.complex128)
    if arr.shape != (obj.grid.n,):
        raise ValidationError(f"{what.format(arr.shape)}, grid expects ({obj.grid.n},)")
    require_finite(arr, "sample")
    object.__setattr__(obj, "samples", _freeze(arr))


def _intensity(samples: np.ndarray) -> np.ndarray:
    """|x|^2 per sample, squared in place in the array np.abs returns."""
    i = np.abs(samples)
    return np.square(i, out=i)


def _handover(cls, grid: SamplingGrid, samples: np.ndarray):
    """cls(grid, samples), for Waveform or Spectrum, without the constructor's
    defensive copy: the caller hands over a complex array of grid.n samples
    that it has just built and keeps no other reference to.  The array is
    frozen in place."""
    assert samples.dtype == np.complex128 and samples.shape == (grid.n,)
    obj = object.__new__(cls)
    object.__setattr__(obj, "grid", grid)
    object.__setattr__(obj, "samples", _freeze(samples))
    return obj


@dataclass(frozen=True, eq=False)
class Waveform:
    """Complex field samples e(t) on a sampling grid."""

    grid: SamplingGrid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _own_samples(self, "waveform has {} samples")

    def energy(self) -> float:
        """Sum of |e|^2 * dt over the window."""
        return energy_sum(self.samples) * self.grid.dt


@dataclass(frozen=True)
class PulseSpec:
    """Parameters of a probe pulse.

    t0 is the Gaussian width parameter in seconds (intensity half-maximum at
    +-t0 from center, i.e. intensity FWHM = 2*t0), in [1/SCALE, SCALE], and
    center lies in [-SCALE, SCALE] seconds.  mod_depth is the modulation
    depth in [0, 1] and mod_freq the modulation frequency in [0, SCALE] Hz,
    positive for an AMG pulse; a Gaussian pulse ignores both.
    """

    kind: str
    t0: float
    mod_depth: float = 0.0
    mod_freq: float = 0.0
    center: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(f"pulse kind must be one of {_KINDS}, got {self.kind!r}")
        require_within(self.t0, 1.0 / SCALE, SCALE, "t0")
        require_within(self.mod_depth, 0.0, 1.0, "mod_depth")
        require_within(self.mod_freq, 0.0, SCALE, "mod_freq")
        require_within(self.center, -SCALE, SCALE, "center")
        if self.kind == AMG and not self.mod_freq > 0:
            raise ValidationError(f"modulation frequency must be positive, got {self.mod_freq}")


def default_grid(spec: PulseSpec) -> SamplingGrid:
    """Build a sampling grid sized for the pulse's time and spectral support.

    The window is centered on the pulse and wide enough that the detuning bin
    spacing resolves the spectral FWHM eightfold (window = 8 / spectral FWHM,
    which exceeds 16*t0); n is the smallest power of two giving Nyquist >= 8x
    the outermost spectral feature and at least 4 samples per t0 for sub-bin
    peak metrology.
    """
    spectral_fwhm = gaussian_spectral_fwhm(spec.t0)
    f_top = spectral_fwhm + (spec.mod_freq if spec.kind == AMG else 0.0)
    window = max(16.0 * spec.t0, 8.0 / spectral_fwhm)
    # PulseSpec's domain keeps this below about 7e38, a float math.ceil takes
    needed = max(2.0 * 8.0 * f_top * window, 4.0 * window / spec.t0)
    n = 1 << (max(8, math.ceil(needed)) - 1).bit_length()
    return SamplingGrid(n=n, dt=window / n, t_start=spec.center - window / 2.0)


def synth(spec: PulseSpec, grid: SamplingGrid | None = None) -> Waveform:
    """Sample the pulse field, on a default grid unless given one.

    The unit-peak Gaussian field exp[-ln2 (t-center)^2 / (2 t0^2)]; an AMG
    field is that envelope times 1 + A cos(2 pi f (t-center)), so with
    mod_depth = 0 it reproduces the Gaussian sample for sample.  The samples
    pass propagate's window guard, errors.require_inside: they hold energy,
    and at most 1e-6 of it lies in their outer 5%.
    """
    if grid is None:
        grid = default_grid(spec)
    tau = grid.times() - spec.center
    samples = np.exp(-LN2 * tau**2 / (2.0 * spec.t0**2))
    if spec.kind == AMG:
        samples = samples * (1.0 + spec.mod_depth * np.cos(2.0 * math.pi * spec.mod_freq * tau))
    try:
        require_inside("pulse", samples, WINDOW_EDGE)
    except NumericError as exc:
        raise ValidationError(f"pulse t0 = {spec.t0:.3e} s centred at {spec.center:.3e} s does "
                              f"not fit the {grid.window:.3e} s window from "
                              f"{grid.t_start:.3e} s: {exc}") from None
    return Waveform(grid, samples)

