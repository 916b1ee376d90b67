"""Time grids and probe-pulse synthesis.

Pulses are described by their real, nonnegative field amplitude e(t) with
intensity I(t) = e(t)^2.  Two shapes are supported: a plain Gaussian,

    I(t) = exp[-ln2 * (t - center)^2 / t0^2],

whose intensity half-maximum points sit at center +- t0, and an
amplitude-modulated Gaussian (AMG) whose field is the Gaussian field times
1 + mod_depth * cos(2*pi*mod_freq*(t - center)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SCALE, ValidationError, require_finite, require_finite_array, require_within

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
        require_finite(self, "dt", "t_start")
        require_within(self, 1.0 / SCALE, SCALE, "dt")
        require_within(self, -SCALE, SCALE, "t_start")
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
    require_finite_array(arr, "sample")
    object.__setattr__(obj, "samples", _freeze(arr))


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
        return float(np.sum(np.abs(self.samples) ** 2) * self.grid.dt)


@dataclass(frozen=True)
class PulseSpec:
    """Parameters of a probe pulse.

    t0 is the Gaussian width parameter in seconds (intensity half-maximum at
    +-t0 from center, i.e. intensity FWHM = 2*t0).  For AMG pulses mod_depth
    is the modulation depth in [0, 1] and mod_freq the modulation frequency
    in Hz.
    """

    kind: str
    t0: float
    mod_depth: float = 0.0
    mod_freq: float = 0.0
    center: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(f"pulse kind must be one of {_KINDS}, got {self.kind!r}")
        require_finite(self, "t0", "mod_depth", "mod_freq", "center")
        if not self.t0 > 0:
            raise ValidationError(f"pulse width t0 must be positive, got {self.t0}")
        if self.kind == AMG:
            if not 0.0 <= self.mod_depth <= 1.0:
                raise ValidationError(
                    f"modulation depth must lie in [0, 1] to keep the field "
                    f"nonnegative, got {self.mod_depth}"
                )
            if not self.mod_freq > 0:
                raise ValidationError(
                    f"modulation frequency must be positive, got {self.mod_freq}"
                )


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
    needed = max(2.0 * 8.0 * f_top * window, 4.0 * window / spec.t0)
    if not math.isfinite(needed):  # math.ceil would raise OverflowError
        raise ValidationError(
            f"grid sample count {needed} is not finite; the cap is {MAX_GRID_N}"
        )
    n_needed = max(8, math.ceil(needed))
    n = 8
    while n < n_needed:
        n *= 2
    return SamplingGrid(n=n, dt=window / n, t_start=spec.center - window / 2.0)


def synth(spec: PulseSpec, grid: SamplingGrid | None = None) -> Waveform:
    """Sample the pulse field, on a default grid unless given one.

    The unit-peak Gaussian field exp[-ln2 (t-center)^2 / (2 t0^2)]; an AMG
    field is that envelope times 1 + A cos(2 pi f (t-center)), so with
    mod_depth = 0 it reproduces the Gaussian sample for sample.  t0 must lie
    in [1/SCALE, SCALE] seconds, and |center| and mod_freq at most SCALE.
    """
    if grid is None:
        grid = default_grid(spec)
    require_within(spec, 1.0 / SCALE, SCALE, "t0")
    require_within(spec, -SCALE, SCALE, "center", "mod_freq")
    if grid.window < 8.0 * spec.t0:
        raise ValidationError(
            f"grid window {grid.window:.3e} s is shorter than 8*t0 = "
            f"{8.0 * spec.t0:.3e} s; the pulse would be truncated"
        )
    tau = grid.times() - spec.center
    samples = np.exp(-LN2 * tau**2 / (2.0 * spec.t0**2))
    if spec.kind == AMG:
        samples = samples * (1.0 + spec.mod_depth * np.cos(2.0 * math.pi * spec.mod_freq * tau))
    return Waveform(grid, samples)

