"""Periodic 2D spectral substrate: grids, transforms, symbols and norms.

Fields live on an M x M periodic grid of side L.  Fourier values are stored
as Fourier-series coefficients (DFT divided by M^2), so that Plancherel takes
the continuum form

    integral |u|^2 dx = L^2 * sum_xi |u_hat(xi)|^2,

which makes norm values comparable across resolutions.  Frequencies follow
numpy's FFT layout {0, ..., M/2-1, -M/2, ..., -1} * (2*pi/L).

The 1/M^2 scaling is folded into the transforms: every field transform in
the laboratory runs with norm="forward", so the forward transform yields the
coefficients directly and the inverse sums them without rescaling.  The
space-time layer (xsb_analysis) does the same with its 1D, 2D and 3D
transforms; only resonant_gauge_phase rescales by hand, exactly by M^2.

Every 2D transform of an M x M grid array goes through the four functions
fft2_into, ifft2_into, rfft2_into and irfft2_into, which write into a buffer
the caller owns (in place for the complex pair): the solver's kernels pass
their own buffers, to_fourier and to_physical a fresh output.  Each is two
1D np.fft passes with out= (an argument numpy has had since 2.0), over the
last two axes in numpy's own order, so the results are bit-identical to
np.fft.fft2/ifft2/rfft2/irfft2 without an M x M temporary per pass, and a
(K, M, M) stack of K fields transforms slice by slice with the same bits.
A SpectralField may hold such a stack; the transforms, apply_K, free_evolve
and sobolev_norms act on each field of it, while sobolev_norm and
lebesgue_norm take one field.
np.fft.ifft2 and np.fft.irfft2 cannot stand in: numpy 2.4 accepts their out=
argument but returns a fresh array and leaves out untouched.  Callers look
the four up as spectral_core.<name> at call time, never bind them at import,
so wrappers installed on this module see them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PHYSICAL = "physical"
FOURIER = "fourier"

# torus side used across the laboratory unless a study overrides it
DEFAULT_DOMAIN_LENGTH = 2.0 * np.pi * 16.0


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid: M modes per axis on a torus of side L.

    Invariants: M is an even power of two and L is positive and finite; the
    frequency set per axis is {-M/2, ..., M/2-1} * (2*pi/L).  xi1 is that set
    as an (M, 1) column and xi2 as a (1, M) row, so expressions in both
    broadcast to the M x M lattice without storing either axis M times.
    """

    modes_per_axis: int
    domain_length: float = DEFAULT_DOMAIN_LENGTH

    def __post_init__(self) -> None:
        m = self.modes_per_axis
        if m < 2 or (m & (m - 1)) != 0:
            raise ValueError(f"modes_per_axis must be a power of two and at least 2, got {m}")
        # NaN fails every comparison, so this refuses it too
        length = self.domain_length
        if not 0 < length < np.inf:
            raise ValueError(f"domain_length must be positive and finite, got {length}")

    @property
    def frequency_step(self) -> float:
        return 2.0 * np.pi / self.domain_length

    @property
    def physical_step(self) -> float:
        return self.domain_length / self.modes_per_axis

    @cached_property
    def mode_numbers(self) -> np.ndarray:
        """Integer mode numbers in FFT order: {0,...,M/2-1,-M/2,...,-1}."""
        m = self.modes_per_axis
        return np.rint(np.fft.fftfreq(m, d=1.0 / m)).astype(np.int64)

    @cached_property
    def frequencies(self) -> np.ndarray:
        return self.mode_numbers * self.frequency_step

    @cached_property
    def xi1(self) -> np.ndarray:
        """First frequency component, shape (M, 1)."""
        return self.frequencies[:, None]

    @cached_property
    def xi2(self) -> np.ndarray:
        """Second frequency component, shape (1, M)."""
        return self.frequencies[None, :]

    @cached_property
    def xi_squared(self) -> np.ndarray:
        return self.xi1**2 + self.xi2**2

    @cached_property
    def alpha_symbol(self) -> np.ndarray:
        """Symbol xi_1^2/|xi|^2 of the nonlocal operator; 0 at the zero mode."""
        with np.errstate(invalid="ignore"):
            a = self.xi1**2 / self.xi_squared
        a[0, 0] = 0.0
        return a

    @cached_property
    def dealias_keep(self) -> np.ndarray:
        """2/3 rule on one axis: keeps mode numbers with 3|k| <= M."""
        return 3 * np.abs(self.mode_numbers) <= self.modes_per_axis

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: dealias_keep on both axes."""
        keep = self.dealias_keep
        return keep[:, None] & keep[None, :]

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical meshes (x1, x2) with x1 varying along axis 0."""
        x = np.arange(self.modes_per_axis) * self.physical_step
        return x[:, None] * np.ones((1, self.modes_per_axis)), np.ones(
            (self.modes_per_axis, 1)
        ) * x[None, :]

    def bracket(self, s: float) -> np.ndarray:
        """Weight <xi>^s = (1+|xi|^2)^{s/2} on the mode lattice."""
        weight = 1.0 + self.xi_squared
        weight **= 0.5 * s
        return weight


@dataclass
class SpectralField:
    """Complex field snapshot on a grid, tagged physical or fourier.

    values is M x M, or K x M x M for a stack of K fields on the grid.
    """

    grid: GridSpec
    values: np.ndarray
    representation: str = PHYSICAL

    def __post_init__(self) -> None:
        m = self.grid.modes_per_axis
        if self.values.ndim not in (2, 3) or self.values.shape[-2:] != (m, m):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid ({m}, {m})"
            )
        if self.representation not in (PHYSICAL, FOURIER):
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.values.dtype != np.complex128:
            self.values = self.values.astype(np.complex128)

    @classmethod
    def zeros(cls, grid: GridSpec, representation: str = PHYSICAL) -> "SpectralField":
        m = grid.modes_per_axis
        return cls(grid, np.zeros((m, m), dtype=np.complex128), representation)


def fft2_into(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out <- Fourier coefficients of a (M x M or a stack, real or complex); out may be a."""
    np.fft.fft(a, axis=-1, norm="forward", out=out)
    return np.fft.fft(out, axis=-2, norm="forward", out=out)


def ifft2_into(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out <- physical values of the coefficients a; out may be a."""
    np.fft.ifft(a, axis=-1, norm="forward", out=out)
    return np.fft.ifft(out, axis=-2, norm="forward", out=out)


def rfft2_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out (... x M x M/2+1 complex) <- half-spectrum coefficients of the real ... x M x M x."""
    np.fft.rfft(x, axis=-1, norm="forward", out=out)
    return np.fft.fft(out, axis=-2, norm="forward", out=out)


def irfft2_into(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out (real ... x M x M) <- the field of the half spectrum a, which is overwritten."""
    np.fft.ifft(a, axis=-2, norm="forward", out=a)
    return np.fft.irfft(a, n=out.shape[-1], axis=-1, norm="forward", out=out)


def to_fourier(field: SpectralField) -> SpectralField:
    """Transform physical values to Fourier-series coefficients.

    Coefficients approximate (1/L^2) * integral u exp(-i xi.x) dx; constant
    field c maps to a single coefficient c at xi = 0.
    """
    if field.representation == FOURIER:
        return field
    hat = fft2_into(field.values, np.empty_like(field.values))
    return SpectralField(field.grid, hat, FOURIER)


def to_physical(field: SpectralField) -> SpectralField:
    """Inverse of to_fourier; round-trip error stays below 1e-12."""
    if field.representation == PHYSICAL:
        return field
    values = ifft2_into(field.values, np.empty_like(field.values))
    return SpectralField(field.grid, values, PHYSICAL)


def apply_K(field: SpectralField) -> SpectralField:
    """Apply the nonlocal multiplier with symbol xi_1^2/|xi|^2 (0 at xi=0).

    The symbol lies in [0,1], so the operator contracts L^2; it is
    self-adjoint and maps real fields to real fields.  Output representation
    equals input representation.
    """
    hat = to_fourier(field)
    out = hat.values * field.grid.alpha_symbol
    result = SpectralField(field.grid, out, FOURIER)
    return result if field.representation == FOURIER else to_physical(result)


def free_evolve(field: SpectralField, t: float, delta: float = 0.0) -> SpectralField:
    """Propagate by the free (optionally damped) linear group for time t.

    Each mode is multiplied by exp(-i t |xi|^2); delta > 0 adds the scalar
    decay exp(-delta t).  Undamped, this is an isometry of every H^s norm.
    """
    hat = to_fourier(field)
    phase = np.exp(-1j * t * field.grid.xi_squared)
    if delta != 0.0:
        phase = phase * np.exp(-delta * t)
    result = SpectralField(field.grid, hat.values * phase, FOURIER)
    return result if field.representation == FOURIER else to_physical(result)


def sobolev_norms(grid: GridSpec, hats: np.ndarray, s: float) -> np.ndarray:
    """H^s norm L * sqrt(sum <xi>^{2s} |u_hat|^2) of each M x M slice of the
    Fourier coefficients hats, in one reduction; shape hats.shape[:-2].

    The quadrature weight makes s = 0 reproduce the physical L^2 norm on the
    torus (Plancherel); a single mode of amplitude A at xi0 has norm
    A * L * <xi0>^s.
    """
    sq = np.abs(hats)
    sq **= 2
    if s != 0.0:
        sq *= grid.bracket(2.0 * s)
    return grid.domain_length * np.sqrt(np.sum(sq, axis=(-2, -1)))


def sobolev_norm(field: SpectralField, s: float) -> float:
    """H^s norm of one field: sobolev_norms of its coefficients."""
    if field.values.ndim != 2:
        raise ValueError("sobolev_norm takes one field; sobolev_norms takes a stack")
    return float(sobolev_norms(field.grid, to_fourier(field).values, s))


def lebesgue_norm(field: SpectralField, p: float) -> float:
    """Physical-space L^p quadrature norm; constant c has norm |c|*L^{2/p}."""
    if not p > 0:
        raise ValueError("p must be positive")
    if field.values.ndim != 2:
        raise ValueError("lebesgue_norm takes one field")
    phys = to_physical(field)
    dx = field.grid.physical_step
    return float(np.sum(np.abs(phys.values) ** p) ** (1.0 / p) * dx ** (2.0 / p))


def loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x); x and y must be positive.

    Raises ValueError unless every x and y is finite and positive and x holds
    at least two distinct values: a line through one abscissa has no slope.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for name, vals in (("x", x), ("y", y)):
        if not np.all((vals > 0.0) & (vals < np.inf)):
            raise ValueError(f"slope fit needs finite positive {name} values")
    if x.size < 2 or x.min() == x.max():
        raise ValueError("slope fit needs at least two distinct x values")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
