"""Space-time spectral fields and dispersive-weighted norms.

Fields live on an M x M x M_t mode lattice. A field may carry constant
frequency offsets (a "carrier"): the stored array is the demodulated
envelope and every weight is evaluated at lattice-plus-offset. This keeps
high-frequency wave packets representable on a small envelope grid without
losing exactness, since the carrier phase never has to be sampled.

xsb_norm weights a field by <xi>^s <tau + |xi|^2>^b, the modulation from the
characteristic surface tau = -|xi|^2 of e^{it Lap}.  It builds that weight
as one dense (M, M, M_t) array, so it is the general-field oracle for the
separable engine in knapp.

Fourier values are Fourier-series coefficients, as in spectral_core: every
forward transform is called with norm="forward", which divides by the mode
count (M^2 M_t for the space-time transform, M_t for a time series), and
every inverse sums the coefficients without rescaling.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ..spectral_core import FOURIER, PHYSICAL, GridSpec


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Spatial grid crossed with a periodic time window of length T_w.

    tau frequencies per the same series convention as space:
    {-M_t/2, ..., M_t/2 - 1} * (2*pi / T_w).
    """

    spatial: GridSpec
    time_window: float
    time_samples: int

    def __post_init__(self) -> None:
        if not self.time_window > 0:
            raise ValueError("time_window must be positive")
        mt = self.time_samples
        if mt < 2 or mt % 2:
            raise ValueError(f"time_samples must be even and >= 2, got {mt}")
        # the b-weight <tau + |xi|^2> is only faithful if the tau band
        # reaches past |xi|^2 of the modes kept by the 2/3 rule; rounding is
        # monotone, so that maximum is exactly twice the largest retained xi1^2
        sp = self.spatial
        if self.tau_nyquist <= 2.0 * np.max(sp.frequencies[sp.dealias_keep] ** 2):
            warnings.warn(
                "tau band does not cover |xi|^2 of retained modes; "
                "b-weights will saturate",
                stacklevel=2,
            )

    @property
    def tau_step(self) -> float:
        return 2.0 * np.pi / self.time_window

    @property
    def tau_nyquist(self) -> float:
        return 0.5 * self.time_samples * self.tau_step

    @property
    def volume(self) -> float:
        return self.spatial.domain_length**2 * self.time_window

    @property
    def tau_numbers(self) -> np.ndarray:
        mt = self.time_samples
        return np.rint(np.fft.fftfreq(mt, d=1.0 / mt)).astype(np.int64)

    @property
    def taus(self) -> np.ndarray:
        return self.tau_numbers * self.tau_step


@dataclass
class SpaceTimeField:
    """Complex envelope on the mode lattice plus a carrier frequency."""

    grid: SpaceTimeGrid
    values: np.ndarray
    representation: str
    xi1_offset: float = 0.0
    xi2_offset: float = 0.0
    tau_offset: float = 0.0

    def __post_init__(self) -> None:
        m = self.grid.spatial.modes_per_axis
        expected = (m, m, self.grid.time_samples)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        if self.representation not in (PHYSICAL, FOURIER):
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.values.dtype != np.complex128:
            self.values = self.values.astype(np.complex128)
        if not np.all(np.isfinite(self.values.view(np.float64))):
            raise ValueError("values must be finite")

    @classmethod
    def zeros(cls, grid: SpaceTimeGrid) -> "SpaceTimeField":
        m = grid.spatial.modes_per_axis
        return cls(grid, np.zeros((m, m, grid.time_samples), dtype=np.complex128), FOURIER)

    @property
    def carrier(self) -> tuple:
        return (self.xi1_offset, self.xi2_offset, self.tau_offset)


def to_fourier3(F: SpaceTimeField) -> SpaceTimeField:
    if F.representation == FOURIER:
        return F
    return replace(F, values=np.fft.fftn(F.values, norm="forward"), representation=FOURIER)


def to_physical3(F: SpaceTimeField) -> SpaceTimeField:
    if F.representation == PHYSICAL:
        return F
    return replace(F, values=np.fft.ifftn(F.values, norm="forward"), representation=PHYSICAL)


def xsb_norm(F: SpaceTimeField, s: float, b: float) -> float:
    """Weighted L^2 norm with weight <xi>^s <tau + |xi|^2>^b at true frequencies.

    Plancherel-consistent: at s = b = 0 this is the space-time L^2 norm,
    and a single mode of amplitude A contributes A * sqrt(volume) * weight.
    """
    hat = to_fourier3(F)
    sp = F.grid.spatial
    xi_sq = (sp.xi1 + F.xi1_offset) ** 2 + (sp.xi2 + F.xi2_offset) ** 2
    taus = F.grid.taus + F.tau_offset
    tau_plus = taus[None, None, :] + xi_sq[:, :, None]
    w2 = ((1.0 + xi_sq) ** s)[:, :, None] * (1.0 + tau_plus**2) ** b
    total = np.sum(w2 * (hat.values.real**2 + hat.values.imag**2))
    return float(np.sqrt(F.grid.volume * total))
