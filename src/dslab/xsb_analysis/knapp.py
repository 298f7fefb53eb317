"""Knapp-type wave packets and the trilinear sharpness sweep.

The packet triple concentrates u on a 1 x 1/N x 1 tube at spatial frequency
(0, N) riding the dispersive surface (tau ~ -N^2) and v = w on a squat
1 x N^{-1/2} x 1 box at the origin. Norm power laws in N follow from box
geometry alone: ||u|| ~ N^{s - 1/2} and ||v|| ~ N^{-1/4}. The output has
amplitude N^{-3/2} on a volume N^{-1/2} at modulation N^{1/2}, so the
trilinear ratio goes like N^{a + (b - 1)/2 - 3/4}, about N^{a - 1}. This
high x low x low family is capped at N^{a + b - 3/2} for any xi2-width of
v = w, so it does not probe the a = 1/2 threshold. Every N in a sweep is
measured on one fixed grid: envelopes stay put while only the carrier and
box widths change.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..spectral_core import FOURIER, GridSpec, loglog_slope
from .spacetime import (
    SpaceTimeField,
    SpaceTimeGrid,
    to_fourier3,
    to_physical3,
    xsb_norm,
)


@dataclass(frozen=True)
class KnappConfig:
    """Box parameter N plus the exponent triple of the estimate under test."""

    N: float
    s: float
    a: float
    b: float = 0.51

    def __post_init__(self) -> None:
        if not self.N >= 4:
            raise ValueError(f"N must be >= 4, got {self.N}")


def knapp_grid(n_max: float, time_samples: int = 32) -> SpaceTimeGrid:
    """Fixed grid resolving every box down to width 1/n_max.

    dxi = 1/n_max with 8*n_max modes per axis; dtau = 1/2. Envelope
    frequencies stay below |xi| ~ 4, so the plain-grid tau-Nyquist check
    (tuned for carrier-free fields) is suppressed here.
    """
    m = int(round(8 * n_max))
    if m & (m - 1):
        raise ValueError("8 * n_max must be a power of two")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SpaceTimeGrid(
            spatial=GridSpec(m, domain_length=2.0 * np.pi * n_max),
            time_window=4.0 * np.pi,
            time_samples=time_samples,
        )


def _check_representable(cfg: KnappConfig, grid: SpaceTimeGrid) -> None:
    dxi = grid.spatial.frequency_step
    if 1.0 / cfg.N < dxi:
        raise ValueError(f"grid too coarse: 1/N = {1.0 / cfg.N} < dxi = {dxi}")
    if 1.0 / np.sqrt(cfg.N) < dxi:
        raise ValueError(
            f"grid too coarse: 1/sqrt(N) = {1.0 / np.sqrt(cfg.N)} < dxi = {dxi}"
        )


def _box_indicator(
    grid: SpaceTimeGrid, xi1_half: float, xi2_half: float, tau_half: float
) -> np.ndarray:
    """Half-open product box [-W, W) per axis, in envelope coordinates."""
    sp = grid.spatial
    f = sp.frequencies
    in1 = (f >= -xi1_half) & (f < xi1_half)
    in2 = (f >= -xi2_half) & (f < xi2_half)
    int_ = (grid.taus >= -tau_half) & (grid.taus < tau_half)
    out = np.zeros((sp.modes_per_axis, sp.modes_per_axis, grid.time_samples))
    out[np.ix_(in1, in2, int_)] = 1.0
    return out.astype(np.complex128)


def knapp_triple(
    cfg: KnappConfig, grid: SpaceTimeGrid
) -> tuple[SpaceTimeField, SpaceTimeField, SpaceTimeField]:
    """Indicator data: u on the tube at (0, N, -N^2), v = w on the squat box.

    v and w share storage; treat the returned fields as read-only.
    """
    _check_representable(cfg, grid)
    n = cfg.N
    u = SpaceTimeField(
        grid,
        _box_indicator(grid, 1.0, 1.0 / n, 1.0),
        FOURIER,
        xi1_offset=0.0,
        xi2_offset=float(n),
        tau_offset=-float(n) ** 2,
    )
    v = SpaceTimeField(grid, _box_indicator(grid, 1.0, 1.0 / np.sqrt(n), 1.0), FOURIER)
    w = SpaceTimeField(grid, v.values, FOURIER)
    return u, v, w


def _product_carrier(u: SpaceTimeField, v: SpaceTimeField, w: SpaceTimeField) -> tuple:
    return (
        u.xi1_offset - v.xi1_offset + w.xi1_offset,
        u.xi2_offset - v.xi2_offset + w.xi2_offset,
        u.tau_offset - v.tau_offset + w.tau_offset,
    )


def trilinear_output_spectrum(
    u: SpaceTimeField,
    v: SpaceTimeField,
    w: SpaceTimeField,
    c1: float,
    c2: float,
) -> SpaceTimeField:
    """Fourier data of (c1 I + c2 K)(u conj(v)) w with carrier bookkeeping.

    The nonlocal symbol acts on the true spatial frequency of u conj(v),
    i.e. lattice plus the carrier difference of u and v.
    """
    grid = u.grid
    if v.grid != grid or w.grid != grid:
        raise ValueError("fields live on different grids")
    sp = grid.spatial
    pair = to_physical3(u).values * np.conj(to_physical3(v).values)
    pair_hat = np.fft.fft2(pair, axes=(0, 1), norm="forward")
    del pair
    d1 = u.xi1_offset - v.xi1_offset
    d2 = u.xi2_offset - v.xi2_offset
    xi1 = sp.xi1 + d1
    xi2 = sp.xi2 + d2
    xi_sq = xi1**2 + xi2**2
    with np.errstate(invalid="ignore"):
        alpha = np.where(xi_sq > 0, xi1**2 / np.where(xi_sq > 0, xi_sq, 1.0), 0.0)
    pair_hat *= (c1 + c2 * alpha)[:, :, None]
    acted = np.fft.ifft2(pair_hat, axes=(0, 1), norm="forward")
    del pair_hat
    acted *= to_physical3(w).values
    out_hat = np.fft.fftn(acted, norm="forward")
    del acted
    return SpaceTimeField(grid, out_hat, FOURIER, *_product_carrier(u, v, w))


def trilinear_ratio(
    u: SpaceTimeField,
    v: SpaceTimeField,
    w: SpaceTimeField,
    s: float,
    a: float,
    b: float,
    c1: float,
    c2: float,
) -> float:
    """||(c1 I + c2 K)(u conj(v)) w||_{X^{s+a, b-1}} over the norm product."""
    den = xsb_norm(u, s, b) * xsb_norm(v, s, b) * xsb_norm(w, s, b)
    if den == 0.0:
        raise ValueError("zero denominator: an input field vanishes")
    out = trilinear_output_spectrum(u, v, w, c1, c2)
    return output_ratio(out, s, a, b) / den


def output_ratio(out: SpaceTimeField, s: float, a: float, b: float) -> float:
    """Numerator norm X^{s+a, b-1} of a precomputed output spectrum (reusable across a)."""
    return xsb_norm(out, s + a, b - 1.0)


@dataclass(frozen=True)
class KnappSweepResult:
    n_values: tuple
    u_norms: tuple
    v_norms: tuple
    ratios: tuple
    slope: float
    u_slope: float
    v_slope: float


def knapp_sweep(
    n_list,
    s: float,
    a: float,
    b: float = 0.51,
    c1: float = 1.0,
    c2: float = 1.0,
    grid: SpaceTimeGrid | None = None,
) -> KnappSweepResult:
    """Fit log(ratio) against log(N) over a geometric ladder of box sizes.

    Ratios equal trilinear_ratio's; ||w|| = ||v|| is reused, as knapp_triple's
    w shares v's storage and carrier."""
    n_list = [float(n) for n in n_list]
    if len(n_list) < 4:
        raise ValueError("need at least 4 values of N")
    quotients = [n_list[i + 1] / n_list[i] for i in range(len(n_list) - 1)]
    if any(abs(q - quotients[0]) > 1e-12 * quotients[0] for q in quotients):
        raise ValueError("N values must be geometrically spaced")
    if grid is None:
        grid = knapp_grid(max(n_list))
    u_norms, v_norms, ratios = [], [], []
    for n in n_list:
        u, v, w = knapp_triple(KnappConfig(N=n, s=s, a=a, b=b), grid)
        u_norms.append(xsb_norm(u, s, b))
        v_norms.append(xsb_norm(v, s, b))
        # left unnamed, the 3D output spectrum is freed before the next point's
        num = output_ratio(trilinear_output_spectrum(u, v, w, c1, c2), s, a, b)
        ratios.append(num / (u_norms[-1] * v_norms[-1] * v_norms[-1]))
    return KnappSweepResult(
        n_values=tuple(n_list),
        u_norms=tuple(u_norms),
        v_norms=tuple(v_norms),
        ratios=tuple(ratios),
        slope=loglog_slope(n_list, ratios),
        u_slope=loglog_slope(n_list, u_norms),
        v_slope=loglog_slope(n_list, v_norms),
    )
