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

Every packet is a product of 1D boxes, U1(xi1) U2(xi2) U3(tau), and K acts
in space only, so the output spectrum of (c1 I + c2 K)(u conj(v)) w is
exactly B(xi1, xi2) c(tau), with every transform norm="forward":

    B = C1 Y C2^T,   Y = (P1 (x) P2) (c1 + c2 alpha(xi + d)),
    c = fft(u3 conj(v3) w3),   P_i = fft(u_i conj(v_i)),

where u_i, v_i, w_i are the physical 1D factors, d is the spatial carrier
difference of u and v, and C_i is circular convolution with the Fourier
data of w_i along axis i. knapp_sweep runs on these factors (knapp_factors,
separable_output_spectrum and a block norm), so no (M, M, M_t) array is
built, and no M x M one either.

K is a Fourier multiplier, so Y lives on the xi2 pair columns P2 =
supp(u2) - supp(v2) mod M, B on S1 x S2 and c on S3, where each S is the
cyclic support sum supp(u) - supp(v) + supp(w) mod M of one axis's factors.
separable_output_spectrum builds Y and its symbol on the P2 columns only,
applies C1 by an ifft, a product with w1 and an fft along xi1 on those
columns, keeps the S1 rows, and applies C2 as one |S1| x |P2| x |S2|
matrix product with w's xi2 data. It returns B as that block on S1 x S2:
what the transforms would leave outside it is roundoff (at N = 64 on the
criterion-6 grid, |B|^2 <= 3.5e-20 off S1 x S2 against 1 to 1.5e11 on it),
and |c|^2 <= 1.4e-30 off S3 against 1 to 144 on it is set to exact zeros.
There, with M = 512, Y has 17 columns and B is 382 x 32. The X^{s,b} norm
of B (x) c weights only the block and the tau samples that are not exactly
zero, so a product of boxes costs its support. It folds the block rows that
share a weight (the weight sees xi1 only through (xi1 + c0)^2, so at c0 = 0
rows k1 and -k1 fold), then contracts |c|^2 with the b-weight chunk by
chunk in one reused tau-major buffer. At N = 64 on the criterion-6 grid the
output's weight covers 192 x 10 x 32 points, not 257 x 32 x 512.

trilinear_output_spectrum, trilinear_ratio, output_ratio and xsb_norm (with
its dense weight) are the general-field oracle on dense fields; knapp_triple
expands the factors into those fields.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..spectral_core import FOURIER, GridSpec, loglog_slope
from .spacetime import (
    SpaceTimeField,
    SpaceTimeGrid,
    to_physical3,
    xsb_norm,
)

# folded xi1 rows per weight chunk of the block norm, whose one reused
# (_ROW_CHUNK, kept taus, columns) buffer holds at most 2 MB at M = 512,
# M_t = 32, and 41 kB on the N = 64 Knapp output (10 taus, 32 columns)
_ROW_CHUNK = 16


@dataclass(frozen=True)
class KnappConfig:
    """Box parameter N plus the exponent triple of the estimate under test."""

    N: float
    s: float
    a: float
    b: float = 0.51

    def __post_init__(self) -> None:
        for name in ("N", "s", "a", "b"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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


@dataclass(frozen=True)
class BoxFactors:
    """Fourier data xi1 (x) xi2 (x) tau of a product-box packet, plus its carrier."""

    xi1: np.ndarray
    xi2: np.ndarray
    tau: np.ndarray
    carrier: tuple

    def dense(self) -> np.ndarray:
        """The (M, M, M_t) outer product of the three factors."""
        return self.xi1[:, None, None] * self.xi2[None, :, None] * self.tau[None, None, :]

    def physical(self) -> tuple:
        """The 1D physical factors; their product is the envelope in space-time."""
        return tuple(np.fft.ifft(f, norm="forward") for f in (self.xi1, self.xi2, self.tau))


def _box(freqs: np.ndarray, half: float) -> np.ndarray:
    """Half-open box [-W, W) on one axis, in envelope coordinates."""
    return ((freqs >= -half) & (freqs < half)).astype(np.complex128)


def knapp_factors(cfg: KnappConfig, grid: SpaceTimeGrid) -> tuple[BoxFactors, BoxFactors]:
    """1D factors of u, the tube at (0, N, -N^2), and of v = w, the squat box."""
    _check_representable(cfg, grid)
    n = cfg.N
    f = grid.spatial.frequencies
    tau = _box(grid.taus, 1.0)
    u = BoxFactors(_box(f, 1.0), _box(f, 1.0 / n), tau, (0.0, float(n), -float(n) ** 2))
    v = BoxFactors(_box(f, 1.0), _box(f, 1.0 / np.sqrt(n)), tau, (0.0, 0.0, 0.0))
    return u, v


def knapp_triple(
    cfg: KnappConfig, grid: SpaceTimeGrid
) -> tuple[SpaceTimeField, SpaceTimeField, SpaceTimeField]:
    """Indicator data: u on the tube at (0, N, -N^2), v = w on the squat box.

    The dense expansion of knapp_factors. v and w share storage; treat the
    returned fields as read-only.
    """
    fu, fv = knapp_factors(cfg, grid)
    u = SpaceTimeField(grid, fu.dense(), FOURIER, *fu.carrier)
    v = SpaceTimeField(grid, fv.dense(), FOURIER, *fv.carrier)
    w = SpaceTimeField(grid, v.values, FOURIER, *fv.carrier)
    return u, v, w


def _product_carrier(cu: tuple, cv: tuple, cw: tuple) -> tuple:
    """Carrier of u conj(v) w from the carriers of u, v and w."""
    return tuple(a - b + c for a, b, c in zip(cu, cv, cw))


def _pair_symbol(xi1: np.ndarray, xi2: np.ndarray, c1: float, c2: float) -> np.ndarray:
    """c1 + c2 alpha on the true frequencies xi1 (rows) x xi2 (columns) of u conj(v)."""
    xi1_sq = (xi1**2)[:, None]
    xi_sq = xi1_sq + xi2**2
    # alpha = 0 at xi = 0, where xi_sq stays 0
    alpha = np.divide(xi1_sq, xi_sq, out=xi_sq, where=xi_sq > 0)
    alpha *= c2
    alpha += c1
    return alpha


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
    pair = to_physical3(u).values * np.conj(to_physical3(v).values)
    pair_hat = np.fft.fft2(pair, axes=(0, 1), norm="forward")
    del pair
    freqs = grid.spatial.frequencies
    d1 = u.xi1_offset - v.xi1_offset
    d2 = u.xi2_offset - v.xi2_offset
    pair_hat *= _pair_symbol(freqs + d1, freqs + d2, c1, c2)[:, :, None]
    acted = np.fft.ifft2(pair_hat, axes=(0, 1), norm="forward")
    del pair_hat
    acted *= to_physical3(w).values
    out_hat = np.fft.fftn(acted, norm="forward")
    del acted
    carrier = _product_carrier(u.carrier, v.carrier, w.carrier)
    return SpaceTimeField(grid, out_hat, FOURIER, *carrier)


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


def _cyclic_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of (A + B) mod M for the index sets A, B given as boolean masks."""
    full = np.convolve(a.astype(np.int64), b.astype(np.int64))
    full[: a.size - 1] += full[a.size :]
    return full[: a.size] > 0


def _pair_support(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of supp(a) - supp(b) mod M: the support of a conj(b)'s spectrum.

    Indices are FFT-ordered lattice indices of 1D Fourier factors; the
    conjugated factor's support is reflected, k -> -k mod M.
    """
    return _cyclic_sum(a != 0, np.roll(b[::-1] != 0, 1))


def _support_sum(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Mask of supp(a) - supp(b) + supp(c) mod M: the support of a conj(b) c's spectrum."""
    return _cyclic_sum(_pair_support(a, b), c != 0)


def separable_output_spectrum(
    u: BoxFactors,
    v: BoxFactors,
    w: BoxFactors,
    grid: SpaceTimeGrid,
    c1: float,
    c2: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple]:
    """(rows, cols, block, tau, carrier): the Fourier data of (c1 I + c2 K)(u conj(v)) w.

    That data is B (x) tau, where B is block on the xi1 rows x xi2 columns
    (sorted index arrays: the support sums of the factors) and exactly zero
    elsewhere, and tau is exactly zero off its own support sum. Expanded, it
    equals trilinear_output_spectrum on the dense expansions of u, v and w.
    Raises FloatingPointError when block or tau is not finite: the inputs
    are checked before, so only an overflow gets there.
    """
    u1, u2, u3 = u.physical()
    v1, v2, v3 = v.physical()
    w1, _, w3 = w.physical()
    # Y = (P1 (x) P2)(c1 + c2 alpha) lives on the pair columns supp(u2) - supp(v2)
    pair_support = _pair_support(u.xi2, v.xi2)
    pair_cols = np.flatnonzero(pair_support)
    p1 = np.fft.fft(u1 * np.conj(v1), norm="forward")
    p2 = np.fft.fft(u2 * np.conj(v2), norm="forward")[pair_cols]
    freqs = grid.spatial.frequencies
    d1 = u.carrier[0] - v.carrier[0]
    d2 = u.carrier[1] - v.carrier[1]
    acted = np.outer(p1, p2)
    acted *= _pair_symbol(freqs + d1, freqs[pair_cols] + d2, c1, c2)
    # xi1: circular convolution with the Fourier data of w1, by transforms
    # along axis 0 of the pair columns only
    np.fft.ifft(acted, axis=0, norm="forward", out=acted)
    acted *= w1[:, None]
    np.fft.fft(acted, axis=0, norm="forward", out=acted)
    rows = np.flatnonzero(_support_sum(u.xi1, v.xi1, w.xi1))
    cols = np.flatnonzero(_cyclic_sum(pair_support, w.xi2 != 0))
    # xi2: circular convolution with w's xi2 factor, one |pair_cols| x |cols|
    # product; what the xi1 transforms leave off rows is roundoff, dropped
    m = grid.spatial.modes_per_axis
    block = acted[rows] @ w.xi2[(cols[None, :] - pair_cols[:, None]) % m]
    tau = np.fft.fft(u3 * np.conj(v3) * w3, norm="forward")
    if not (np.all(np.isfinite(block)) and np.all(np.isfinite(tau))):
        raise FloatingPointError("output spectrum overflowed: values must be finite")
    tau[~_support_sum(u.tau, v.tau, w.tau)] = 0.0
    return rows, cols, block, tau, _product_carrier(u.carrier, v.carrier, w.carrier)


def _block_norm(
    grid: SpaceTimeGrid,
    rows: np.ndarray,
    cols: np.ndarray,
    block: np.ndarray,
    tau: np.ndarray,
    carrier: tuple,
    s: float,
    b: float,
) -> float:
    """xsb_norm of the field with Fourier values B (x) tau and this carrier,
    where B is block on the xi1 rows x xi2 columns and zero elsewhere.

    Only the support is weighted: the block and the tau samples that are not
    exactly zero, so a product of boxes costs its support, not the grid. The
    weight depends on xi1 only through (xi1 + c0)^2, so the rows are grouped
    by that value and |block|^2 is summed over each group before weighting
    (every Knapp field has c0 = 0, so rows k1 and -k1 share one weight). Per
    chunk of _ROW_CHUNK groups the tau-major b-weight <tau + |xi|^2>^{2b} is
    built in place in one (_ROW_CHUNK, kept taus, columns) buffer, contracted
    with |tau|^2 and only then scaled by <xi>^{2s}.
    """
    kept = np.flatnonzero(tau)
    spatial_sq = block.real**2 + block.imag**2
    tau_sq = tau.real[kept] ** 2 + tau.imag[kept] ** 2
    taus = (grid.taus[kept] + carrier[2])[:, None]
    xi1_sq = (grid.spatial.frequencies[rows] + carrier[0]) ** 2
    xi2_sq = (grid.spatial.frequencies[cols] + carrier[1]) ** 2
    keys, group = np.unique(xi1_sq, return_inverse=True)
    # each group's rows, summed in row order
    folded = np.zeros((keys.size, cols.size))
    np.add.at(folded, group, spatial_sq)
    buf = np.empty((_ROW_CHUNK, kept.size, cols.size))
    total = 0.0
    for start in range(0, keys.size, _ROW_CHUNK):
        xi_sq = keys[start : start + _ROW_CHUNK, None] + xi2_sq
        w = buf[: len(xi_sq)]
        np.add(taus, xi_sq[:, None, :], out=w)
        np.square(w, out=w)
        w += 1.0
        np.power(w, b, out=w)
        contracted = tau_sq @ w
        contracted *= (1.0 + xi_sq) ** s
        contracted *= folded[start : start + _ROW_CHUNK]
        total += float(np.sum(contracted))
    return float(np.sqrt(grid.volume * total))


def _packet_norm(f: BoxFactors, grid: SpaceTimeGrid, s: float, b: float) -> float:
    """X^{s,b} norm of the packet, on the product of its factors' supports."""
    rows, cols = np.flatnonzero(f.xi1), np.flatnonzero(f.xi2)
    block = np.outer(f.xi1[rows], f.xi2[cols])
    return _block_norm(grid, rows, cols, block, f.tau, f.carrier, s, b)


@dataclass(frozen=True)
class KnappSweepResult:
    n_values: tuple
    u_norms: tuple
    v_norms: tuple
    ratios: tuple
    slope: float
    u_slope: float
    v_slope: float


def check_ladder(n_list, s: float, a: float, b: float, c1: float, c2: float) -> list:
    """The ladder as floats, once every input of knapp_sweep is checked.

    Raises ValueError naming the first bad input, before any grid or
    transform is built: N values that are not finite, fewer than 4, not
    geometrically spaced or not distinct; a KnappConfig field; c1 or c2
    not finite.
    """
    n_list = [float(n) for n in n_list]
    if not all(math.isfinite(n) for n in n_list):
        raise ValueError(f"N values must be finite, got {n_list}")
    if len(n_list) < 4:
        raise ValueError("need at least 4 values of N")
    quotients = [n_list[i + 1] / n_list[i] for i in range(len(n_list) - 1)]
    if any(abs(q - quotients[0]) > 1e-12 * quotients[0] for q in quotients):
        raise ValueError("N values must be geometrically spaced")
    if abs(quotients[0] - 1.0) <= 1e-12:
        raise ValueError("N values must be distinct: the common ratio is 1")
    for n in n_list:
        KnappConfig(N=n, s=s, a=a, b=b)
    for name, value in (("c1", c1), ("c2", c2)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return n_list


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

    Ratios equal trilinear_ratio's on knapp_triple, computed on the 1D factors
    (separable_output_spectrum and the block norm on its support); ||w|| =
    ||v|| is reused, as w has v's factors and carrier. Every input is checked
    (check_ladder) before the first transform. Raises FloatingPointError,
    naming the N, when a norm or ratio overflows, as large c1 and c2 can
    make it, before any slope is fitted.
    """
    n_list = check_ladder(n_list, s, a, b, c1, c2)
    if grid is None:
        grid = knapp_grid(max(n_list))
    u_norms, v_norms, ratios = [], [], []
    for n in n_list:
        fu, fv = knapp_factors(KnappConfig(N=n, s=s, a=a, b=b), grid)
        u_norms.append(_packet_norm(fu, grid, s, b))
        v_norms.append(_packet_norm(fv, grid, s, b))
        rows, cols, block, tau, carrier = separable_output_spectrum(fu, fv, fv, grid, c1, c2)
        num = _block_norm(grid, rows, cols, block, tau, carrier, s + a, b - 1.0)
        ratios.append(num / (u_norms[-1] * v_norms[-1] * v_norms[-1]))
        if not all(map(math.isfinite, (u_norms[-1], v_norms[-1], ratios[-1]))):
            raise FloatingPointError(
                f"N = {n:g}: the norms or the ratio are not finite "
                f"(u {u_norms[-1]!r}, v {v_norms[-1]!r}, ratio {ratios[-1]!r})"
            )
    return KnappSweepResult(
        n_values=tuple(n_list),
        u_norms=tuple(u_norms),
        v_norms=tuple(v_norms),
        ratios=tuple(ratios),
        slope=loglog_slope(n_list, ratios),
        u_slope=loglog_slope(n_list, u_norms),
        v_slope=loglog_slope(n_list, v_norms),
    )
