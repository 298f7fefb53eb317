"""Duhamel-split smoothing diagnostics on rough data.

The flow is split as u(t) = e^{it Lap} u0 + N(t).  duhamel_remainder is the
one place that computes N(t), against the free flow with optional damping
and resonant gauge phase.  Two instruments call it: the refinement study
here and the compactness probe in attractor_lab (which passes the shifted
state).  For data whose spectrum decays like <xi>^{-s-1} (so u0 sits in
H^{s'} exactly for s' < s), the linear part keeps the data's roughness
while N(t) is measurably smoother.  On the periodic box each tail mode of
the plain remainder carries the resonant lattice dressing
(e^{-i sigma(xi) t} - 1) e^{it Lap} u0, so the plain remainder refines like
the linear part; it is the gauged remainder (see resonant_gauge_phase) whose
H^{s+a} norm converges under grid refinement although the linear part's
diverges like M^a.

Both instruments stream the run through sample_stream and split against
its step-0 sample, the datum actually integrated; they hold that datum and
the current state, never the run.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import spectral_core
from ._rng import uniform_phases
from .ds_solver import SolverConfig, Trajectory, sample_stream
from .spectral_core import (
    DEFAULT_DOMAIN_LENGTH,
    FOURIER,
    GridSpec,
    SpectralField,
    free_evolve,
    loglog_slope,
    sobolev_norm,
    to_fourier,
)


@dataclass(frozen=True)
class RoughDataSpec:
    """Randomized datum with |u0_hat(xi)| = amplitude * <xi>^{-s-1}.

    Phases are hashed per integer mode, so refining the grid keeps every
    retained mode's value; the H^{s'} norm then converges for s' < s and
    grows like M^a at s' = s + a.
    """

    s: float
    amplitude: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.5 < self.s < np.inf:
            raise ValueError(f"roughness s must be finite and exceed 1/2, got {self.s}")
        if not 0 <= self.amplitude < np.inf:
            raise ValueError(f"amplitude must be finite and nonnegative, got {self.amplitude}")

    @property
    def spectral_law(self) -> float:
        """Decay exponent of |u0_hat|: modes fall off like <xi>^(this)."""
        return -self.s - 1.0


def make_rough_data(spec: RoughDataSpec, grid: GridSpec) -> SpectralField:
    """Build the datum in Fourier representation from the spec's law."""
    modes = grid.mode_numbers
    values = 1j * uniform_phases(spec.seed, modes[:, None], modes[None, :])
    np.exp(values, out=values)
    magnitude = grid.bracket(spec.spectral_law)
    magnitude *= spec.amplitude
    # magnitude stays the left operand of the complex product
    np.multiply(magnitude, values, out=values)
    return SpectralField(grid, values, FOURIER)


def make_forcing(
    grid: GridSpec, amplitude: float, seed: int = 0, smoothness: float = 3.0
) -> SpectralField:
    """Deterministic forcing field with |f_hat| = amplitude <xi>^{-smoothness-1}.

    smoothness > 1/2 puts f in L^2 with margin; the default is smooth enough
    that the shifted datum u + (1-Lap)^{-1} f never limits attractor_lab's
    compactness probe.  It is a datum of the same law, so it lives here
    beside make_rough_data, and a forced simulate run needs nothing from
    attractor_lab.
    """
    return make_rough_data(RoughDataSpec(smoothness, amplitude, seed), grid)


def duhamel_remainder(
    u_hat: np.ndarray, datum: SpectralField, t: float, delta: float = 0.0, sigma=0.0
) -> SpectralField:
    """Duhamel remainder u_hat - e^{-i sigma t} e^{-delta t} e^{it Lap} datum.

    u_hat holds the Fourier coefficients of the state at time t; u_hat and
    datum may hold a stack of K states and their K data, which share one
    free-flow phase.  delta > 0 compares against the damped free flow.
    sigma = 0 gives the plain remainder; sigma = resonant_gauge_phase(datum,
    c1, c2) gives the gauged one, whose comparison flow carries the lattice
    dressing of the datum tail and so leaves the grid-convergent remainder.
    """
    linear = free_evolve(to_fourier(datum), t, delta).values
    linear *= np.exp(-1j * sigma * t)  # free_evolve returned a fresh array
    return SpectralField(datum.grid, u_hat - linear, FOURIER)


def nonlinear_part(traj: Trajectory, u0: SpectralField, t: float) -> SpectralField:
    """u(t) - e^{it Lap} u0 at a sampled time: the undamped, ungauged
    duhamel_remainder of a stored trajectory's state.  No dslab instrument
    calls it; it stays because benchmarks/layers.py times it."""
    return duhamel_remainder(to_fourier(traj.field_at(t)).values, u0, t)


def resonant_gauge_phase(datum: SpectralField, c1: float, c2: float) -> np.ndarray:
    """Phase rate sigma(xi) of the exactly resonant cubic self-interaction.

    On a periodic lattice each mode xi is dressed coherently by two pairings
    against the datum's spectral density rho(mu) = |u0_hat(mu)|^2: the mean
    potential (zero mode of V) and the pairing of the output mode with one
    u-factor.  Together

        sigma(xi) = 2 c1 rho_bar + c2 (alpha (*) rho)(xi),

    with (*) the circular lattice convolution, so the flow behaves like
    exp(-i sigma(xi) t) exp(i t Lap) on the datum's tail.  This factor has no
    continuum counterpart at fixed data (rho_bar = ||u||^2 / L^2 vanishes as
    L grows), so it is the leading finite-volume artifact in smoothing
    measurements.
    """
    rho = np.abs(to_fourier(datum).values) ** 2
    conv = spectral_core.fft2_into(datum.grid.alpha_symbol, np.empty_like(rho, np.complex128))
    conv *= spectral_core.fft2_into(rho, np.empty_like(rho, np.complex128))
    # norm="forward" leaves a net 1/M^2; M is a power of two, so undoing it is exact
    conv = spectral_core.ifft2_into(conv, conv).real * float(datum.grid.modes_per_axis**2)
    return 2.0 * c1 * float(np.sum(rho)) + c2 * conv


def refinement_study(
    spec: RoughDataSpec,
    resolutions: Sequence[int],
    s: float,
    a: float,
    cfg: SolverConfig,
    domain_length: Optional[float] = None,
) -> dict:
    """Grid-refinement comparison of linear and nonlinear H^{s+a} norms at cfg.t_end.

    Runs the same datum law at each resolution (same L, nested phases) and
    returns per-resolution norms plus fitted log-log slopes: the linear part
    (slope near a), the plain remainder (which tracks it) and the gauged one
    (slope near zero; see the module docstring).  A column with a norm that
    is not positive (a zero-amplitude datum, say) has no log-log fit, and its
    slope is None.  Each grid streams through
    sample_stream and keeps two fields, whatever cfg.sample_every is: the
    step-0 state (the datum as integrated) and the last one.
    """
    if len(resolutions) < 3:
        raise ValueError("need at least three resolutions for a slope fit")
    if len(set(resolutions)) < 2:
        raise ValueError("slope fit needs at least two distinct resolutions")
    length = domain_length if domain_length is not None else DEFAULT_DOMAIN_LENGTH
    # every grid is validated before the first solve
    grids = [GridSpec(m, length) for m in resolutions]
    rows = []
    for m, grid in zip(resolutions, grids):
        stream = sample_stream(make_rough_data(spec, grid), cfg)
        # split against the datum actually integrated (dealiasing masks it);
        # the stream steps its buffer in place, so the datum is a copy
        datum = SpectralField(grid, next(stream)[2].copy(), FOURIER)
        for _, _, u_hat in stream:  # the last state is the one at cfg.t_end
            pass
        linear = sobolev_norm(free_evolve(datum, cfg.t_end), s + a)
        sigma = resonant_gauge_phase(datum, cfg.c1, cfg.c2)
        nonlinear = sobolev_norm(duhamel_remainder(u_hat, datum, cfg.t_end), s + a)
        gauged = sobolev_norm(duhamel_remainder(u_hat, datum, cfg.t_end, sigma=sigma), s + a)
        rows.append(
            {
                "M": m,
                "norm_linear": linear,
                "norm_nonlinear": nonlinear,
                "norm_nonlinear_gauged": gauged,
            }
        )

    def column_slope(key: str) -> Optional[float]:
        vals = np.array([row[key] for row in rows])
        return loglog_slope([row["M"] for row in rows], vals) if np.all(vals > 0) else None

    return {
        "rows": rows,
        "linear_slope": column_slope("norm_linear"),
        "nonlinear_slope": column_slope("norm_nonlinear"),
        "gauged_slope": column_slope("norm_nonlinear_gauged"),
    }
