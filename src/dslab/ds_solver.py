"""Split-step time integration of the cubic/nonlocal Schroedinger flow.

Conservative form:  i u_t + Lap u = c1 |u|^2 u + c2 K(|u|^2) u
Damped/forced form: i u_t + Lap u + i delta u = c1 |u|^2 u + c2 K(|u|^2) u + f

Strang splitting with two exact substeps: the linear+damping+forcing part is
integrated per mode by variation of constants, and the nonlinear substep is a
gauge rotation u <- exp(-i V dt) u with the real potential
V = c1 |u|^2 + c2 K(|u|^2), which preserves |u| pointwise.  Consequences used
by the tests: mass is exactly conserved (delta=0, f=0), the damped flow obeys
||u(t)|| = exp(-delta t) ||u0|| exactly, and steps are exactly reversible.

Because the linear substep is exact, the trailing half-step of one step and
the leading half-step of the next compose into one full linear step.  Between
two recorded samples n steps therefore run as one half-step, n - 1 times
(gauge, full linear step), one gauge and one final half-step; a single step
is the case n = 1.  Each step costs four 2D transforms: ifft2 and fft2 of the
field, and rfft2/irfft2 of the real density |u|^2 on the half spectrum.  All
transforms use norm="forward" (see spectral_core), so Fourier values are
Fourier-series coefficients without any separate rescaling pass.

The step allocates no M x M array.  The field is transformed in place with
spectral_core's *_into transforms, and the density, its half spectrum and
the potential live in buffers the density kernel owns.  Only the array that
advance returns is fresh.

sample_stream yields the sampled states one at a time; evolve consumes it
and keeps them.  Trajectory.fields hold Fourier coefficients
(representation FOURIER); to_physical converts them on demand.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import spectral_core
from .spectral_core import (
    FOURIER,
    PHYSICAL,
    GridSpec,
    SpectralField,
    sobolev_norm,
    to_fourier,
    to_physical,
)

SAMPLE_TIME_TOL = 1e-9  # how far a time may lie from a sample time and still name it


class IntegrationAbort(RuntimeError):
    """Raised when the state turns non-finite; carries the failing step."""

    def __init__(self, step: int, t: float):
        super().__init__(f"non-finite values at step {step} (t = {t:.6g})")
        self.step = step
        self.t = t


@dataclass
class SolverConfig:
    """Physical constants and stepping controls.

    delta = 0 with no forcing is the conservative mode; delta > 0 is the
    dissipative mode.  dt <= 0.1 is enforced for splitting accuracy (the
    linear part is exact, so there is no stability constraint).
    """

    c1: float
    c2: float
    dt: float
    t_end: float
    delta: float = 0.0
    forcing: Optional[SpectralField] = None
    dealias: bool = True
    sample_every: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.dt <= 0.1:
            raise ValueError(f"dt must lie in (0, 0.1], got {self.dt}")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.sample_every < 1 or int(self.sample_every) != self.sample_every:
            raise ValueError("sample_every must be a positive integer")
        if self.forcing is not None and self.delta == 0.0:
            raise ValueError("conservative mode (delta = 0) requires forcing absent")
        if self.delta == 0.0:
            if not self.c1 + self.c2 > 0:
                warnings.warn(
                    "conservative runs expect c1 + c2 > 0; proceeding anyway",
                    stacklevel=2,
                )
        elif self.c1 < 0 or self.c1 + self.c2 < 0:
            warnings.warn(
                "damped runs expect c1 >= 0 and c1 + c2 >= 0; proceeding anyway",
                stacklevel=2,
            )


@dataclass
class Trajectory:
    """Sampled solution history with per-sample scalar diagnostics.

    fields holds one Fourier-representation SpectralField per sample time.
    Next to energy, interaction holds c1 ||u||_{L4}^4 + c2 int K(|u|^2)|u|^2
    and drive holds 2 Re int f conj(u) (zero without forcing) per sample.
    """

    times: np.ndarray
    fields: list
    mass: np.ndarray
    h1_norm: np.ndarray
    energy: np.ndarray
    interaction: np.ndarray
    drive: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) and np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def field_at(self, t: float) -> SpectralField:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > SAMPLE_TIME_TOL:
            raise KeyError(f"t = {t} was not sampled (nearest: {self.times[idx]})")
        return self.fields[idx]


class _DensityKernel:
    """The density-to-potential map rho = |u|^2 -> V = c1 rho + c2 K(rho).

    rho is real, so it is transformed on the rfft2 half spectrum, where the
    symbol c1 + c2 alpha is applied; V comes back real by construction.  The
    same half-spectrum density gives the interaction energy int V |u|^2.

    The kernel owns three buffers and allocates nothing per call: rho (the
    density, then the potential), scratch (|Im u|^2) and rho_hat (the half
    spectrum).  Both methods return one of them, valid until the next call.
    """

    def __init__(self, grid: GridSpec, c1: float, c2: float):
        m = grid.modes_per_axis
        self.grid = grid
        # stored complex, so rho_hat *= symbol casts nothing through a ufunc buffer
        self.symbol = (c1 + c2 * grid.alpha_symbol[:, : m // 2 + 1]).astype(np.complex128)
        self.rho = np.empty((m, m))
        self.scratch = np.empty((m, m))
        self.rho_hat = np.empty((m, m // 2 + 1), dtype=np.complex128)

    def density_hat(self, u: np.ndarray) -> np.ndarray:
        """Half-spectrum coefficients of |u|^2 for physical values u, in rho_hat."""
        rho = np.multiply(u.real, u.real, out=self.rho)
        rho += np.multiply(u.imag, u.imag, out=self.scratch)
        return spectral_core.rfft2_into(rho, self.rho_hat)

    def potential(self, rho_hat: np.ndarray) -> np.ndarray:
        """Physical V in rho from density_hat's output, which is overwritten."""
        rho_hat *= self.symbol
        return spectral_core.irfft2_into(rho_hat, self.rho)

    def interaction(self, rho_hat: np.ndarray) -> float:
        """int V |u|^2 = L^2 * sum over the full lattice of symbol |rho_hat|^2."""
        w = self.symbol.real * (rho_hat.real * rho_hat.real + rho_hat.imag * rho_hat.imag)
        m = self.grid.modes_per_axis
        # columns 1 .. (M-1)//2 also stand for their unstored mirror images
        return self.grid.domain_length**2 * float(np.sum(w) + np.sum(w[:, 1 : (m + 1) // 2]))


def nonlinear_potential(u: SpectralField, cfg: SolverConfig) -> SpectralField:
    """Real potential V = c1 |u|^2 + c2 K(|u|^2); the nonlinearity is V*u."""
    kernel = _DensityKernel(u.grid, cfg.c1, cfg.c2)
    v = kernel.potential(kernel.density_hat(to_physical(u).values))
    # astype copies V out of the kernel's buffer
    return SpectralField(u.grid, v.astype(np.complex128), PHYSICAL)


def _energy_parts(u: SpectralField, f_hat, density: _DensityKernel) -> tuple:
    """(||grad u||^2, c1 ||u||_{L4}^4 + c2 int K(|u|^2)|u|^2, 2 Re int f conj(u)),
    with the kernel's c1, c2 and forcing coefficients f_hat (None: drive 0.0)."""
    hat = to_fourier(u).values
    l_sq = density.grid.domain_length**2
    grad = l_sq * float(np.sum(density.grid.xi_squared * np.abs(hat) ** 2))
    inter = density.interaction(density.density_hat(to_physical(u).values))
    drive = 0.0
    if f_hat is not None:
        drive = 2.0 * l_sq * float(np.real(np.sum(f_hat * np.conj(hat))))
    return grad, inter, drive


class _StepKernel:
    """Precomputed per-config arrays and work buffers for the split step.

    The linear half-step is u -> P u + F with P = exp(lam dt/2) and F the
    variation-of-constants forcing term; two adjacent half-steps compose
    exactly into u -> P^2 u + (P + 1) F.  The 2/3 mask is 0/1, so folding it
    into the propagators that follow the gauge gives the same values as
    masking the field first.  A step writes only the field advance returns,
    the density kernel's buffers and the gauge phase buffer.
    """

    def __init__(self, grid: GridSpec, cfg: SolverConfig, dt: float):
        self.dt = dt
        lam = -1j * grid.xi_squared - cfg.delta
        half_prop = np.exp(lam * (dt / 2.0))
        self.lead = half_prop
        self.trail = half_prop * grid.dealias_mask if cfg.dealias else half_prop
        self.full = half_prop * self.trail
        if cfg.forcing is not None:
            f_hat = to_fourier(cfg.forcing).values
            rhs = -1j * f_hat
            with np.errstate(divide="ignore", invalid="ignore"):
                phi = (half_prop - 1.0) / lam
            phi = np.where(lam == 0, dt / 2.0, phi)
            self.force = phi * rhs
            self.force_full = (half_prop + 1.0) * self.force
        else:
            self.force = self.force_full = None
        self.density = _DensityKernel(grid, cfg.c1, cfg.c2)
        self.phase = np.empty(self.lead.shape, dtype=np.complex128)

    def _gauge(self, u: np.ndarray, step: int) -> None:
        """u <- exp(-i dt V) u in place; a non-finite density aborts the step."""
        rho_hat = self.density.density_hat(u)
        # rho >= 0: any non-finite value makes its mean non-finite
        if not np.isfinite(rho_hat[0, 0]):
            raise IntegrationAbort(step, step * self.dt)
        theta = self.density.potential(rho_hat)  # the density kernel's rho buffer
        theta *= -self.dt
        g = self.phase
        np.cos(theta, out=g.real)
        np.sin(theta, out=g.imag)
        u *= g

    def advance(self, u_hat: np.ndarray, n: int, first_step: int = 1) -> np.ndarray:
        """n Strang steps, Fourier in / Fourier out; u_hat is left unchanged.

        Steps are numbered first_step, ..., first_step + n - 1 for the abort.
        The returned array is the only one allocated; u is transformed in place.
        """
        u = self.lead * u_hat
        if self.force is not None:
            u += self.force
        last = first_step + n - 1
        for step in range(first_step, last + 1):
            spectral_core.ifft2_into(u, u)
            self._gauge(u, step)
            spectral_core.fft2_into(u, u)
            prop, force = (self.full, self.force_full) if step < last else (self.trail, self.force)
            u *= prop
            if force is not None:
                u += force
        return u


def strang_step(u: SpectralField, cfg: SolverConfig, dt: Optional[float] = None) -> SpectralField:
    """One Strang splitting step of size dt (default cfg.dt).

    Negative dt steps the conservative flow backwards; both substeps are
    exact, so forward-then-backward returns the input to roundoff.
    Non-finite input aborts with IntegrationAbort.
    """
    kernel = _StepKernel(u.grid, cfg, cfg.dt if dt is None else dt)
    u_hat = kernel.advance(to_fourier(u).values, 1)
    result = SpectralField(u.grid, u_hat, FOURIER)
    return result if u.representation == FOURIER else to_physical(result)


def energy_functional(
    u: SpectralField, f: Optional[SpectralField], c1: float, c2: float
) -> float:
    """E = ||grad u||^2 + (c1/2)||u||_{L4}^4 + (c2/2) int K(|u|^2)|u|^2 + 2 Re int f conj(u).

    Conserved by the conservative flow; the quartic and K terms together are
    the interaction part, L^2 * sum (c1 + c2 alpha) |rho_hat|^2 for rho = |u|^2.
    """
    f_hat = to_fourier(f).values if f is not None else None
    grad, inter, drive = _energy_parts(u, f_hat, _DensityKernel(u.grid, c1, c2))
    return grad + 0.5 * inter + drive


def sample_steps(cfg: SolverConfig) -> list:
    """Step numbers of the recorded samples: 0, every sample_every-th step
    and the last one; the sample at step k is taken at t = k * cfg.dt."""
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        raise ValueError("t_end must be an integer multiple of dt")
    return list(range(0, n_steps, cfg.sample_every)) + [n_steps]


def sample_stream(u0: SpectralField, cfg: SolverConfig) -> Iterator[tuple]:
    """Yield (step, t, u_hat) at every step of sample_steps(cfg).

    When cfg.dealias is set, the 2/3 mask is applied to the datum once before
    stepping and the masked field is the first sample.  Without forcing every
    sampled state lives on the same retained modes; with forcing, a later
    sample also carries the trailing half-step's forcing term, which is added
    after the mask, on the modes outside it.  Each u_hat is a fresh
    Fourier-coefficient array that the consumer may keep.
    Non-finite values abort with the failing step.
    """
    return _samples(_StepKernel(u0.grid, cfg, cfg.dt), u0, cfg)


def _samples(kernel: _StepKernel, u0: SpectralField, cfg: SolverConfig) -> Iterator[tuple]:
    """sample_stream on a given kernel, so evolve can share its density kernel."""
    steps = sample_steps(cfg)
    u_hat = to_fourier(u0).values.copy()
    if cfg.dealias:
        u_hat *= u0.grid.dealias_mask
    done = 0
    for step in steps:
        if step > done:
            u_hat = kernel.advance(u_hat, step - done, done + 1)
            done = step
        if not np.all(np.isfinite(u_hat)):
            raise IntegrationAbort(step, step * cfg.dt)
        yield step, step * cfg.dt, u_hat


def evolve(u0: SpectralField, cfg: SolverConfig) -> Trajectory:
    """Fixed-step integration to cfg.t_end, recording every sample of
    sample_stream as a Fourier field with its diagnostics.

    Per sample it keeps the field, mass, H^1 norm and the energy parts, which
    use the step's density kernel; consumers that need less read
    sample_stream directly.  Non-finite values abort with the failing step.
    """
    kernel = _StepKernel(u0.grid, cfg, cfg.dt)
    f_hat = to_fourier(cfg.forcing).values if cfg.forcing is not None else None
    times, fields, mass, h1, parts = [], [], [], [], []
    for _, t, u_hat in _samples(kernel, u0, cfg):
        snap = SpectralField(u0.grid, u_hat, FOURIER)
        times.append(t)
        fields.append(snap)
        mass.append(sobolev_norm(snap, 0.0))
        h1.append(sobolev_norm(snap, 1.0))
        parts.append(_energy_parts(snap, f_hat, kernel.density))
    grad, inter, drive = np.array(parts).T
    return Trajectory(
        times=np.array(times),
        fields=fields,
        mass=np.array(mass),
        h1_norm=np.array(h1),
        energy=grad + 0.5 * inter + drive,
        interaction=inter,
        drive=drive,
    )
