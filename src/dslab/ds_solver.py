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

Trajectory.fields, and the fields handed to observers, hold Fourier
coefficients (representation FOURIER); to_physical converts them on demand.
"""
from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .spectral_core import (
    FOURIER,
    PHYSICAL,
    GridSpec,
    SpectralField,
    sobolev_norm,
    to_fourier,
    to_physical,
)


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
    """

    times: np.ndarray
    fields: list
    mass: np.ndarray
    h1_norm: np.ndarray
    energy: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) and np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def field_at(self, t: float, tol: float = 1e-9) -> SpectralField:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > tol:
            raise KeyError(f"t = {t} was not sampled (nearest: {self.times[idx]})")
        return self.fields[idx]


class _DensityKernel:
    """The density-to-potential map rho = |u|^2 -> V = c1 rho + c2 K(rho).

    rho is real, so it is transformed on the rfft2 half spectrum, where the
    symbol c1 + c2 alpha is applied; V comes back real by construction.  The
    same half-spectrum density gives the interaction energy int V |u|^2.
    """

    def __init__(self, grid: GridSpec, c1: float, c2: float):
        m = grid.modes_per_axis
        self.grid = grid
        self.symbol = c1 + c2 * grid.alpha_symbol[:, : m // 2 + 1]
        self.rho = np.empty((m, m))

    def density_hat(self, u: np.ndarray) -> np.ndarray:
        """Half-spectrum coefficients of |u|^2 for physical values u."""
        rho = np.multiply(u.real, u.real, out=self.rho)
        rho += u.imag * u.imag
        return np.fft.rfft2(rho, norm="forward")

    def potential(self, rho_hat: np.ndarray) -> np.ndarray:
        """Physical V from density_hat's output, which is overwritten."""
        rho_hat *= self.symbol
        return np.fft.irfft2(rho_hat, s=self.rho.shape, norm="forward")

    def interaction(self, rho_hat: np.ndarray) -> float:
        """int V |u|^2 = L^2 * sum over the full lattice of symbol |rho_hat|^2."""
        w = self.symbol * (rho_hat.real * rho_hat.real + rho_hat.imag * rho_hat.imag)
        m = self.grid.modes_per_axis
        # columns 1 .. (M-1)//2 also stand for their unstored mirror images
        return self.grid.domain_length**2 * float(np.sum(w) + np.sum(w[:, 1 : (m + 1) // 2]))


def nonlinear_potential(u: SpectralField, cfg: SolverConfig) -> SpectralField:
    """Real potential V = c1 |u|^2 + c2 K(|u|^2); the nonlinearity is V*u."""
    kernel = _DensityKernel(u.grid, cfg.c1, cfg.c2)
    v = kernel.potential(kernel.density_hat(to_physical(u).values))
    return SpectralField(u.grid, v.astype(np.complex128), PHYSICAL)


def interaction_energy(u: SpectralField, c1: float, c2: float) -> float:
    """c1 ||u||_{L4}^4 + c2 int K(|u|^2)|u|^2, from the half-spectrum density."""
    kernel = _DensityKernel(u.grid, c1, c2)
    return kernel.interaction(kernel.density_hat(to_physical(u).values))


class _StepKernel:
    """Precomputed per-config arrays and work buffers for the split step.

    The linear half-step is u -> P u + F with P = exp(lam dt/2) and F the
    variation-of-constants forcing term; two adjacent half-steps compose
    exactly into u -> P^2 u + (P + 1) F.  The 2/3 mask is 0/1, so folding it
    into the propagators that follow the gauge gives the same values as
    masking the field first.
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
        theta = self.density.potential(rho_hat)
        theta *= -self.dt
        g = self.phase
        np.cos(theta, out=g.real)
        np.sin(theta, out=g.imag)
        u *= g

    def advance(self, u_hat: np.ndarray, n: int, first_step: int = 1) -> np.ndarray:
        """n Strang steps, Fourier in / Fourier out; u_hat is left unchanged.

        Steps are numbered first_step, ..., first_step + n - 1 for the abort.
        """
        u = self.lead * u_hat
        if self.force is not None:
            u += self.force
        last = first_step + n - 1
        for step in range(first_step, last + 1):
            u = np.fft.ifft2(u, norm="forward")
            self._gauge(u, step)
            u = np.fft.fft2(u, norm="forward")
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
    interaction_energy, L^2 * sum (c1 + c2 alpha) |rho_hat|^2 for rho = |u|^2.
    """
    grid = u.grid
    hat = to_fourier(u).values
    l_sq = grid.domain_length**2
    grad_term = l_sq * float(np.sum(grid.xi_squared * np.abs(hat) ** 2))
    e = grad_term + 0.5 * interaction_energy(u, c1, c2)
    if f is not None:
        f_hat = to_fourier(f).values
        e += 2.0 * l_sq * float(np.real(np.sum(f_hat * np.conj(hat))))
    return e


def evolve(
    u0: SpectralField,
    cfg: SolverConfig,
    observers: Iterable[Callable[[int, float, SpectralField], None]] = (),
) -> Trajectory:
    """Fixed-step integration to cfg.t_end with sampling and diagnostics.

    When cfg.dealias is set, the 2/3 mask is applied to the datum once before
    stepping and the masked field is the first sample, so sampled states and
    the recorded initial condition live on the same retained modes.  Samples
    are stored, and passed to observers, as Fourier fields.  Non-finite
    values abort with the failing step index.
    """
    observers = tuple(observers)
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        raise ValueError("t_end must be an integer multiple of dt")
    kernel = _StepKernel(u0.grid, cfg, cfg.dt)
    u_hat = to_fourier(u0).values.copy()
    if cfg.dealias:
        u_hat *= u0.grid.dealias_mask
    f_four = to_fourier(cfg.forcing) if cfg.forcing is not None else None

    times, fields, mass, h1, energy = [], [], [], [], []

    def record(step: int, t: float, u_hat_now: np.ndarray) -> None:
        if not np.all(np.isfinite(u_hat_now)):
            raise IntegrationAbort(step, t)
        # advance returns a fresh array, so the sample can keep u_hat_now
        snap = SpectralField(u0.grid, u_hat_now, FOURIER)
        times.append(t)
        fields.append(snap)
        mass.append(sobolev_norm(snap, 0.0))
        h1.append(sobolev_norm(snap, 1.0))
        energy.append(energy_functional(snap, f_four, cfg.c1, cfg.c2))
        for obs in observers:
            obs(step, t, snap)

    record(0, 0.0, u_hat)
    step = 0
    while step < n_steps:
        n = min(cfg.sample_every, n_steps - step)
        u_hat = kernel.advance(u_hat, n, step + 1)
        step += n
        record(step, step * cfg.dt, u_hat)
    return Trajectory(
        times=np.array(times),
        fields=fields,
        mass=np.array(mass),
        h1_norm=np.array(h1),
        energy=np.array(energy),
    )


_CHECKPOINT_MAGIC = b"DSLABCK1"


def save_checkpoint(path, field: SpectralField, t: float) -> None:
    """Binary dump of (grid, time, complex modes); bit-exact round-trip."""
    hat = to_fourier(field)
    m = field.grid.modes_per_axis
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(b"<")
        fh.write(struct.pack("<Q", m))
        fh.write(struct.pack("<d", field.grid.domain_length))
        fh.write(struct.pack("<d", t))
        fh.write(np.ascontiguousarray(hat.values, dtype="<c16").tobytes())


def load_checkpoint(path) -> tuple[SpectralField, float]:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file (magic {magic!r})")
        endian = fh.read(1)
        if endian not in (b"<", b">"):
            raise ValueError(f"bad endianness tag {endian!r}")
        order = endian.decode()
        (m,) = struct.unpack(f"{order}Q", fh.read(8))
        (length,) = struct.unpack(f"{order}d", fh.read(8))
        (t,) = struct.unpack(f"{order}d", fh.read(8))
        raw = fh.read(int(m) * int(m) * 16)
        values = np.frombuffer(raw, dtype=f"{order}c16").reshape(int(m), int(m))
    grid = GridSpec(int(m), length)
    return SpectralField(grid, values.astype(np.complex128), FOURIER), t
