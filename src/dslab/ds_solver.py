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

The step allocates no M x M array: advance transforms the field it is given
in place with spectral_core's *_into transforms, and the density, its half
spectrum and the potential live in buffers the density kernel owns.  The
gauge phase reuses the density kernel's rho_hat and scratch, which are idle
once the potential is formed.  The step kernel keeps lead (the half-step
propagator), full (the masked full step), force and force_full (with
forcing) and the density kernel's buffers: six M x M complex fields' worth
when forced, and no more while it is built.  Complex multiplication is not
bitwise commutative on every CPU (an AVX-512 build of numpy rounds lead * u
and u * lead differently), so the leading half-step writes lead * u into u
with lead as the left operand, as an out-of-place product would.
The 2/3 mask is applied after the trailing lead, by zeroing the slabs of
rows and columns it drops, rather than folded into a separate trailing
propagator.

The kernels step one M x M field or a (K, M, M) stack of K fields; every
operation acts on each field alone, so a member of a stack gets the bits it
would get stepped by itself.  sample_stream yields one field's sampled
states one at a time, ensemble_stream a stack's, through the same loop, in
one buffer that the next step overwrites.  SampleRecorder owns the
per-sample scalars and borrows the stream's density kernel, idle between
samples; evolve records sample_stream with it and keeps a copy of each state
as Trajectory.fields, Fourier coefficients (representation FOURIER) that
to_physical converts on demand.
"""
from __future__ import annotations

import copy
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import spectral_core
from .spectral_core import (
    FOURIER,
    PHYSICAL,
    GridSpec,
    SpectralField,
    to_fourier,
    to_physical,
)

SAMPLE_TIME_TOL = 1e-9  # how far a time may lie from a sample time and still name it


class IntegrationAbort(FloatingPointError):
    """Raised when the state turns non-finite; carries the failing step and,
    for a stack, the first failing member (None for one field).  It is a
    FloatingPointError, the class of every numerical abort, so a caller can
    catch it without importing this module."""

    def __init__(self, step: int, t: float, member: Optional[int] = None):
        where = "" if member is None else f" in member {member}"
        super().__init__(f"non-finite values at step {step} (t = {t:.6g}){where}")
        self.step = step
        self.t = t
        self.member = member


def _require_finite(finite, step: int, dt: float) -> None:
    """Raise IntegrationAbort at step unless every flag of finite is set;
    finite holds one flag per member of a stack, or one for one field."""
    if not np.all(finite):
        member = int(np.argmin(finite)) if np.ndim(finite) else None
        raise IntegrationAbort(step, step * dt, member)


@dataclass
class SolverConfig:
    """Physical constants and stepping controls.

    delta = 0 with no forcing is the conservative mode; delta > 0 is the
    dissipative mode.  dt <= 0.1, for splitting accuracy, is the only bound
    on dt enforced.  The exact linear part does not make every dt stable: on
    a forced background a retained shell |k|^2 goes unstable when
    (|k|^2 + omega) dt is near n pi, omega the mean nonlinear frequency.
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
        for name in ("c1", "c2", "dt", "t_end", "delta"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        for name in ("c1", "c2"):
            # a NaN or infinite constant would only surface as a non-finite step
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.dt <= 0.1:
            raise ValueError(f"dt must lie in (0, 0.1], got {self.dt}")
        # NaN fails every comparison, so these refuse it too
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be nonnegative and finite, got {self.delta}")
        if not (
            isinstance(self.sample_every, numbers.Real)
            and self.sample_every >= 1
            and float(self.sample_every).is_integer()
        ):
            raise ValueError("sample_every must be a positive integer")
        self.sample_every = int(self.sample_every)  # 2.0 would break range()
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
class SampleSeries:
    """Per-sample scalar diagnostics of one field, as SampleRecorder records them.

    Next to energy, interaction holds c1 ||u||_{L4}^4 + c2 int K(|u|^2)|u|^2
    and drive holds 2 Re int f conj(u) (zero without forcing) per sample.
    """

    times: np.ndarray
    mass: np.ndarray
    h1_norm: np.ndarray
    energy: np.ndarray
    interaction: np.ndarray
    drive: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) and np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")


@dataclass
class Trajectory(SampleSeries):
    """A SampleSeries that keeps the sampled states, one Fourier field per sample."""

    fields: list

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

    The kernel owns three buffers, shaped for one field (stack = ()) or a
    stack of K fields (stack = (K,)), and allocates nothing per call: rho
    (the density, then the potential), scratch (|Im u|^2) and rho_hat (the
    half spectrum).  density_hat and potential return one of them, valid
    until the next call; interaction takes one field's half spectrum.
    rho_hat and scratch are carved, one after the other, from one block
    that also holds a complex array of u's shape: overlay, a view over both
    for a caller that writes it only while neither holds anything it still
    needs.  Each buffer is contiguous, for one field or the whole stack.
    """

    def __init__(self, grid: GridSpec, c1: float, c2: float, stack: tuple = ()):
        m = grid.modes_per_axis
        fields = math.prod(stack)
        half = fields * m * (m // 2 + 1)  # complex entries of the half spectra
        self.grid = grid
        # stored complex, so rho_hat *= symbol casts nothing through a ufunc buffer
        self.symbol = (c1 + c2 * grid.alpha_symbol[:, : m // 2 + 1]).astype(np.complex128)
        self.rho = np.empty(stack + (m, m))
        block = np.empty(half + fields * m * m // 2, dtype=np.complex128)
        self.rho_hat = block[:half].reshape(stack + (m, m // 2 + 1))
        self.scratch = block[half:].view(np.float64).reshape(stack + (m, m))
        self.overlay = block[: fields * m * m].reshape(stack + (m, m))

    def member(self, j: int) -> "_DensityKernel":
        """The kernel of one field on member j's slices of this stack
        kernel's buffers; it has no overlay of its own."""
        one = copy.copy(self)
        one.rho, one.scratch, one.rho_hat = self.rho[j], self.scratch[j], self.rho_hat[j]
        one.overlay = None
        return one

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


class SampleRecorder:
    """Every per-sample scalar of one field, in one place: record(t, u_hat)
    appends t, the mass and H^1 norms and the energy parts of the Fourier
    coefficients u_hat, at two transforms on the density kernel it is given
    and keeping no field; series() returns what was recorded.  A stream's
    recorder() lends it the step kernel's density kernel, which is idle
    between samples."""

    def __init__(self, density: _DensityKernel, forcing: Optional[SpectralField]):
        self.grid, self.rows = density.grid, []
        self.density = density
        self.f_hat = to_fourier(forcing).values if forcing is not None else None

    def _quadratic_sums(self, hat: np.ndarray) -> tuple:
        """(sum |hat|^2, sum (1 + |xi|^2) |hat|^2, sum |xi|^2 |hat|^2) of one
        field's coefficients hat.  |hat|^2 is formed once, in the density
        kernel's rho, and each weighted copy in its scratch; density_hat
        overwrites both only afterwards.  Each product keeps |hat|^2 as its
        left operand and each sum is the reduction of sobolev_norms (the
        first two) or of the gradient energy (the third), so every value has
        the bits those give."""
        xi_sq = self.grid.xi_squared
        power = np.abs(hat, out=self.density.rho)
        power **= 2
        # 1 + |xi|^2 is grid.bracket(2.0) bit for bit, made in place
        weighted = np.add(xi_sq, 1.0, out=self.density.scratch)
        np.multiply(power, weighted, out=weighted)
        h1 = np.sum(weighted, axis=(-2, -1))
        np.multiply(power, xi_sq, out=weighted)
        return np.sum(power, axis=(-2, -1)), h1, float(np.sum(weighted))

    def _energy_parts(self, u: SpectralField, hat: np.ndarray, grad_sum: float) -> tuple:
        """energy_parts of u, whose coefficients are hat and whose
        sum |xi|^2 |hat|^2 is grad_sum."""
        l_sq = self.grid.domain_length**2
        grad = l_sq * grad_sum
        inter = self.density.interaction(self.density.density_hat(to_physical(u).values))
        drive = 0.0
        if self.f_hat is not None:
            # f_hat stays the left operand: complex products are not commutative bit for bit
            product = np.conjugate(hat)
            np.multiply(self.f_hat, product, out=product)
            drive = 2.0 * l_sq * float(np.real(np.sum(product)))
        return grad + 0.5 * inter + drive, inter, drive

    def energy_parts(self, u: SpectralField) -> tuple:
        """(E, c1 ||u||_{L4}^4 + c2 int K(|u|^2)|u|^2, 2 Re int f conj(u)) of
        one field; the drive is 0.0 without forcing."""
        hat = to_fourier(u).values
        return self._energy_parts(u, hat, self._quadratic_sums(hat)[2])

    def record(self, t: float, u_hat: np.ndarray) -> None:
        mass_sum, h1_sum, grad_sum = self._quadratic_sums(u_hat)
        length = self.grid.domain_length
        # the expression of sobolev_norms, so each norm is sobolev_norm's bits
        norms = float(length * np.sqrt(mass_sum)), float(length * np.sqrt(h1_sum))
        snap = SpectralField(self.grid, u_hat, FOURIER)
        self.rows.append((t, *norms, *self._energy_parts(snap, u_hat, grad_sum)))

    def series(self) -> SampleSeries:
        return SampleSeries(*np.array(self.rows).T.copy())  # one contiguous row per series


class _StepKernel:
    """Precomputed per-config arrays and work buffers for the split step.

    The linear half-step is u -> P u + F with P = exp(lam dt/2) and F the
    variation-of-constants forcing term; two adjacent half-steps compose
    exactly into u -> P^2 u + (P + 1) F.  The kernel keeps lead = P,
    full = P^2 (masked when dealiasing), force = F and force_full =
    (P + 1) F (both None without forcing) and the density kernel's buffers:
    for one field, 6 M x M complex fields' worth with forcing and 4 without.
    The gauge phase is the density kernel's overlay, so it costs no field.
    The 2/3 mask is 0/1, so folding it into full gives the same values as
    masking the field first.  The modes it drops are one index slab per
    axis, dropped (None without dealiasing), and dealias zeroes them in
    place: in full, in the datum and after the trailing lead of an advance,
    instead of multiplying by a stored masked copy of lead or by the grid's
    bool mask, which numpy casts through a buffer on every call.  A zeroed
    mode can differ from the masked product in the sign of an exact zero; no
    output byte depends on the sign.  A step writes only the field it
    advances and the density kernel's buffers, all shaped for one field
    (stack = ()) or a stack of K fields (stack = (K,)).
    """

    def __init__(self, grid: GridSpec, cfg: SolverConfig, dt: float, stack: tuple = ()):
        self.dt = dt
        # each array is built in the one buffer it keeps, and lam goes
        # before the density buffers are made, so construction never holds
        # more than the fields the kernel keeps
        lam = -1j * grid.xi_squared
        lam -= cfg.delta
        half_prop = lam * (dt / 2.0)
        self.lead = np.exp(half_prop, out=half_prop)
        # the modes the 2/3 mask drops: one slab of rows and one of columns
        m = grid.modes_per_axis
        self.dropped = slice(m // 3 + 1, m - m // 3) if cfg.dealias else None
        self.full = half_prop.copy()
        self.dealias(self.full)
        np.multiply(half_prop, self.full, out=self.full)
        self.force = self.force_full = None
        if cfg.forcing is not None:
            phi = half_prop - 1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                phi /= lam
            phi[lam == 0] = dt / 2.0
            phi *= -1j * to_fourier(cfg.forcing).values
            self.force = phi
            self.force_full = half_prop + 1.0
            self.force_full *= phi
        del lam
        self.density = _DensityKernel(grid, cfg.c1, cfg.c2, stack)

    def dealias(self, u: np.ndarray) -> None:
        """Zero the modes the 2/3 mask drops, in place; without dealiasing
        (dropped None) leave u as it is."""
        if self.dropped is not None:
            u[..., self.dropped, :] = 0.0
            u[..., :, self.dropped] = 0.0

    def _gauge(self, u: np.ndarray, step: int) -> None:
        """u <- exp(-i dt V) u in place; a non-finite density aborts the step."""
        rho_hat = self.density.density_hat(u)
        # rho >= 0: any non-finite value makes its member's mean non-finite
        _require_finite(np.isfinite(rho_hat[..., 0, 0]), step, self.dt)
        theta = self.density.potential(rho_hat)  # the density kernel's rho buffer
        theta *= -self.dt
        # rho_hat and scratch are spent once theta is formed: the phase overlays them
        g = self.density.overlay
        np.cos(theta, out=g.real)
        np.sin(theta, out=g.imag)
        u *= g

    def advance(self, u_hat: np.ndarray, n: int, first_step: int = 1) -> np.ndarray:
        """n Strang steps of the Fourier coefficients u_hat, in place; returns u_hat.

        Steps are numbered first_step, ..., first_step + n - 1 for the abort.
        No array is allocated: u_hat is transformed where it lies.
        """
        # lead stays the left operand, as in the product lead * u_hat:
        # u_hat *= lead can round differently
        u = np.multiply(self.lead, u_hat, out=u_hat)
        if self.force is not None:
            u += self.force
        last = first_step + n - 1
        for step in range(first_step, last + 1):
            spectral_core.ifft2_into(u, u)
            self._gauge(u, step)
            spectral_core.fft2_into(u, u)
            if step < last:
                u *= self.full
                force = self.force_full
            else:
                u *= self.lead
                self.dealias(u)
                force = self.force
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
    u_hat = kernel.advance(to_fourier(u).values.copy(), 1)
    result = SpectralField(u.grid, u_hat, FOURIER)
    return result if u.representation == FOURIER else to_physical(result)


def energy_functional(
    u: SpectralField, f: Optional[SpectralField], c1: float, c2: float
) -> float:
    """E = ||grad u||^2 + (c1/2)||u||_{L4}^4 + (c2/2) int K(|u|^2)|u|^2 + 2 Re int f conj(u).

    Conserved by the conservative flow; the quartic and K terms together are
    the interaction part, L^2 * sum (c1 + c2 alpha) |rho_hat|^2 for rho = |u|^2.
    """
    return SampleRecorder(_DensityKernel(u.grid, c1, c2), f).energy_parts(u)[0]


def sample_steps(cfg: SolverConfig) -> list:
    """Step numbers of the recorded samples: 0, every sample_every-th step
    and the last one; the sample at step k is taken at t = k * cfg.dt."""
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        raise ValueError("t_end must be an integer multiple of dt")
    return list(range(0, n_steps, cfg.sample_every)) + [n_steps]


class SampleStream:
    """Iterator over the (step, t, u_hat) samples of sample_stream or
    ensemble_stream.  u_hat is the one buffer the run is stepped in: it is
    valid until the next iteration, and a consumer that keeps a state keeps
    a copy.  recorder() is the one way to record the stream's samples.  Once
    exhausted, the stream lets go of its step kernel."""

    def __init__(self, kernel: _StepKernel, u_hat: np.ndarray, cfg: SolverConfig):
        self.kernel, self.forcing = kernel, cfg.forcing
        self._samples = self._run(u_hat, cfg)

    def __iter__(self) -> "SampleStream":
        return self

    def __next__(self) -> tuple:
        return next(self._samples)

    def recorder(self) -> SampleRecorder:
        """A SampleRecorder of the stream's field, or of member 0 of its
        stack, on the step kernel's density kernel, which no step leaves
        anything in: a run holds one density kernel, not two."""
        density = self.kernel.density
        if density.rho.ndim == 3:
            density = density.member(0)
        return SampleRecorder(density, self.forcing)

    def _run(self, u_hat: np.ndarray, cfg: SolverConfig) -> Iterator[tuple]:
        """The sample loop, from the fresh datum coefficients u_hat (one
        field or a stack), which it steps in place."""
        kernel, steps = self.kernel, sample_steps(cfg)
        kernel.dealias(u_hat)
        done = 0
        for step in steps:
            if step > done:
                kernel.advance(u_hat, step - done, done + 1)
                done = step
            _require_finite(np.isfinite(u_hat).all(axis=(-2, -1)), step, cfg.dt)
            yield step, step * cfg.dt, u_hat
        self.kernel = None  # an exhausted stream holds no kernel buffers


def sample_stream(u0: SpectralField, cfg: SolverConfig) -> SampleStream:
    """Yield (step, t, u_hat) at every step of sample_steps(cfg).

    When cfg.dealias is set, the 2/3 mask is applied to the datum once before
    stepping and the masked field is the first sample.  Without forcing every
    sampled state lives on the same retained modes; with forcing, a later
    sample also carries the trailing half-step's forcing term, which is added
    after the mask, on the modes outside it.  Every u_hat is the same
    Fourier-coefficient array, stepped in place: it is valid until the next
    iteration; copy it to keep it.  u0 itself is left unchanged.
    Non-finite values abort with the failing step.
    """
    return SampleStream(_StepKernel(u0.grid, cfg, cfg.dt), to_fourier(u0).values.copy(), cfg)


def ensemble_stream(fields: Sequence[SpectralField], cfg: SolverConfig) -> SampleStream:
    """sample_stream of K fields on one grid, stepped together as one stack.

    Yields (step, t, stack) with stack a (K, M, M) array whose slice j is bit
    for bit the u_hat that sample_stream yields for fields[j].  As there,
    stack is one buffer stepped in place: it is valid until the next
    iteration; copy it to keep it.  The stack aborts at the earliest step at
    which any member turns non-finite; IntegrationAbort.member names the
    first such member.
    """
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ValueError("ensemble members must share one grid")
    stack = np.stack([to_fourier(f).values for f in fields])
    return SampleStream(_StepKernel(grid, cfg, cfg.dt, stack.shape[:1]), stack, cfg)


def evolve(u0: SpectralField, cfg: SolverConfig) -> Trajectory:
    """Fixed-step integration to cfg.t_end: the SampleRecorder series of
    sample_stream plus a copy of every sampled state as a Fourier field, one
    M x M array per sample.  Non-finite values abort with the failing step."""
    stream = sample_stream(u0, cfg)
    recorder, fields = stream.recorder(), []
    for _, t, u_hat in stream:
        recorder.record(t, u_hat)
        fields.append(SpectralField(u0.grid, u_hat.copy(), FOURIER))
    return Trajectory(**vars(recorder.series()), fields=fields)
