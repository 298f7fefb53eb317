"""Long-time experiments for the damped, driven flow.

Three instruments around the energy

    E(u) = ||grad u||^2 + (c1/2) ||u||_{L4}^4 + (c2/2) int K(|u|^2)|u|^2
           + 2 Re int f conj(u):

an energy-balance audit (the flow satisfies dE/dt + 2 delta E = F with an
explicit lower-order source F; the residual of that identity measures solver
fidelity), an absorbing-ball fit (H^1 histories of an ensemble are fitted to
A exp(-B t) + C and checked against the ball of radius 1.1 C), and a
compactness probe (subtracting the damped free flow of the shifted datum
leaves a remainder that stays bounded in a strictly smoother norm while the
free part does not).

Both experiments step the whole ensemble as one (K, M, M) stack through
ensemble_stream, in one pass, and read each sample as it comes: the norms of
all members in one reduction, and member 0's SampleRecorder series for the
balance audit.  The stack is one buffer that the stream steps in place, and
member 0's recorder borrows the stack kernel's density buffers.  Memory grows
with K x M^2 (about three and a half fields per member in both experiments),
not with the number of samples.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .spectral_core import (
    FOURIER,
    GridSpec,
    SpectralField,
    sobolev_norm,
    sobolev_norms,
    to_fourier,
)
from .ds_solver import (
    SAMPLE_TIME_TOL,
    SampleSeries,
    SolverConfig,
    energy_functional,
    ensemble_stream,
    evolve,
    sample_steps,
)
from .smoothing_diagnostics import RoughDataSpec, make_forcing, make_rough_data, remainders

__all__ = [
    "EnsembleConfig",
    "EnergyReport",
    "absorbing_experiment",
    "compactness_probe",
    "energy_balance_residual",
    "energy_functional",
    "make_forcing",
    "run_ensemble",
]


@dataclass(frozen=True)
class EnsembleConfig:
    """A family of damped runs sharing grid, constants, forcing and schedule.

    members are datum specs realized on the common grid, so every member sees
    the same truncation.  delta > 0 is required: the absorbing/compactness
    statements are about the dissipative flow.  a is the extra smoothness
    tested by the compactness probe and must stay strictly inside (0, 1/2).
    """

    grid: GridSpec
    members: Sequence[RoughDataSpec]
    c1: float
    c2: float
    delta: float
    forcing: Optional[SpectralField]
    horizon: float
    dt: float
    sample_every: int = 1
    probe_times: Sequence[float] = (10.0, 20.0, 40.0)
    a: float = 0.4

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "probe_times", tuple(float(t) for t in self.probe_times))
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        if not self.delta > 0:
            raise ValueError("dissipative mode requires delta > 0")
        if not 0.0 < self.a < 0.5:
            raise ValueError(f"smoothing exponent a must lie in (0, 1/2), got {self.a}")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.forcing is not None and self.forcing.grid != self.grid:
            raise ValueError("forcing must live on the ensemble grid")
        if any(t <= 0 or t > self.horizon + 1e-9 for t in self.probe_times):
            raise ValueError("probe times must lie in (0, horizon]")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            c1=self.c1,
            c2=self.c2,
            dt=self.dt,
            t_end=self.horizon,
            delta=self.delta,
            forcing=self.forcing,
            sample_every=self.sample_every,
        )


@dataclass
class EnergyReport:
    """Balance series plus (optionally) the ensemble absorbing-ball fit.

    times/energy/source/residuals hold the audited identity at interior
    sample points; they are empty, and max_residual is None, when the run
    was not audited.  The remaining fields are filled by absorbing_experiment:
    one H^1 history and one fitted radius per member, aggregate fit values,
    per-member entry times into the 1.1 * fit_radius ball (nan when a member
    never settles), and the list of members whose exponential fit failed.
    """

    times: np.ndarray
    energy: np.ndarray
    source: np.ndarray
    residuals: np.ndarray
    max_residual: Optional[float]
    h1_series: tuple = ()
    member_radius: tuple = ()
    fit_amplitude: Optional[float] = None
    fit_rate: Optional[float] = None
    fit_radius: Optional[float] = None
    entry_times: tuple = ()
    absorbed: Optional[bool] = None
    fit_failures: tuple = ()
    sample_times: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.residuals)):
            raise FloatingPointError("residual series must be finite")
        if self.fit_rate is not None and not self.fit_rate > 0:
            raise ValueError("fitted decay rate must be positive")


def energy_balance_residual(traj: SampleSeries, cfg: SolverConfig) -> EnergyReport:
    """Audit dE/dt + 2 delta E = F along recorded per-sample series.

    F = -delta * interaction + delta * drive is built from the energy parts
    SampleRecorder recorded per sample (a Trajectory from evolve is one such
    series), so no field is transformed here; cfg must be the config the run
    used.  dE/dt is a centered difference over interior samples only, so it
    needs at least three samples at most 10 * dt apart; with fewer or sparser
    samples it would report an O(spacing^2) artifact, and the report is the
    not-audited one instead (four empty series, max_residual None).  A
    non-finite residual (the energy overflowed) raises FloatingPointError.
    """
    t = np.asarray(traj.times, dtype=float)
    if len(t) < 3 or float(np.max(np.diff(t))) > 10.0 * cfg.dt + 1e-12:
        empty = np.zeros(0)
        return EnergyReport(empty, empty, empty, empty, None)
    e = np.asarray(traj.energy, dtype=float)
    source = -cfg.delta * traj.interaction + cfg.delta * traj.drive
    dedt = (e[2:] - e[:-2]) / (t[2:] - t[:-2])
    residuals = dedt + 2.0 * cfg.delta * e[1:-1] - source[1:-1]
    return EnergyReport(
        times=t[1:-1],
        energy=e[1:-1],
        source=source[1:-1],
        residuals=residuals,
        max_residual=float(np.max(np.abs(residuals))),
    )


def run_ensemble(ens: EnsembleConfig, workers: int = 1) -> list:
    """Integrate every member under the shared config, one after another,
    and keep every trajectory.  The experiments below do not use it: they
    stream the ensemble and keep only what they read.  workers is accepted
    and ignored; it goes with the benchmark probe that passes it (ROADMAP
    item 3)."""
    cfg = ens.solver_config()
    return [evolve(make_rough_data(spec, ens.grid), cfg) for spec in ens.members]


def _member_stream(ens: EnsembleConfig, cfg: SolverConfig):
    """ensemble_stream of the members, realized on the ensemble grid."""
    return ensemble_stream([make_rough_data(spec, ens.grid) for spec in ens.members], cfg)


def _fit_member(times: np.ndarray, h1: np.ndarray):
    """Fit h1(t) ~ A exp(-B t) + C.  C starts as the trailing-window mean and
    is debiased by subtracting the fitted transient; A, B come from least
    squares on log|h1 - C| over the decaying part of the history.  Returns
    (A, B, C), or (None, None, C) when the series does not decay."""
    n = len(h1)
    tail = max(2, n // 4)
    tail_t, tail_h = times[-tail:], h1[-tail:]
    c = float(np.mean(tail_h))
    # a series still rising through the trailing window has no ceiling to fit
    rise = float(np.polyfit(tail_t, tail_h, 1)[0]) * (tail_t[-1] - tail_t[0])
    if rise > 0.05 * max(c, 1e-12):
        return None, None, c
    a = b = None
    for _ in range(3):
        diff = h1 - c
        floor = 3.0 * float(np.mean(np.abs(diff[-tail:]))) + 1e-12
        usable = np.flatnonzero(np.abs(diff[: n - tail]) > floor)
        if len(usable) < 3:
            return None, None, c
        slope, intercept = np.polyfit(times[usable], np.log(np.abs(diff[usable])), 1)
        if not slope < 0:
            return None, None, c
        a, b = float(np.exp(intercept)), float(-slope)
        sign = 1.0 if float(np.mean(diff[usable])) >= 0 else -1.0
        c = float(np.mean(tail_h - sign * a * np.exp(-b * tail_t)))
    return a, b, c


def absorbing_experiment(ens: EnsembleConfig) -> EnergyReport:
    """Fit A exp(-B t) + C to each member's H^1 history and test absorption.

    fit_radius averages the per-member C; absorbed means every member enters
    the ball of radius 1.1 * fit_radius and stays there for the rest of the
    run.  Members whose history never decays toward their trailing level are
    listed in fit_failures (reported, not raised) and the aggregate A, B are
    taken over the members that did fit; when every fit fails, absorbed is
    False.

    The members are stepped as one stack in one pass that keeps only scalar
    series: every member's H^1 norm per sample, and member 0's recorded
    series, which feed the balance audit when the sampling is dense enough
    for it (otherwise the balance series are empty and max_residual is None).
    """
    cfg = ens.solver_config()
    stream = _member_stream(ens, cfg)
    member0, h1 = stream.recorder(), []
    for _, t, stack in stream:
        member0.record(t, stack[0])
        h1.append(sobolev_norms(ens.grid, stack, 1.0))
    series = member0.series()
    balance = energy_balance_residual(series, cfg)
    times = series.times
    h1_series = tuple(np.array(h1).T.copy())  # one contiguous row per member

    fits = [_fit_member(times, h1) for h1 in h1_series]
    radii = tuple(c for (_, _, c) in fits)
    fit_radius = float(np.mean(radii))
    failures = tuple(j for j, (a_j, _, _) in enumerate(fits) if a_j is None)
    rates = [b_j for (_, b_j, _) in fits if b_j is not None]
    amps = [a_j for (a_j, _, _) in fits if a_j is not None]

    # with no member fitted there is no radius to be absorbed into
    entry, absorbed = [], len(failures) < len(fits)
    tail = max(2, len(times) // 4)
    for h1, c_j in zip(h1_series, radii):
        # the ball is 1.1 * fit_radius up to the member's own trailing
        # fluctuation scale; without the floor an unforced ensemble (C ~ 0)
        # could never be credited with entering
        ball = 1.1 * fit_radius + 3.0 * float(np.mean(np.abs(h1[-tail:] - c_j))) + 1e-12
        outside = np.flatnonzero(h1 > ball)
        if len(outside) == 0:
            entry.append(float(times[0]))
        elif outside[-1] == len(h1) - 1:
            entry.append(float("nan"))
            absorbed = False
        else:
            entry.append(float(times[outside[-1] + 1]))

    return replace(
        balance,
        h1_series=h1_series,
        member_radius=radii,
        fit_amplitude=float(np.mean(amps)) if amps else None,
        fit_rate=float(np.mean(rates)) if rates else None,
        fit_radius=fit_radius,
        entry_times=tuple(entry),
        absorbed=absorbed,
        fit_failures=failures,
        sample_times=times,
    )


def _forcing_shift(ens: EnsembleConfig) -> SpectralField:
    """g = (1 - Lap)^{-1} f, computed mode by mode; zero when f is absent."""
    if ens.forcing is None:
        return SpectralField.zeros(ens.grid, FOURIER)
    f_hat = to_fourier(ens.forcing).values
    return SpectralField(ens.grid, f_hat * ens.grid.bracket(-2.0), FOURIER)


def _probe_steps(ens: EnsembleConfig, cfg: SolverConfig) -> dict:
    """Sample step of each probe time; a probe time that is not a sample
    time raises ValueError naming the nearest one."""
    steps = np.array(sample_steps(cfg))
    times = steps * cfg.dt
    found = {}
    for t in ens.probe_times:
        idx = int(np.argmin(np.abs(times - t)))
        if abs(times[idx] - t) > SAMPLE_TIME_TOL:
            raise ValueError(
                f"probe time {t} is not a sample time (nearest: {times[idx]:.12g}); "
                f"samples are every {cfg.sample_every * cfg.dt:.12g}"
            )
        found[t] = int(steps[idx])
    return found


def compactness_probe(ens: EnsembleConfig) -> dict:
    """Split v = u + g into damped free flow plus a smoother remainder.

    With g = (1 - Lap)^{-1} f and w the solution of i w_t + Lap w + i delta w
    = 0 from v(0), the remainder n = v - w (remainders of v against
    v(0) at damping delta) is measured in H^{1+a}.  Under refinement
    sup_t ||n||_{H^{1+a}} is expected to stabilize while the free part keeps
    the datum's roughness and grows.  Also records pairwise H^1 distances of
    the ensemble at the probe times, and max_balance_residual: the balance
    audit of member 0 (None when the sampling is too sparse for it).

    Every probe time is checked against the sample schedule before the first
    step (ValueError otherwise).  The members are stepped as one stack in
    one pass that keeps v(0), the running sup of each remainder, the
    distances at the probe samples and member 0's recorded series.
    """
    cfg = ens.solver_config()
    probe_steps = _probe_steps(ens, cfg)
    g = _forcing_shift(ens)
    s_up = 1.0 + ens.a

    stream = _member_stream(ens, cfg)
    member0 = stream.recorder()
    sup_n = np.zeros(len(ens.members))
    pairwise = dict.fromkeys(probe_steps)  # in probe order, filled at each probe's sample
    for step, t, stack in stream:
        member0.record(t, stack[0])
        if step == 0:
            v0 = stack + g.values  # the stream steps stack in place
            free_part = np.array([sobolev_norms(ens.grid, v0_j, s_up) for v0_j in v0])
        n = remainders(ens.grid, stack, v0, float(t), ens.delta, shift=g.values)
        sup_n = np.maximum(sup_n, [sobolev_norm(n_j, s_up) for n_j in n])
        for probe in [p for p, at in probe_steps.items() if at == step]:
            pairwise[probe] = np.array([
                sobolev_norm(SpectralField(ens.grid, stack[i] - stack[j], FOURIER), 1.0)
                for i in range(len(stack)) for j in range(i + 1, len(stack))
            ])
    balance = energy_balance_residual(member0.series(), cfg)

    return {
        "a": ens.a,
        "remainder_h1a": sup_n,
        "free_h1a": free_part,
        "shift_h1a": sobolev_norm(g, s_up),
        "pairwise_h1": pairwise,
        "max_balance_residual": balance.max_residual,
    }
