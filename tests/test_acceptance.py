"""Twelve end-to-end acceptance scenarios at fixed tolerances.

Each test drives one full workflow, prints a single PASS/FAIL line with the
measured numbers (visible with -s, or in the report of a failing test), then
asserts every clause.  Criterion 5 asserts grid convergence of the gauged
Duhamel remainder: on the periodic box the plain remainder inherits the
datum tail's resonant dressing and refines like the linear part, so its
column is printed but not asserted.  Criterion 7 asserts the ratio exponent
a + (b - 1)/2 - 3/4 that the box count gives for the packet triple, and the
0.2 spacing per 0.2 step in a.
"""
import json
import time

import numpy as np
import pytest

from dslab.attractor_lab import (
    EnsembleConfig,
    absorbing_experiment,
    compactness_probe,
    make_forcing,
)
from dslab.cli import main
from dslab.ds_solver import SolverConfig, evolve
from dslab.smoothing_diagnostics import RoughDataSpec, make_rough_data, refinement_study
from dslab.spectral_core import (
    FOURIER,
    PHYSICAL,
    GridSpec,
    SpectralField,
    apply_K,
    free_evolve,
    sobolev_norm,
    to_physical,
)
from dslab.xsb_analysis import knapp_grid, knapp_sweep, norm_2Z, ttstar_pair
from dslab.xsb_analysis.blocks import CASES, check_block_bounds, sample_block_specs

TWO_PI = 2.0 * np.pi


def _verdict(num: int, clauses) -> None:
    ok = all(flag for flag, _ in clauses)
    detail = "; ".join(text for _, text in clauses)
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    failed = [text for flag, text in clauses if not flag]
    assert not failed, f"criterion {num:02d}: " + "; ".join(failed)


def _random_field(grid: GridSpec, seed: int) -> SpectralField:
    rng = np.random.default_rng(seed)
    shape = (grid.modes_per_axis, grid.modes_per_axis)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralField(grid, vals, FOURIER)


def test_criterion_01_k_operator_properties():
    start = time.time()
    grid = GridSpec(128, TWO_PI)
    worst_contract = 0.0
    worst_adjoint = 0.0
    worst_conj = 0.0
    for seed in range(100):
        f = _random_field(grid, seed)
        g = _random_field(grid, 1000 + seed)
        kf = apply_K(f)
        norm_f = sobolev_norm(f, 0.0)
        worst_contract = max(
            worst_contract, (sobolev_norm(kf, 0.0) - norm_f) / norm_f
        )
        # symbol is real, so the complex L2 pairing must be symmetric
        lhs = np.sum(kf.values * np.conj(g.values))
        rhs = np.sum(f.values * np.conj(apply_K(g).values))
        scale = np.linalg.norm(f.values) * np.linalg.norm(g.values)
        worst_adjoint = max(worst_adjoint, abs(lhs - rhs) / scale)
        f_phys = to_physical(f).values
        conj_first = apply_K(SpectralField(grid, np.conj(f_phys), PHYSICAL))
        kf_phys = to_physical(kf).values
        gap = np.max(np.abs(to_physical(conj_first).values - np.conj(kf_phys)))
        worst_conj = max(worst_conj, gap / np.max(np.abs(kf_phys)))
    elapsed = time.time() - start
    _verdict(1, [
        (worst_contract <= 1e-14,
         f"L2 contraction exact (max relative excess {worst_contract:.1e})"),
        (worst_adjoint <= 1e-10, f"self-adjointness gap {worst_adjoint:.1e} <= 1e-10"),
        (worst_conj <= 1e-10, f"conjugation symmetry gap {worst_conj:.1e} <= 1e-10"),
        (elapsed < 5.0, f"{elapsed:.1f}s < 5s"),
    ])


def test_criterion_02_free_flow_isometry():
    grid = GridSpec(128, TWO_PI)
    u = _random_field(grid, 5)
    worst = 0.0
    for s in (0.0, 0.6, 1.0, 1.4):
        before = sobolev_norm(u, s)
        for t in (0.1, 1.0, 10.0):
            after = sobolev_norm(free_evolve(u, t), s)
            worst = max(worst, abs(after - before) / before)
    _verdict(2, [
        (worst <= 1e-12,
         f"H^s isometry over s in {{0, 0.6, 1, 1.4}}, t in {{0.1, 1, 10}}: "
         f"worst relative drift {worst:.1e} <= 1e-12"),
    ])


@pytest.mark.slow
def test_criterion_03_conservation_and_energy_order():
    start = time.time()
    grid = GridSpec(128, TWO_PI)
    u0 = make_rough_data(RoughDataSpec(s=3.0, amplitude=0.3, seed=12), grid)
    drift = {}
    mass_rel = np.inf
    for dt in (1e-3, 5e-4):
        cfg = SolverConfig(
            c1=1.0, c2=1.0, dt=dt, t_end=10.0, sample_every=int(round(1.0 / dt))
        )
        traj = evolve(u0, cfg)
        if dt == 1e-3:
            mass_rel = float(np.max(np.abs(traj.mass - traj.mass[0])) / traj.mass[0])
        drift[dt] = float(
            np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
        )
    ratio = drift[1e-3] / drift[5e-4]
    elapsed = time.time() - start
    _verdict(3, [
        (mass_rel <= 1e-9, f"relative mass drift {mass_rel:.1e} <= 1e-9"),
        (3.5 <= ratio <= 4.5,
         f"energy-drift ratio under dt halving {ratio:.3f} in [3.5, 4.5]"),
        (elapsed < 120.0, f"{elapsed:.0f}s < 120s"),
    ])


def test_criterion_04_damped_decay_closed_form():
    grid = GridSpec(64, TWO_PI)
    u0 = make_rough_data(RoughDataSpec(s=1.0, amplitude=0.5, seed=3), grid)
    # no mask: the gauge substep is then an exact rotation and the L2 norm
    # obeys the damping law to roundoff
    cfg = SolverConfig(
        c1=1.0, c2=1.0, dt=1e-3, t_end=5.0, delta=0.2,
        dealias=False, sample_every=5000,
    )
    traj = evolve(u0, cfg)
    expected = np.exp(-0.2 * 5.0) * traj.mass[0]
    rel = abs(traj.mass[-1] - expected) / expected
    _verdict(4, [
        (rel <= 1e-6, f"||u(5)||_L2 matches e^(-delta t)||u0|| to {rel:.1e} <= 1e-6"),
    ])


@pytest.mark.slow
def test_criterion_05_smoothing_refinement():
    # On the periodic box each tail mode of the plain remainder
    # u(t) - exp(it Lap) u0 carries the lattice dressing
    # (exp(-i sigma t) - 1) exp(it Lap) u0, so it refines like the linear
    # column at every dt; the gauged remainder is the smoothing observable.
    # dt = 1.25e-3 resolves M = 512 (the gauged 256 -> 512 change sits within
    # 0.3 points of its dt -> 0 value); 400 steps keep the samples 0.5 apart.
    start = time.time()
    spec = RoughDataSpec(s=0.6, amplitude=0.01, seed=20)
    cfg = SolverConfig(c1=1.0, c2=1.0, dt=1.25e-3, t_end=2.0, sample_every=400)
    out = refinement_study(spec, [64, 128, 256, 512], 0.6, 0.3, cfg, domain_length=TWO_PI)

    def change(key: str) -> float:
        norms = [row[key] for row in out["rows"]]
        return abs(norms[-1] - norms[-2]) / norms[-2]

    gauged_change = change("norm_nonlinear_gauged")
    elapsed = time.time() - start
    _verdict(5, [
        (abs(out["linear_slope"] - 0.3) <= 0.1,
         f"linear slope {out['linear_slope']:.3f} within 0.3 +/- 0.1"),
        (-0.1 <= out["gauged_slope"] <= 0.1,
         f"gauged remainder slope {out['gauged_slope']:.3f} in [-0.1, 0.1] "
         f"(plain remainder slope {out['nonlinear_slope']:.3f})"),
        (gauged_change <= 0.05,
         f"256->512 gauged-remainder norm change {gauged_change:.1%} <= 5% "
         f"(plain {change('norm_nonlinear'):.1%})"),
        (elapsed < 900.0, f"{elapsed:.0f}s < 900s"),
    ])


def test_criterion_06_packet_power_laws():
    start = time.time()
    sweep = knapp_sweep([8.0, 16.0, 32.0, 64.0], s=0.6, a=0.3)
    elapsed = time.time() - start
    _verdict(6, [
        (abs(sweep.u_slope - 0.1) <= 0.1,
         f"tube-norm slope {sweep.u_slope:.4f} within (s - 1/2) +/- 0.1"),
        (abs(sweep.v_slope + 0.25) <= 0.05,
         f"squat-box slope {sweep.v_slope:.4f} within -1/4 +/- 0.05"),
        (elapsed < 300.0, f"{elapsed:.0f}s < 300s"),
    ])


def test_criterion_07_sharpness_exponent_ladder():
    start = time.time()
    s, b = 0.6, 0.51
    a_values = (0.3, 0.5, 0.7)
    n_values = (8.0, 16.0, 32.0, 64.0)
    grid = knapp_grid(max(n_values))
    slopes = {a: knapp_sweep(n_values, s=s, a=a, b=b, grid=grid).slope for a in a_values}
    spacing = (slopes[0.5] - slopes[0.3], slopes[0.7] - slopes[0.5])
    elapsed = time.time() - start
    # box count for this triple: u is a 1 x 1/N x 1 tube, v = w are
    # 1 x N^{-1/2} x 1 boxes, and the output has amplitude N^{-3/2} on a
    # volume N^{-1/2} at modulation N^{1/2}, so the ratio goes like
    # N^{a + (b - 1)/2 - 3/4}
    targets = {a: a + (b - 1.0) / 2.0 - 0.75 for a in a_values}
    clauses = [
        (abs(slopes[a] - targets[a]) <= 0.15,
         f"a={a}: ratio slope {slopes[a]:.4f} vs box-count target "
         f"{targets[a]:+.3f} +/- 0.15")
        for a in a_values
    ]
    clauses.append((
        all(abs(step - 0.2) <= 0.05 for step in spacing),
        f"slope spacing per 0.2 in a: {spacing[0]:.3f}, {spacing[1]:.3f} "
        f"within 0.2 +/- 0.05",
    ))
    clauses.append((elapsed < 600.0, f"{elapsed:.0f}s < 600s"))
    _verdict(7, clauses)


def test_criterion_08_ttstar_identity():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 33))
        m = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        exact = norm_2Z(ttstar_pair(m))
        peak = float(np.max(np.abs(m)) ** 2)
        worst = max(worst, abs(exact - peak) / peak)
    _verdict(8, [
        (worst <= 1e-6,
         f"[2;Z] norm equals peak |m|^2 on 50 draws (groups <= 32), "
         f"worst relative gap {worst:.1e} <= 1e-6"),
    ])


@pytest.mark.slow
def test_criterion_09_block_bounds_single_constant():
    start = time.time()
    specs = []
    for k, case in enumerate(CASES):
        specs.extend(sample_block_specs(case, 20, seed=11 + k))
    result = check_block_bounds(specs, restarts=6, iters=60, seed=0)
    rows = result["rows"]
    c_star = result["c_star"]
    supports_ok = all(r["support"] > 0 for r in rows)
    within = all(r["estimate"] <= c_star * r["bound"] * (1 + 1e-12) for r in rows)
    none_above = all(r["estimate"] <= 1.3 * c_star * r["bound"] for r in rows)
    elapsed = time.time() - start
    _verdict(9, [
        (len(rows) == 80 and supports_ok,
         f"{len(rows)} sampled blocks (20 per case), all with nonempty support"),
        (np.isfinite(c_star) and c_star > 0,
         f"single constant C* = {c_star:.3f} "
         f"(geometric-mean ratio {result['c_fit']:.3f})"),
        (within, "every estimate <= C* x bound"),
        (none_above, "no estimate exceeds 1.3 x C* x bound"),
        (elapsed < 600.0, f"{elapsed:.0f}s < 600s"),
    ])


@pytest.mark.slow
def test_criterion_10_absorbing_ball():
    start = time.time()
    grid = GridSpec(64, TWO_PI)
    # the datum law's norm is amplitude-linear and phase-independent, so one
    # reference norm converts H^1 targets into amplitudes for every seed;
    # measure it after the solver's mask, which is what the runs integrate
    ref = make_rough_data(RoughDataSpec(1.0, 1.0, 0), grid)
    masked = SpectralField(grid, ref.values * grid.dealias_mask, FOURIER)
    h1_unit = sobolev_norm(masked, 1.0)
    targets = np.geomspace(0.5, 5.0, 8)
    members = [
        RoughDataSpec(1.0, float(t / h1_unit), 100 + j)
        for j, t in enumerate(targets)
    ]
    ens = EnsembleConfig(
        grid=grid, members=members, c1=1.0, c2=1.0, delta=0.2,
        forcing=make_forcing(grid, 0.15, seed=55, smoothness=3.0),
        horizon=40.0, dt=0.01, sample_every=10,
    )
    report = absorbing_experiment(ens)
    initial = np.array([h[0] for h in report.h1_series])
    radii = np.array(report.member_radius)
    spread = float(np.max(np.abs(radii - report.fit_radius)) / report.fit_radius)
    entries = np.array(report.entry_times)
    elapsed = time.time() - start
    _verdict(10, [
        (bool(np.all(initial >= 0.5 - 1e-9) and np.all(initial <= 5.0 + 1e-9)),
         f"datum H^1 norms span [{initial.min():.2f}, {initial.max():.2f}] "
         f"inside [0.5, 5]"),
        (not report.fit_failures, "every member admits an exponential fit"),
        (spread <= 0.2,
         f"per-member fitted radii within {spread:.2%} of the common value "
         f"(limit 20%)"),
        (report.fit_rate is not None and report.fit_rate > 0,
         f"fitted decay rate {report.fit_rate:.3f} > 0"),
        (bool(report.absorbed)
         and bool(np.all(np.isfinite(entries)) and np.all(entries <= 40.0)),
         f"all members enter the 1.1x ball and stay "
         f"(last entry t = {entries.max():.1f})"),
        (elapsed < 1200.0, f"{elapsed:.0f}s < 1200s"),
    ])


@pytest.mark.slow
def test_criterion_11_compactness_refinement():
    start = time.time()
    results = {}
    for m in (128, 256):
        grid = GridSpec(m, TWO_PI)
        ens = EnsembleConfig(
            grid=grid,
            members=[RoughDataSpec(1.0, 0.1, 7), RoughDataSpec(1.0, 0.05, 8)],
            c1=1.0, c2=1.0, delta=0.2,
            forcing=make_forcing(grid, 0.05, seed=21),
            horizon=20.0, dt=0.01, sample_every=50,
            probe_times=(10.0, 20.0), a=0.4,
        )
        results[m] = compactness_probe(ens)
    coarse, fine = results[128], results[256]
    n_change = np.abs(
        fine["remainder_h1a"] - coarse["remainder_h1a"]
    ) / coarse["remainder_h1a"]
    growth = (fine["free_h1a"] - coarse["free_h1a"]) / coarse["free_h1a"]
    elapsed = time.time() - start
    _verdict(11, [
        (float(np.max(n_change)) <= 0.10,
         f"sup_t H^1.4 remainder changes at most {np.max(n_change):.1%} "
         f"from 128 to 256 (limit 10%)"),
        (float(np.min(growth)) >= 0.25,
         f"rough free part grows at least {np.min(growth):.1%} (floor 25%)"),
        (elapsed < 600.0, f"{elapsed:.0f}s < 600s"),
    ])


SIM_TEXT = """
[run]
seed = 7

[simulate]
modes = 32
domain_length = 6.283185307179586
s = 1.0
amplitude = 0.3
dt = 0.01
t_end = 1.0
sample_every = 10
"""

ATTR_TEXT = """
[run]
seed = 3

[attractor]
modes = 32
member_count = 2
delta = 0.4
forcing_amplitude = 0.1
horizon = 6.0
dt = 0.01
sample_every = 10
probes = 3,6
h1_min = 0.5
h1_max = 1.5
"""


def test_criterion_12_byte_determinism(tmp_path):
    sim = tmp_path / "sim.ini"
    sim.write_text(SIM_TEXT, encoding="utf-8")
    s_outs = [tmp_path / "s1", tmp_path / "s2"]
    for out in s_outs:
        assert main(["simulate", "--config", str(sim), "--out", str(out)]) == 0
    sim_same = (
        (s_outs[0] / "simulate.csv").read_bytes()
        == (s_outs[1] / "simulate.csv").read_bytes()
    )
    hashes = [
        json.loads((out / "manifest.json").read_text(encoding="utf-8"))["content_hash"]
        for out in s_outs
    ]
    attr = tmp_path / "attr.ini"
    attr.write_text(ATTR_TEXT, encoding="utf-8")
    a_outs = [tmp_path / "a1", tmp_path / "a2"]
    for out, threads in zip(a_outs, ("1", "2")):
        code = main([
            "attractor", "--config", str(attr),
            "--out", str(out), "--threads", threads,
        ])
        assert code == 0
    attr_same = (
        (a_outs[0] / "attractor.csv").read_bytes()
        == (a_outs[1] / "attractor.csv").read_bytes()
    ) and (
        (a_outs[0] / "summary.json").read_bytes()
        == (a_outs[1] / "summary.json").read_bytes()
    )
    _verdict(12, [
        (sim_same, "simulate reruns write byte-identical CSV"),
        (hashes[0] == hashes[1], f"content hash stable ({hashes[0][:12]}...)"),
        (attr_same, "ensemble outputs byte-identical across thread counts"),
    ])
