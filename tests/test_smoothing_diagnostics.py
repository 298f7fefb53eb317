"""Rough-data construction, Duhamel split, and refinement-slope checks."""
import tracemalloc

import numpy as np
import pytest

from dslab.spectral_core import (
    FOURIER,
    GridSpec,
    SpectralField,
    free_evolve,
    sobolev_norm,
    to_fourier,
    to_physical,
)
from dslab.ds_solver import SolverConfig, evolve, sample_steps, sample_stream
from dslab.smoothing_diagnostics import (
    RoughDataSpec,
    duhamel_remainder,
    make_rough_data,
    nonlinear_part,
    refinement_study,
    resonant_gauge_phase,
)

TWO_PI = 2.0 * np.pi


class TestRoughDataSpec:
    def test_requires_rough_exponent(self):
        with pytest.raises(ValueError):
            RoughDataSpec(s=0.5, amplitude=1.0, seed=0)

    @pytest.mark.parametrize("s", [np.inf, np.nan])
    def test_requires_finite_exponent(self, s):
        # s = inf passed and built a datum of the zero mode alone
        with pytest.raises(ValueError, match="finite and exceed 1/2"):
            RoughDataSpec(s=s, amplitude=1.0, seed=0)

    def test_requires_nonnegative_amplitude(self):
        with pytest.raises(ValueError):
            RoughDataSpec(s=0.6, amplitude=-1.0, seed=0)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf])
    def test_requires_finite_amplitude(self, amplitude):
        # NaN passes a plain amplitude < 0 test
        with pytest.raises(ValueError, match="finite and nonnegative"):
            RoughDataSpec(s=0.6, amplitude=amplitude, seed=0)

    def test_spectral_law(self):
        assert RoughDataSpec(s=0.6, amplitude=1.0, seed=0).spectral_law == pytest.approx(-1.6)


class TestMakeRoughData:
    def test_zero_amplitude(self):
        u = make_rough_data(RoughDataSpec(s=0.6, amplitude=0.0, seed=3), GridSpec(32))
        assert np.max(np.abs(u.values)) == 0.0

    def test_deterministic(self):
        spec = RoughDataSpec(s=0.7, amplitude=0.5, seed=11)
        grid = GridSpec(32)
        assert np.array_equal(make_rough_data(spec, grid).values, make_rough_data(spec, grid).values)

    def test_magnitudes_follow_law(self):
        spec = RoughDataSpec(s=0.6, amplitude=0.25, seed=5)
        grid = GridSpec(32, TWO_PI)
        hat = make_rough_data(spec, grid).values
        for k1, k2 in [(0, 0), (1, 0), (3, -4), (-7, 5)]:
            xi_sq = float(k1**2 + k2**2)
            expected = 0.25 * (1.0 + xi_sq) ** (-1.6 / 2.0)
            assert abs(hat[k1 % 32, k2 % 32]) == pytest.approx(expected, rel=1e-12)

    def test_phases_nested_under_refinement(self):
        # refining the grid must keep every shared mode's value bit-identical
        spec = RoughDataSpec(s=0.6, amplitude=1.0, seed=7)
        coarse = make_rough_data(spec, GridSpec(32, TWO_PI)).values
        fine = make_rough_data(spec, GridSpec(64, TWO_PI)).values
        for k1 in range(-16, 16):
            for k2 in range(-16, 16):
                assert fine[k1 % 64, k2 % 64] == coarse[k1 % 32, k2 % 32]

    def test_norm_growth_slope_matches_gain(self):
        # lattice sums: H^{s+a} mass grows like M^a once <xi> ~ |xi|
        spec = RoughDataSpec(s=0.6, amplitude=1.0, seed=13)
        a = 0.3
        norms, oracles = [], []
        for m in (64, 128, 256, 512):
            grid = GridSpec(m, TWO_PI)
            u0 = make_rough_data(spec, grid)
            norms.append(sobolev_norm(u0, 0.6 + a))
            # independent lattice-sum oracle for amplitude * L * sqrt(sum <xi>^{2(a-1)})
            k = np.fft.fftfreq(m, d=1.0 / m)
            bracket_sq = 1.0 + k[:, None] ** 2 + k[None, :] ** 2
            oracles.append(TWO_PI * np.sqrt(np.sum(bracket_sq ** (a - 1.0))))
        assert np.allclose(norms, oracles, rtol=1e-10)
        slope = np.polyfit(np.log([64, 128, 256, 512]), np.log(norms), 1)[0]
        assert abs(slope - a) <= 0.1


def sparse_datum(grid: GridSpec, amp: float) -> SpectralField:
    hat = np.zeros((grid.modes_per_axis, grid.modes_per_axis), dtype=np.complex128)
    modes = {(1, 0): 0.9, (0, 1): 0.7j, (-1, 2): 0.5, (2, -1): 0.3, (0, -1): -0.4j}
    for (k1, k2), c in modes.items():
        hat[k1 % grid.modes_per_axis, k2 % grid.modes_per_axis] = amp * c
    return SpectralField(grid, hat, FOURIER)


def exact_first_iterate(u0: SpectralField, c1: float, c2: float, t: float) -> SpectralField:
    """Duhamel iterate with the tau-integral done in closed form per triple."""
    grid = u0.grid
    m = grid.modes_per_axis
    idx = np.nonzero(u0.values)
    modes = [(int(grid.mode_numbers[i]), int(grid.mode_numbers[j])) for i, j in zip(*idx)]
    coef = {k: u0.values[k[0] % m, k[1] % m] for k in modes}
    dxi = grid.frequency_step
    out = np.zeros((m, m), dtype=np.complex128)
    for ka in modes:
        for kb in modes:
            for kc in modes:
                k_out = (ka[0] - kb[0] + kc[0], ka[1] - kb[1] + kc[1])
                d1, d2 = ka[0] - kb[0], ka[1] - kb[1]
                alpha = 0.0 if d1 == d2 == 0 else d1**2 / (d1**2 + d2**2)
                h = (
                    (k_out[0] ** 2 + k_out[1] ** 2)
                    - (ka[0] ** 2 + ka[1] ** 2)
                    + (kb[0] ** 2 + kb[1] ** 2)
                    - (kc[0] ** 2 + kc[1] ** 2)
                ) * dxi**2
                phi = t if h == 0 else (np.exp(1j * t * h) - 1.0) / (1j * h)
                xi_out_sq = (k_out[0] ** 2 + k_out[1] ** 2) * dxi**2
                out[k_out[0] % m, k_out[1] % m] += (
                    -1j
                    * np.exp(-1j * t * xi_out_sq)
                    * (c1 + c2 * alpha)
                    * coef[ka]
                    * np.conj(coef[kb])
                    * coef[kc]
                    * phi
                )
    return SpectralField(grid, out, FOURIER)


class TestNonlinearPart:
    def test_zero_at_time_zero(self):
        grid = GridSpec(32, TWO_PI)
        u0 = make_rough_data(RoughDataSpec(s=0.6, amplitude=0.1, seed=1), grid)
        cfg = SolverConfig(c1=1.0, c2=1.0, dt=0.01, t_end=0.1)
        traj = evolve(u0, cfg)
        n0 = nonlinear_part(traj, traj.fields[0], 0.0)
        assert sobolev_norm(n0, 0.0) <= 1e-13

    def test_free_flow_gives_zero(self):
        grid = GridSpec(32, TWO_PI)
        u0 = make_rough_data(RoughDataSpec(s=0.6, amplitude=0.1, seed=2), grid)
        with pytest.warns(UserWarning):
            cfg = SolverConfig(c1=0.0, c2=0.0, dt=0.01, t_end=0.2)
        traj = evolve(u0, cfg)
        n = nonlinear_part(traj, traj.fields[0], 0.2)
        assert sobolev_norm(n, 0.0) <= 1e-12 * sobolev_norm(traj.fields[0], 0.0)

    def test_unsampled_time_rejected(self):
        grid = GridSpec(32, TWO_PI)
        u0 = make_rough_data(RoughDataSpec(s=0.6, amplitude=0.1, seed=2), grid)
        traj = evolve(u0, SolverConfig(c1=1.0, c2=1.0, dt=0.01, t_end=0.1))
        with pytest.raises(KeyError):
            nonlinear_part(traj, traj.fields[0], 0.0512)

    @pytest.mark.parametrize("c1,c2", [(1.0, 1.0), (0.0, 1.0)])
    def test_matches_first_duhamel_iterate(self, c1, c2):
        # weak coupling: u(t) - free flow = first iterate + O(amplitude^5)
        grid = GridSpec(32, TWO_PI)
        t = 0.5
        gaps = []
        for amp in (0.2, 0.1):
            u0 = sparse_datum(grid, amp)
            cfg = SolverConfig(c1=c1, c2=c2, dt=1e-3, t_end=t, dealias=False)
            traj = evolve(u0, cfg)
            n = nonlinear_part(traj, traj.fields[0], t)
            oracle = exact_first_iterate(u0, c1, c2, t)
            gap = sobolev_norm(SpectralField(grid, n.values - oracle.values, FOURIER), 0.0)
            assert gap <= 0.08 * sobolev_norm(oracle, 0.0)
            gaps.append(gap)
        # halving the amplitude should shrink the gap ~2^5
        assert 20.0 <= gaps[0] / gaps[1] <= 45.0


class TestDuhamelRemainder:
    def test_single_mode_closed_form(self):
        # the comparison flow of one mode is e^{-i (sigma + |xi|^2) t - delta t}
        # times its coefficient; every other mode of u_hat passes through
        grid = GridSpec(16, TWO_PI)
        hat = np.zeros((16, 16), dtype=np.complex128)
        hat[2, 3] = 0.6 - 0.2j  # xi = (2, 3), |xi|^2 = 13
        u_hat = np.zeros((16, 16), dtype=np.complex128)
        u_hat[1, 1] = 0.25
        t, delta, sigma = 0.7, 0.3, 1.9
        datum = to_physical(SpectralField(grid, hat, FOURIER))
        got = duhamel_remainder(u_hat, datum, t, delta, sigma)
        expected = u_hat.copy()
        expected[2, 3] = -hat[2, 3] * np.exp(-1j * (sigma + 13.0) * t - delta * t)
        assert got.representation == FOURIER
        assert np.max(np.abs(got.values - expected)) <= 1e-15
        assert u_hat[2, 3] == 0.0


class TestResonantGauge:
    def test_single_mode_phase_rate(self):
        grid = GridSpec(16, TWO_PI)
        hat = np.zeros((16, 16), dtype=np.complex128)
        amp = 0.8
        hat[1, 0] = amp
        u0 = SpectralField(grid, hat, FOURIER)
        c1, c2 = 0.7, 1.3
        sigma = resonant_gauge_phase(u0, c1, c2)
        base = 2.0 * c1 * amp**2
        # c2 part follows alpha evaluated at (xi - mode) on the lattice
        assert sigma[0, 0] == pytest.approx(base + c2 * amp**2, rel=1e-12)  # alpha(-1,0)=1
        assert sigma[1, 0] == pytest.approx(base, rel=1e-12)  # alpha(0,0)=0
        assert sigma[1, 1] == pytest.approx(base, rel=1e-12)  # alpha(0,1)=0
        assert sigma[3, 2] == pytest.approx(base + 0.5 * c2 * amp**2, rel=1e-12)  # alpha(2,2)

    @pytest.mark.parametrize("physical,transforms", [(False, 3), (True, 4)])
    def test_transform_cost(self, count_transforms, physical, transforms):
        # two forward transforms and one inverse for the lattice convolution;
        # a physical datum costs one more to reach its spectrum
        grid = GridSpec(32, TWO_PI)
        datum = make_rough_data(RoughDataSpec(s=0.6, amplitude=0.2, seed=6), grid)
        if physical:
            datum = to_physical(datum)
        assert count_transforms(lambda: resonant_gauge_phase(datum, 1.0, 0.7)) == transforms

    def test_gauge_reduces_to_plain_without_coupling(self):
        grid = GridSpec(32, TWO_PI)
        u0 = make_rough_data(RoughDataSpec(s=0.6, amplitude=0.05, seed=4), grid)
        with pytest.warns(UserWarning):
            cfg = SolverConfig(c1=0.0, c2=0.0, dt=0.01, t_end=0.1)
        traj = evolve(u0, cfg)
        sigma = resonant_gauge_phase(traj.fields[0], 0.0, 0.0)
        assert not np.any(sigma)
        # the zero phase is multiplied in, and exactly: the result is the
        # plain remainder u(t) - e^{it Lap} u0 built without any phase
        plain = (
            to_fourier(traj.field_at(0.1)).values
            - free_evolve(to_fourier(traj.fields[0]), 0.1).values
        )
        u_hat = to_fourier(traj.field_at(0.1)).values
        for sig in (0.0, sigma):
            got = duhamel_remainder(u_hat, traj.fields[0], 0.1, sigma=sig)
            assert np.array_equal(got.values, plain)


class TestRefinementStudy:
    def test_needs_three_resolutions(self):
        spec = RoughDataSpec(s=0.6, amplitude=0.01, seed=20)
        cfg = SolverConfig(c1=1.0, c2=1.0, dt=0.01, t_end=0.1)
        with pytest.raises(ValueError):
            refinement_study(spec, [64, 128], 0.6, 0.3, cfg)

    @pytest.mark.parametrize("resolutions", [[16, 16, 16], [16, 32, 24]])
    def test_bad_resolutions_rejected_before_any_solve(self, monkeypatch, resolutions):
        # one repeated size leaves no slope to fit, and 24 is no valid grid
        calls = []
        monkeypatch.setattr(
            "dslab.smoothing_diagnostics.sample_stream", lambda *args: calls.append(args)
        )
        spec = RoughDataSpec(s=0.6, amplitude=0.01, seed=20)
        cfg = SolverConfig(c1=1.0, c2=1.0, dt=0.01, t_end=0.1)
        with pytest.raises(ValueError):
            refinement_study(spec, resolutions, 0.6, 0.3, cfg)
        assert calls == []

    def test_free_flow_zero_nonlinear_column(self):
        spec = RoughDataSpec(s=0.6, amplitude=0.05, seed=21)
        with pytest.warns(UserWarning):
            cfg = SolverConfig(c1=0.0, c2=0.0, dt=0.01, t_end=0.1)
        out = refinement_study(spec, [16, 32, 64], 0.6, 0.3, cfg, domain_length=TWO_PI)
        for row in out["rows"]:
            assert row["norm_nonlinear"] <= 1e-12 * row["norm_linear"]

    def test_slopes_weak_coupling(self):
        # linear column grows like M^a; the plain remainder inherits the
        # resonant lattice dressing of the datum tail and grows with it,
        # while the gauged remainder is grid-convergent
        spec = RoughDataSpec(s=0.6, amplitude=0.01, seed=20)
        cfg = SolverConfig(c1=1.0, c2=1.0, dt=5e-3, t_end=2.0, sample_every=100)
        out = refinement_study(spec, [64, 128, 256], 0.6, 0.3, cfg, domain_length=TWO_PI)
        assert abs(out["linear_slope"] - 0.3) <= 0.1
        assert out["nonlinear_slope"] > 0.2
        assert -0.1 <= out["gauged_slope"] <= 0.15
        for row in out["rows"]:
            assert row["norm_nonlinear_gauged"] < row["norm_nonlinear"]

    @pytest.mark.parametrize("sample_every", [1, 7, 100])
    def test_rows_match_the_stored_trajectory_split(self, sample_every):
        # the streamed study equals the split of a stored trajectory at t_end
        spec = RoughDataSpec(s=0.6, amplitude=0.05, seed=3)
        cfg = SolverConfig(c1=1.0, c2=0.7, dt=0.01, t_end=0.5, sample_every=sample_every)
        out = refinement_study(spec, [16, 32, 64], 0.6, 0.3, cfg, domain_length=TWO_PI)
        for row in out["rows"]:
            traj = evolve(make_rough_data(spec, GridSpec(row["M"], TWO_PI)), cfg)
            datum = traj.fields[0]
            sigma = resonant_gauge_phase(datum, cfg.c1, cfg.c2)
            u_hat = to_fourier(traj.field_at(0.5)).values
            order = 0.6 + 0.3  # as the study forms s + a, to the last bit
            assert row == {
                "M": row["M"],
                "norm_linear": sobolev_norm(free_evolve(datum, 0.5), order),
                "norm_nonlinear": sobolev_norm(nonlinear_part(traj, datum, 0.5), order),
                "norm_nonlinear_gauged": sobolev_norm(
                    duhamel_remainder(u_hat, datum, 0.5, sigma=sigma), order
                ),
            }

    @pytest.mark.parametrize("sample_every,samples", [(100, 2), (7, 16)])
    def test_gauge_phase_is_the_only_transform_beyond_the_runs(
        self, count_transforms, sample_every, samples
    ):
        # resonant_gauge_phase costs 3 transforms per grid; the free flow,
        # both remainders and their norms work on Fourier fields and cost none
        spec = RoughDataSpec(s=0.6, amplitude=0.05, seed=3)
        cfg = SolverConfig(c1=1.0, c2=0.7, dt=0.01, t_end=1.0, sample_every=sample_every)
        resolutions = [16, 32, 64]
        runs = sum(
            count_transforms(
                lambda: list(sample_stream(make_rough_data(spec, GridSpec(m, TWO_PI)), cfg))
            )
            for m in resolutions
        )
        calls = count_transforms(
            lambda: refinement_study(spec, resolutions, 0.6, 0.3, cfg, domain_length=TWO_PI)
        )
        assert len(sample_steps(cfg)) == samples
        assert runs > 0
        assert calls == runs + 3 * len(resolutions)

    def test_peak_memory_does_not_grow_with_the_sample_count(self):
        # only the datum and the last state are kept: sampling every step of
        # 100 must cost what one advance costs, not one field per sample
        spec = RoughDataSpec(s=0.6, amplitude=0.01, seed=20)

        def peak(sample_every: int) -> int:
            cfg = SolverConfig(c1=1.0, c2=1.0, dt=0.01, t_end=1.0, sample_every=sample_every)
            tracemalloc.start()
            try:
                refinement_study(spec, [16, 32, 64], 0.6, 0.3, cfg, domain_length=TWO_PI)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # first-call allocations (FFT plans, cached grid arrays)
        field_bytes = 64 * 64 * 16
        one_advance = peak(100)
        every_step = peak(1)
        # a stored trajectory would add 100 fields of the finest grid
        assert every_step <= one_advance + 2 * field_bytes
