"""Energy balance audit, absorbing-ball fits, and the compactness probe."""
import warnings

import numpy as np
import pytest

from dslab import attractor_lab

from dslab.spectral_core import (
    FOURIER,
    PHYSICAL,
    GridSpec,
    SpectralField,
    apply_K,
    free_evolve,
    lebesgue_norm,
    sobolev_norm,
    to_fourier,
    to_physical,
)
from dslab.ds_solver import SolverConfig, energy_functional, evolve
from dslab.smoothing_diagnostics import RoughDataSpec, make_forcing, make_rough_data
from dslab.attractor_lab import (
    EnergyReport,
    EnsembleConfig,
    _fit_member,
    _forcing_shift,
    absorbing_experiment,
    compactness_probe,
    energy_balance_residual,
    run_ensemble,
)

TWO_PI = 2.0 * np.pi


def small_ensemble(grid, members, **overrides):
    kw = dict(
        grid=grid,
        members=members,
        c1=1.0,
        c2=1.0,
        delta=0.2,
        forcing=None,
        horizon=2.0,
        dt=0.01,
        sample_every=10,
        probe_times=(1.0, 2.0),
        a=0.4,
    )
    kw.update(overrides)
    return EnsembleConfig(**kw)


class TestEnergyFunctional:
    def test_zero_field(self):
        grid = GridSpec(16, TWO_PI)
        u = SpectralField.zeros(grid)
        assert energy_functional(u, None, 1.0, 1.0) == 0.0

    def test_single_mode_closed_form(self):
        grid = GridSpec(32, TWO_PI)
        m = grid.modes_per_axis
        amp = 0.7
        hat = np.zeros((m, m), dtype=np.complex128)
        hat[3, m - 2] = amp  # mode (3, -2), |xi|^2 = 13
        u = SpectralField(grid, hat, FOURIER)
        l_sq = grid.domain_length**2
        # |u| is constant, so the K term vanishes for any c2
        expected = amp**2 * l_sq * 13.0 + 0.5 * 1.3 * amp**4 * l_sq
        assert energy_functional(u, None, 1.3, 1.7) == pytest.approx(expected, rel=1e-12)

    def test_matches_independent_quadrature(self):
        grid = GridSpec(32, TWO_PI)
        u = make_rough_data(RoughDataSpec(1.0, 0.4, 5), grid)
        f = make_forcing(grid, 0.2, seed=9)
        c1, c2 = 1.3, 0.7
        value = energy_functional(u, f, c1, c2)

        hat = to_fourier(u).values
        m = grid.modes_per_axis
        ux = np.fft.ifft2(1j * grid.xi1 * hat) * m**2
        uy = np.fft.ifft2(1j * grid.xi2 * hat) * m**2
        dx_sq = grid.physical_step**2
        grad = float(np.sum(np.abs(ux) ** 2 + np.abs(uy) ** 2)) * dx_sq

        quartic = lebesgue_norm(u, 4.0) ** 4
        phys = to_physical(u).values
        density = np.abs(phys) ** 2
        rho = SpectralField(grid, density.astype(np.complex128), PHYSICAL)
        k_quad = float(np.real(np.sum(to_physical(apply_K(rho)).values * density))) * dx_sq
        drive = 2.0 * float(np.real(np.sum(to_physical(f).values * np.conj(phys)))) * dx_sq

        expected = grad + 0.5 * c1 * quartic + 0.5 * c2 * k_quad + drive
        assert value == pytest.approx(expected, rel=1e-10)


class TestMakeForcing:
    def test_spectral_law(self):
        grid = GridSpec(16, TWO_PI)
        f = make_forcing(grid, 0.3, seed=4, smoothness=3.0)
        assert np.allclose(np.abs(f.values), 0.3 * grid.bracket(-4.0), rtol=1e-12)

    def test_deterministic_in_seed(self):
        grid = GridSpec(16, TWO_PI)
        a = make_forcing(grid, 0.3, seed=4)
        b = make_forcing(grid, 0.3, seed=4)
        c = make_forcing(grid, 0.3, seed=5)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_attractor_lab_keeps_the_name(self):
        # defined beside make_rough_data; benchmarks/layers.py calls it here
        assert attractor_lab.make_forcing is make_forcing


class TestEnergyReportValidation:
    def test_residuals_must_be_finite(self):
        # an overflow is a numerical fault, not a bad parameter
        z = np.zeros(3)
        with pytest.raises(FloatingPointError, match="finite"):
            EnergyReport(z, z, z, np.array([0.0, np.nan, 0.0]), 0.0)

    def test_fit_rate_must_be_positive(self):
        z = np.zeros(3)
        with pytest.raises(ValueError, match="decay rate"):
            EnergyReport(z, z, z, z, 0.0, fit_rate=-0.1)


class TestEnergyBalance:
    def test_conservative_drift_is_second_order(self):
        # with delta = 0 and f = 0 the residual is pure energy drift; halving
        # dt at fixed sample spacing divides it by about four
        grid = GridSpec(32, TWO_PI)
        u0 = make_rough_data(RoughDataSpec(1.0, 0.1, 3), grid)

        def max_res(dt, every):
            cfg = SolverConfig(c1=1.0, c2=1.0, dt=dt, t_end=2.0, sample_every=every)
            return energy_balance_residual(evolve(u0, cfg), cfg).max_residual

        coarse = max_res(0.01, 5)
        fine = max_res(0.005, 10)
        assert coarse <= 2e-3
        assert 3.0 <= coarse / fine <= 5.0

    def test_linear_damped_flow_balances_exactly(self):
        # c1 = c2 = 0, f = 0: the source vanishes and E decays as exp(-2 delta t),
        # so only the centered-difference truncation remains
        grid = GridSpec(32, TWO_PI)
        u0 = make_rough_data(RoughDataSpec(1.0, 0.2, 3), grid)
        cfg = SolverConfig(c1=0.0, c2=0.0, dt=0.01, t_end=2.0, delta=0.3, sample_every=5)
        report = energy_balance_residual(evolve(u0, cfg), cfg)
        assert np.all(report.source == 0.0)
        assert report.max_residual <= 1e-4 * np.max(np.abs(report.energy))

    def test_damped_forced_residual_is_small(self):
        grid = GridSpec(32, TWO_PI)
        u0 = make_rough_data(RoughDataSpec(1.0, 0.5, 3), grid)
        f = make_forcing(grid, 0.2, seed=11)
        cfg = SolverConfig(
            c1=1.0, c2=1.0, dt=1e-3, t_end=0.5, delta=0.1, forcing=f, sample_every=5
        )
        report = energy_balance_residual(evolve(u0, cfg), cfg)
        assert report.max_residual <= 1e-3 * np.max(np.abs(report.energy))

    @staticmethod
    def assert_not_audited(report):
        assert report.max_residual is None
        for series in (report.times, report.energy, report.source, report.residuals):
            assert len(series) == 0

    def test_sparse_sampling_is_not_audited(self):
        # samples 20 * dt apart would give an O(spacing^2) artifact
        grid = GridSpec(16, TWO_PI)
        u0 = make_rough_data(RoughDataSpec(1.0, 0.1, 3), grid)
        cfg = SolverConfig(c1=1.0, c2=1.0, dt=0.01, t_end=2.0, sample_every=20)
        self.assert_not_audited(energy_balance_residual(evolve(u0, cfg), cfg))

    def test_two_samples_are_not_audited(self):
        grid = GridSpec(16, TWO_PI)
        u0 = make_rough_data(RoughDataSpec(1.0, 0.1, 3), grid)
        cfg = SolverConfig(c1=1.0, c2=1.0, dt=0.05, t_end=0.1, sample_every=2)
        traj = evolve(u0, cfg)
        assert len(traj.times) == 2
        self.assert_not_audited(energy_balance_residual(traj, cfg))

    @pytest.mark.parametrize("experiment", [absorbing_experiment, compactness_probe])
    def test_non_finite_residual_raises_in_the_experiments(self, experiment):
        # dense enough to audit, but the energy of an H^1 ~ 1e80 member
        # overflows: the experiments used to report it as unaudited
        grid = GridSpec(16, TWO_PI)
        ens = small_ensemble(
            grid, [RoughDataSpec(1.0, 1e79, 1)], horizon=0.1, sample_every=1, probe_times=(0.1,)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the overflow is the point
            with pytest.raises(FloatingPointError, match="residual series must be finite"):
                experiment(ens)


class TestBalanceAuditReadsRecordedParts:
    """The audit reuses the energy parts evolve recorded; it transforms nothing."""

    @pytest.fixture(scope="class")
    def run(self):
        grid = GridSpec(32, TWO_PI)
        u0 = make_rough_data(RoughDataSpec(1.0, 0.5, 3), grid)
        f = make_forcing(grid, 0.2, seed=11)
        cfg = SolverConfig(
            c1=1.0, c2=0.7, dt=0.01, t_end=0.5, delta=0.1, forcing=f, sample_every=2
        )
        return evolve(u0, cfg), cfg

    def test_audit_makes_no_transforms(self, count_transforms, run):
        traj, cfg = run
        reports = []
        calls = count_transforms(lambda: reports.append(energy_balance_residual(traj, cfg)))
        assert calls == 0
        # the hook is live: one sample's energy costs to_physical and the
        # density transform
        u = traj.fields[1]
        assert count_transforms(lambda: energy_functional(u, cfg.forcing, cfg.c1, cfg.c2)) == 2
        assert len(reports[0].residuals) == len(traj.times) - 2

    def test_recorded_energy_equals_energy_functional(self, run):
        traj, cfg = run
        for k, u in enumerate(traj.fields):
            assert traj.energy[k] == energy_functional(u, cfg.forcing, cfg.c1, cfg.c2)
        # the forcing and the interaction both enter the recorded parts
        assert np.all(traj.drive != 0.0) and np.all(traj.interaction > 0.0)


class TestEnsembleConfigValidation:
    def test_requires_positive_delta(self):
        grid = GridSpec(16, TWO_PI)
        with pytest.raises(ValueError, match="dissipative mode requires delta > 0"):
            small_ensemble(grid, [RoughDataSpec(1.0, 0.1, 1)], delta=0.0)

    @pytest.mark.parametrize("a", [0.0, 0.5, 0.7, -0.1])
    def test_smoothing_exponent_strictly_inside(self, a):
        grid = GridSpec(16, TWO_PI)
        with pytest.raises(ValueError, match="smoothing exponent"):
            small_ensemble(grid, [RoughDataSpec(1.0, 0.1, 1)], a=a)

    def test_needs_members(self):
        grid = GridSpec(16, TWO_PI)
        with pytest.raises(ValueError, match="at least one member"):
            small_ensemble(grid, [])

    def test_probe_times_inside_horizon(self):
        grid = GridSpec(16, TWO_PI)
        with pytest.raises(ValueError, match="probe times"):
            small_ensemble(grid, [RoughDataSpec(1.0, 0.1, 1)], probe_times=(1.0, 3.0))

    def test_forcing_grid_must_match(self):
        grid = GridSpec(16, TWO_PI)
        other = GridSpec(32, TWO_PI)
        with pytest.raises(ValueError, match="ensemble grid"):
            small_ensemble(
                grid, [RoughDataSpec(1.0, 0.1, 1)], forcing=make_forcing(other, 0.1)
            )

    def test_solver_config_carries_schedule(self):
        grid = GridSpec(16, TWO_PI)
        ens = small_ensemble(grid, [RoughDataSpec(1.0, 0.1, 1)], horizon=4.0)
        cfg = ens.solver_config()
        assert (cfg.t_end, cfg.dt, cfg.delta, cfg.sample_every) == (4.0, 0.01, 0.2, 10)


class TestFitMember:
    def test_recovers_synthetic_exponential(self):
        t = np.linspace(0.0, 20.0, 201)
        h1 = 2.3 * np.exp(-0.4 * t) + 0.9
        a, b, c = _fit_member(t, h1)
        assert c == pytest.approx(0.9, rel=5e-3)
        assert b == pytest.approx(0.4, rel=0.05)
        assert a == pytest.approx(2.3, rel=0.05)

    def test_flat_series_reports_failure(self):
        t = np.linspace(0.0, 20.0, 201)
        rng = np.random.default_rng(0)
        h1 = 1.0 + 1e-3 * rng.standard_normal(len(t))
        a, b, c = _fit_member(t, h1)
        assert a is None and b is None
        assert c == pytest.approx(1.0, abs=1e-3)

    def test_growing_series_reports_failure(self):
        t = np.linspace(0.0, 20.0, 201)
        a, b, _ = _fit_member(t, np.exp(0.1 * t))
        assert a is None and b is None


class TestAbsorbingExperiment:
    def test_unforced_decay_radius_near_zero_rate_near_delta(self):
        grid = GridSpec(32, TWO_PI)
        members = [RoughDataSpec(1.0, 0.05, 7), RoughDataSpec(1.0, 0.03, 8)]
        ens = small_ensemble(
            grid, members, delta=0.5, horizon=20.0, probe_times=(10.0, 20.0)
        )
        report = absorbing_experiment(ens)
        assert report.fit_radius <= 1e-3
        assert report.fit_rate == pytest.approx(0.5, rel=0.1)
        assert report.absorbed is True
        assert report.fit_failures == ()
        assert all(np.isfinite(report.entry_times))

    def test_radius_insensitive_to_datum_size(self):
        # H^1 norms differing by a factor 10 settle to the same radius
        grid = GridSpec(32, TWO_PI)
        f = make_forcing(grid, 0.4, seed=21)
        members = [RoughDataSpec(1.0, 0.3, 7), RoughDataSpec(1.0, 3.0, 8)]
        ens = small_ensemble(
            grid, members, forcing=f, horizon=40.0, probe_times=(20.0, 40.0)
        )
        report = absorbing_experiment(ens)
        radii = np.array(report.member_radius)
        assert (radii.max() - radii.min()) / radii.mean() <= 0.2
        assert report.fit_rate is not None and report.fit_rate > 0
        assert report.absorbed is True

    def test_radius_monotone_in_forcing(self):
        grid = GridSpec(32, TWO_PI)
        radii = []
        for amp in (0.2, 0.4, 0.8):
            ens = small_ensemble(
                grid,
                [RoughDataSpec(1.0, 0.5, 7)],
                forcing=make_forcing(grid, amp, seed=21),
                horizon=40.0,
                probe_times=(40.0,),
            )
            radii.append(absorbing_experiment(ens).fit_radius)
        assert radii[0] < radii[1] < radii[2]

    def test_not_absorbed_when_every_fit_fails(self):
        # forced_trio's faintest member does not decay by t = 2
        grid = GridSpec(32, TWO_PI)
        ens = small_ensemble(
            grid,
            [RoughDataSpec(1.0, 0.1, 9)],
            forcing=make_forcing(grid, 0.2, seed=21),
            probe_times=(0.5, 1.0, 2.0),
        )
        report = absorbing_experiment(ens)
        assert report.fit_failures == (0,)
        assert report.absorbed is False

    def test_series_and_balance_shapes_agree(self):
        grid = GridSpec(16, TWO_PI)
        ens = small_ensemble(grid, [RoughDataSpec(1.0, 0.1, 1)], horizon=2.0)
        report = absorbing_experiment(ens)
        assert len(report.h1_series) == 1
        # balance series drops the two boundary samples
        assert len(report.h1_series[0]) == len(report.residuals) + 2

    def test_coarse_sampling_skips_balance_but_fits(self):
        grid = GridSpec(16, TWO_PI)
        ens = small_ensemble(
            grid,
            [RoughDataSpec(1.0, 0.05, 1)],
            delta=0.5,
            horizon=10.0,
            sample_every=50,
            probe_times=(10.0,),
        )
        report = absorbing_experiment(ens)
        assert len(report.times) == 0 and report.max_residual is None
        assert report.fit_radius is not None
        assert report.absorbed is True


class TestForcingShift:
    def test_inverse_helmholtz_mode_by_mode(self):
        grid = GridSpec(16, TWO_PI)
        f = make_forcing(grid, 0.3, seed=4)
        ens = small_ensemble(grid, [RoughDataSpec(1.0, 0.1, 1)], forcing=f)
        g = _forcing_shift(ens)
        assert g.representation == FOURIER
        assert np.allclose(g.values, f.values * grid.bracket(-2.0), rtol=1e-14)

    def test_absent_forcing_gives_zero_shift(self):
        grid = GridSpec(16, TWO_PI)
        ens = small_ensemble(grid, [RoughDataSpec(1.0, 0.1, 1)])
        assert np.all(_forcing_shift(ens).values == 0.0)


class TestRunEnsemble:
    def test_each_trajectory_is_its_member_evolved_alone(self):
        grid = GridSpec(16, TWO_PI)
        members = [RoughDataSpec(1.0, 0.2, 7), RoughDataSpec(1.0, 0.1, 8)]
        ens = small_ensemble(grid, members, forcing=make_forcing(grid, 0.05, seed=3))
        trajs = run_ensemble(ens)
        assert len(trajs) == len(members)
        for spec, traj in zip(members, trajs):
            alone = evolve(make_rough_data(spec, grid), ens.solver_config())
            assert np.array_equal(traj.times, alone.times)
            assert np.array_equal(traj.h1_norm, alone.h1_norm)
            assert np.array_equal(traj.energy, alone.energy)
            for fa, fb in zip(traj.fields, alone.fields):
                assert np.array_equal(fa.values, fb.values)


class TestCompactnessProbe:
    def test_pure_linear_flow_has_zero_remainder(self):
        # c1 = c2 = 0 and f = 0 make the run an exact damped free flow, so
        # subtracting the free solution leaves only roundoff
        grid = GridSpec(32, TWO_PI)
        ens = small_ensemble(
            grid,
            [RoughDataSpec(1.0, 0.3, 7)],
            c1=0.0,
            c2=0.0,
            delta=0.25,
            horizon=4.0,
            sample_every=20,
            probe_times=(2.0, 4.0),
        )
        table = compactness_probe(ens)
        assert table["a"] == 0.4
        assert table["shift_h1a"] == 0.0
        assert table["remainder_h1a"][0] <= 1e-9
        masked = evolve(make_rough_data(ens.members[0], grid), ens.solver_config()).fields[0]
        assert table["free_h1a"][0] == pytest.approx(sobolev_norm(masked, 1.4), rel=1e-12)
        assert set(table["pairwise_h1"]) == {2.0, 4.0}

    def test_remainder_stable_under_refinement_while_free_part_grows(self):
        values = {}
        for m in (64, 128):
            grid = GridSpec(m, TWO_PI)
            ens = small_ensemble(
                grid,
                [RoughDataSpec(1.0, 0.1, 7)],
                forcing=make_forcing(grid, 0.05, seed=21),
                horizon=20.0,
                sample_every=50,
                probe_times=(10.0, 20.0),
            )
            table = compactness_probe(ens)
            values[m] = (table["remainder_h1a"][0], table["free_h1a"][0])
        n_change = abs(values[128][0] - values[64][0]) / values[64][0]
        free_growth = values[128][1] / values[64][1] - 1.0
        assert n_change <= 0.10
        assert free_growth >= 0.25

    def test_pairwise_distances_contract(self):
        grid = GridSpec(32, TWO_PI)
        members = [
            RoughDataSpec(1.0, 0.3, 7),
            RoughDataSpec(1.0, 0.2, 8),
            RoughDataSpec(1.0, 0.1, 9),
        ]
        ens = small_ensemble(
            grid,
            members,
            delta=0.3,
            forcing=make_forcing(grid, 0.05, seed=21),
            horizon=16.0,
            probe_times=(8.0, 16.0),
        )
        table = compactness_probe(ens)
        assert len(table["pairwise_h1"][8.0]) == 3
        assert np.median(table["pairwise_h1"][16.0]) < np.median(table["pairwise_h1"][8.0])

    def test_unsampled_probe_time_raises(self, monkeypatch):
        # checked against the sample schedule before the first step
        grid = GridSpec(16, TWO_PI)
        ens = small_ensemble(
            grid, [RoughDataSpec(1.0, 0.1, 1)], horizon=2.0, probe_times=(1.0, 1.03)
        )
        streams = [0]
        original = attractor_lab.ensemble_stream

        def counted(*args):
            streams[0] += 1
            return original(*args)

        with monkeypatch.context() as patch:
            patch.setattr(attractor_lab, "ensemble_stream", counted)
            with pytest.raises(ValueError, match=r"probe time 1\.03 .*nearest: 1(\.0)?\b"):
                compactness_probe(ens)
        assert streams[0] == 0
        # the patched name is the one the probe steps through
        ens = small_ensemble(grid, [RoughDataSpec(1.0, 0.1, 1)], horizon=2.0)
        with monkeypatch.context() as patch:
            patch.setattr(attractor_lab, "ensemble_stream", counted)
            compactness_probe(ens)
        assert streams[0] == 1

    def test_balance_audit_of_member_zero(self):
        grid = GridSpec(32, TWO_PI)
        ens = forced_trio(grid, probe_times=(1.0, 2.0))
        cfg = ens.solver_config()
        audited = evolve(make_rough_data(ens.members[0], grid), cfg)
        table = compactness_probe(ens)
        assert table["max_balance_residual"] == energy_balance_residual(audited, cfg).max_residual
        sparse = forced_trio(grid, sample_every=20, probe_times=(1.0, 2.0))
        assert compactness_probe(sparse)["max_balance_residual"] is None


def forced_trio(grid, **overrides):
    """Three forced members, sampled densely enough for the balance audit."""
    members = [RoughDataSpec(1.0, amp, 7 + j) for j, amp in enumerate((0.3, 0.2, 0.1))]
    kw = dict(forcing=make_forcing(grid, 0.2, seed=21), probe_times=(0.5, 1.0, 2.0))
    kw.update(overrides)
    return small_ensemble(grid, members, **kw)


class TestStreamedMembersMatchEvolve:
    """The experiments stream their members; every number equals, bit for
    bit, the one built from per-member evolve calls."""

    @pytest.fixture(scope="class")
    def case(self):
        grid = GridSpec(32, TWO_PI)
        ens = forced_trio(grid)
        cfg = ens.solver_config()
        trajs = [evolve(make_rough_data(spec, grid), cfg) for spec in ens.members]
        return ens, cfg, trajs

    def test_absorbing_experiment(self, case):
        ens, cfg, trajs = case
        report = absorbing_experiment(ens)
        times = trajs[0].times
        assert np.array_equal(report.sample_times, times)
        assert len(report.h1_series) == 3
        for series, tr in zip(report.h1_series, trajs):
            assert np.array_equal(series, tr.h1_norm)
        balance = energy_balance_residual(trajs[0], cfg)
        assert len(balance.residuals) > 0
        for name in ("times", "energy", "source", "residuals"):
            assert np.array_equal(getattr(report, name), getattr(balance, name))
        assert report.max_residual == balance.max_residual
        fits = [_fit_member(times, tr.h1_norm) for tr in trajs]
        assert report.member_radius == tuple(c for (_, _, c) in fits)
        assert report.fit_radius == float(np.mean([c for (_, _, c) in fits]))
        # the faintest member does not decay by t = 2, so its fit fails
        fitted = [(a, b) for (a, b, _) in fits if a is not None]
        assert report.fit_failures == (2,) and len(fitted) == 2
        assert report.fit_amplitude == float(np.mean([a for (a, _) in fitted]))
        assert report.fit_rate == float(np.mean([b for (_, b) in fitted]))

    def test_compactness_probe(self, case):
        ens, _, trajs = case
        table = compactness_probe(ens)
        g_hat = _forcing_shift(ens).values
        remainder, free = [], []
        for tr in trajs:
            v0 = SpectralField(ens.grid, tr.fields[0].values + g_hat, FOURIER)
            free.append(sobolev_norm(v0, 1.4))
            norms = [
                sobolev_norm(
                    SpectralField(
                        ens.grid,
                        u.values + g_hat - free_evolve(v0, float(t), ens.delta).values,
                        FOURIER,
                    ),
                    1.4,
                )
                for t, u in zip(tr.times, tr.fields)
            ]
            remainder.append(max(norms))
        assert np.array_equal(table["remainder_h1a"], remainder)
        assert np.array_equal(table["free_h1a"], free)
        assert list(table["pairwise_h1"]) == [0.5, 1.0, 2.0]
        for t, dists in table["pairwise_h1"].items():
            snaps = [tr.field_at(t).values for tr in trajs]
            expected = [
                sobolev_norm(SpectralField(ens.grid, snaps[i] - snaps[j], FOURIER), 1.0)
                for i, j in ((0, 1), (0, 2), (1, 2))
            ]
            assert np.array_equal(dists, expected)


class TestAbsorbingCost:
    """Energy parts for the audited member only, and no stored ensemble."""

    def test_four_per_stack_step_two_per_audited_sample(self, count_transforms):
        grid = GridSpec(16, TWO_PI)

        def run(steps: int, every: int) -> int:
            ens = forced_trio(
                grid, horizon=steps * 0.01, sample_every=every, probe_times=(0.1,)
            )
            return count_transforms(lambda: absorbing_experiment(ens))

        # differences of runs cancel the fixed setup cost; each call
        # transforms all K = 3 members of the stack at once
        sparse10, sparse20, dense10 = run(10, 10), run(20, 20), run(10, 1)
        assert sparse20 - sparse10 == 4 * 10
        assert dense10 - sparse10 == 2 * 9

    def test_peak_memory_below_one_stored_member(self, traced_peak):
        grid = GridSpec(32, TWO_PI)
        ens = forced_trio(grid, horizon=1.0, sample_every=1, probe_times=(1.0,))
        samples = 101
        one_member = samples * grid.modes_per_axis**2 * np.dtype(np.complex128).itemsize
        _, peak, report = traced_peak(lambda: absorbing_experiment(ens))
        assert len(report.sample_times) == samples and len(report.h1_series) == 3
        # about 0.19 of one stored member (308 KB); 0.26 while the stack's
        # gauge phase had its own buffer and member 0's recorder its own
        # density kernel
        assert peak < 0.22 * one_member

    def test_compactness_peak_per_member_below_four_fields(self, traced_peak):
        # the slope of the traced peak between 4 and 8 members at M = 128:
        # the stack, its shifted data and the stack kernel, 3.5 fields per
        # member as in the absorbing experiment; 8.5 while the probe formed
        # each sample's remainders on the whole stack and copied the states
        # at the probe times
        grid = GridSpec(128, TWO_PI)
        forcing = make_forcing(grid, 0.2, seed=21)
        field = grid.modes_per_axis**2 * np.dtype(np.complex128).itemsize

        def peak(count: int) -> int:
            members = [RoughDataSpec(1.0, 0.3 / (j + 1), 7 + j) for j in range(count)]
            ens = small_ensemble(
                grid, members, forcing=forcing, horizon=0.04, sample_every=2,
                probe_times=(0.02, 0.04),
            )
            return traced_peak(lambda: compactness_probe(ens))[1]

        peak(4)  # first-call allocations (FFT plans, cached grid arrays)
        per_member = (peak(8) - peak(4)) / 4 / field
        assert per_member < 4.0
