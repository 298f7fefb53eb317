"""Split-step integrator checks: collapse limits, conservation, order, damping."""
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
from dslab.ds_solver import (
    IntegrationAbort,
    SolverConfig,
    Trajectory,
    energy_functional,
    evolve,
    load_checkpoint,
    nonlinear_potential,
    save_checkpoint,
    strang_step,
)
from dslab.smoothing_diagnostics import RoughDataSpec, make_rough_data


@pytest.fixture(scope="module")
def grid() -> GridSpec:
    return GridSpec(64)


@pytest.fixture(scope="module")
def two_mode(grid) -> SpectralField:
    x1, x2 = grid.coordinates()
    dxi = grid.frequency_step
    vals = 0.5 * np.exp(1j * dxi * x1) + 0.3 * np.exp(2j * dxi * (x1 + x2))
    return SpectralField(grid, vals)


def cubic_config(**kw) -> SolverConfig:
    base = dict(c1=1.0, c2=1.0, dt=0.01, t_end=1.0, dealias=False)
    base.update(kw)
    return SolverConfig(**base)


class TestSolverConfig:
    def test_dt_bounds(self):
        with pytest.raises(ValueError):
            cubic_config(dt=0.2)
        with pytest.raises(ValueError):
            cubic_config(dt=0.0)

    def test_t_end_positive(self):
        with pytest.raises(ValueError):
            cubic_config(t_end=-1.0)

    def test_delta_nonnegative(self):
        with pytest.raises(ValueError):
            cubic_config(delta=-0.1)

    def test_sample_every_positive_integer(self):
        with pytest.raises(ValueError):
            cubic_config(sample_every=0)

    def test_forcing_requires_damping(self, grid):
        f = SpectralField.zeros(grid)
        with pytest.raises(ValueError):
            cubic_config(forcing=f)
        cubic_config(forcing=f, delta=0.1)  # accepted

    def test_conservative_sign_condition_warns(self):
        with pytest.warns(UserWarning):
            cubic_config(c1=0.0, c2=0.0)

    def test_damped_sign_condition_warns(self):
        with pytest.warns(UserWarning):
            cubic_config(c1=-1.0, c2=0.0, delta=0.1)


class TestNonlinearPotential:
    def test_zero_field(self, grid):
        v = nonlinear_potential(SpectralField.zeros(grid), cubic_config())
        assert np.max(np.abs(v.values)) == 0.0

    def test_constant_field_kills_nonlocal_term(self, grid):
        # |u|^2 constant lives at the zero mode where the symbol vanishes
        u = SpectralField(grid, np.full((64, 64), 1.5 - 0.5j))
        v = nonlinear_potential(u, cubic_config(c1=2.0, c2=3.0))
        expected = 2.0 * abs(1.5 - 0.5j) ** 2
        assert np.max(np.abs(v.values - expected)) <= 1e-12 * expected

    def test_two_mode_hand_evaluation(self, grid):
        # u = e^{i dxi x1} + e^{i dxi x2}: |u|^2 has coefficient 2 at the zero
        # mode and 1 at (dxi, -dxi) and (-dxi, dxi), where the symbol is 1/2,
        # so V = 2 c1 + 2 (c1 + c2/2) cos(dxi (x1 - x2)).
        x1, x2 = grid.coordinates()
        dxi = grid.frequency_step
        u = SpectralField(grid, np.exp(1j * dxi * x1) + np.exp(1j * dxi * x2))
        c1, c2 = 0.7, 1.9
        v = nonlinear_potential(u, cubic_config(c1=c1, c2=c2))
        expected = 2.0 * c1 + 2.0 * (c1 + 0.5 * c2) * np.cos(dxi * (x1 - x2))
        assert np.max(np.abs(v.values - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_anisotropic_mode_pair_hand_evaluation(self, grid):
        # modes (1,0) and (0,2): |u|^2 couples at (dxi, -2 dxi) where the
        # symbol is 1/5, so V = 2 c1 + 2 (c1 + c2/5) cos(dxi (x1 - 2 x2))
        x1, x2 = grid.coordinates()
        dxi = grid.frequency_step
        u = SpectralField(grid, np.exp(1j * dxi * x1) + np.exp(2j * dxi * x2))
        v = nonlinear_potential(u, cubic_config(c1=1.0, c2=1.0))
        expected = 2.0 + 2.4 * np.cos(dxi * (x1 - 2.0 * x2))
        assert np.max(np.abs(v.values - expected)) <= 1e-12 * 4.4

    def test_potential_is_real(self, grid, two_mode):
        v = nonlinear_potential(two_mode, cubic_config())
        assert np.max(np.abs(v.values.imag)) <= 1e-11

    def test_matches_direct_complex_fft_formula(self, grid):
        # rough field: every mode of |u|^2 is occupied, Nyquist rows included
        u = to_physical(make_rough_data(RoughDataSpec(1.0, 0.05, 3), grid))
        c1, c2 = 0.7, 1.9
        rho = np.abs(u.values) ** 2
        k_rho = np.fft.ifft2(grid.alpha_symbol * np.fft.fft2(rho)).real
        expected = c1 * rho + c2 * k_rho
        v = nonlinear_potential(u, cubic_config(c1=c1, c2=c2))
        assert np.max(np.abs(v.values - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestStrangStep:
    def test_collapses_to_free_flow(self, grid, two_mode):
        with pytest.warns(UserWarning):
            cfg = cubic_config(c1=0.0, c2=0.0, dt=0.05)
        stepped = strang_step(two_mode, cfg)
        ref = to_physical(free_evolve(two_mode, 0.05))
        scale = np.max(np.abs(ref.values))
        assert np.max(np.abs(stepped.values - ref.values)) <= 1e-12 * scale

    def test_damped_mass_scaling_exact(self, grid, two_mode):
        cfg = cubic_config(delta=0.3, dt=0.05)
        stepped = strang_step(two_mode, cfg)
        ratio = sobolev_norm(stepped, 0.0) / sobolev_norm(two_mode, 0.0)
        assert ratio == pytest.approx(np.exp(-0.3 * 0.05), rel=1e-13)

    def test_local_error_third_order(self, grid, two_mode):
        cfg = cubic_config()

        def richardson_gap(dt: float) -> float:
            one = strang_step(two_mode, cfg, dt=dt)
            half = strang_step(strang_step(two_mode, cfg, dt=dt / 2), cfg, dt=dt / 2)
            return float(np.max(np.abs(one.values - half.values)))

        gaps = [richardson_gap(dt) for dt in (0.08, 0.04, 0.02)]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 6.5 <= coarse / fine <= 9.5  # dt-halving ratio for O(dt^3)

    def test_nonfinite_input_aborts(self, grid):
        vals = np.ones((64, 64), dtype=np.complex128)
        vals[3, 3] = np.nan
        with pytest.raises(IntegrationAbort):
            strang_step(SpectralField(grid, vals), cubic_config())


class TestEvolve:
    def test_zero_datum_stays_zero(self, grid):
        traj = evolve(SpectralField.zeros(grid), cubic_config(t_end=0.1))
        assert np.all(traj.mass == 0.0)
        assert np.all(traj.energy == 0.0)
        assert np.max(np.abs(traj.fields[-1].values)) == 0.0

    def test_mass_conservation(self, grid, two_mode):
        traj = evolve(two_mode, cubic_config(sample_every=10))
        drift = np.max(np.abs(traj.mass - traj.mass[0])) / traj.mass[0]
        assert drift <= 1e-12

    def test_energy_drift_is_second_order(self, grid, two_mode):
        drifts = []
        for dt in (0.01, 0.005):
            traj = evolve(two_mode, cubic_config(dt=dt, sample_every=int(round(0.1 / dt))))
            drifts.append(np.max(np.abs(traj.energy - traj.energy[0])))
        assert 3.5 <= drifts[0] / drifts[1] <= 4.5

    def test_time_reversibility(self, grid, two_mode):
        cfg = cubic_config()
        u = two_mode
        for _ in range(20):
            u = strang_step(u, cfg)
        for _ in range(20):
            u = strang_step(u, cfg, dt=-cfg.dt)
        scale = np.max(np.abs(two_mode.values))
        assert np.max(np.abs(u.values - two_mode.values)) <= 1e-8 * scale

    def test_damped_decay_matches_closed_form(self, grid, two_mode):
        cfg = cubic_config(delta=0.2, dt=0.01, t_end=2.0, sample_every=50)
        traj = evolve(two_mode, cfg)
        expected = traj.mass[0] * np.exp(-0.2 * traj.times)
        assert np.max(np.abs(traj.mass - expected) / expected) <= 1e-6

    def test_forced_mass_balance_residual(self, grid, two_mode):
        # centered-difference residual of d/dt ||u||^2 + 2 delta ||u||^2
        # - 2 Im<f, u> on the squared-norm balance law
        x1, x2 = grid.coordinates()
        f = SpectralField(grid, 0.1 * np.exp(1j * grid.frequency_step * x1))
        cfg = cubic_config(delta=0.2, forcing=f, dt=0.002, t_end=1.0, sample_every=5)
        traj = evolve(two_mode, cfg)
        f_hat = to_fourier(f).values
        l_sq = grid.domain_length**2
        inner = np.array(
            [
                np.imag(np.sum(f_hat * np.conj(to_fourier(u).values))) * l_sq
                for u in traj.fields
            ]
        )
        m_sq = traj.mass**2
        h = traj.times[1] - traj.times[0]
        resid = (m_sq[2:] - m_sq[:-2]) / (2 * h) + 2 * 0.2 * m_sq[1:-1] - 2 * inner[1:-1]
        assert np.max(np.abs(resid)) <= 1e-4 * np.max(m_sq)

    def test_dealias_masks_datum_before_first_sample(self, grid):
        # a mode outside the 2/3 cutoff must not appear in the first sample
        hat = np.zeros((64, 64), dtype=np.complex128)
        hat[1, 0] = 1.0
        hat[30 % 64, 0] = 1.0  # 3*30 > 64, masked away
        u0 = to_physical(SpectralField(grid, hat, FOURIER))
        traj = evolve(u0, cubic_config(t_end=0.05, dealias=True))
        first = to_fourier(traj.fields[0]).values
        assert abs(first[30 % 64, 0]) <= 1e-14
        assert first[1, 0] == pytest.approx(1.0, abs=1e-13)

    def test_sampling_and_field_at(self, grid, two_mode):
        traj = evolve(two_mode, cubic_config(t_end=0.1, sample_every=2))
        assert traj.times[0] == 0.0
        assert np.allclose(np.diff(traj.times), 0.02)
        u = traj.field_at(0.06)
        assert sobolev_norm(u, 0.0) > 0
        with pytest.raises(KeyError):
            traj.field_at(0.053)

    def test_incommensurate_horizon_rejected(self, grid, two_mode):
        with pytest.raises(ValueError):
            evolve(two_mode, cubic_config(dt=0.03, t_end=0.1))

    def test_observers_see_every_sample(self, grid, two_mode):
        seen = []
        evolve(
            two_mode,
            cubic_config(t_end=0.1, sample_every=5),
            observers=[lambda step, t, u: seen.append((step, t))],
        )
        assert [s for s, _ in seen] == [0, 5, 10]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_abort_carries_step(self, grid):
        vals = np.full((64, 64), np.inf, dtype=np.complex128)
        with pytest.raises(IntegrationAbort) as err:
            evolve(SpectralField(grid, vals), cubic_config(t_end=0.1))
        assert err.value.step == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_aborts_at_failing_step_not_next_sample(self, grid, two_mode):
        # finite datum whose density |u|^2 overflows in the first step
        huge = SpectralField(grid, 1e160 * two_mode.values)
        with pytest.raises(IntegrationAbort) as err:
            evolve(huge, cubic_config(t_end=0.1, sample_every=10))
        assert err.value.step == 1

    def test_merged_steps_match_chained_single_steps(self, grid):
        forcing = make_rough_data(RoughDataSpec(2.0, 0.05, 9), grid)
        cfg = cubic_config(
            delta=0.2, forcing=forcing, dealias=True, t_end=0.21, sample_every=7
        )
        traj = evolve(make_rough_data(RoughDataSpec(1.0, 0.05, 1), grid), cfg)
        u = traj.fields[0]
        for sample in traj.fields[1:]:
            for _ in range(7):
                u = strang_step(u, cfg)
            scale = np.max(np.abs(u.values))
            assert np.max(np.abs(sample.values - u.values)) <= 1e-13 * scale

    def test_trajectory_times_must_increase(self, grid):
        with pytest.raises(ValueError):
            Trajectory(
                times=np.array([0.0, 0.0]),
                fields=[None, None],
                mass=np.zeros(2),
                h1_norm=np.zeros(2),
                energy=np.zeros(2),
            )


class TestTransformCount:
    """Transforms per step and per recorded sample, counted, not timed."""

    NAMES = ("fft2", "ifft2", "rfft2", "irfft2")

    def count(self, monkeypatch, fn) -> int:
        calls = [0]

        def counted(original):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return original(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            for name in self.NAMES:
                patch.setattr(np.fft, name, counted(getattr(np.fft, name)))
            fn()
        return calls[0]

    def test_four_per_step_at_most_two_per_sample(self, monkeypatch, grid, two_mode):
        f = SpectralField(grid, 0.1 * np.ones((64, 64), dtype=np.complex128))

        def run(steps: int, every: int) -> int:
            cfg = cubic_config(
                delta=0.1, forcing=f, dealias=True, t_end=steps * 0.01, sample_every=every
            )
            return self.count(monkeypatch, lambda: evolve(two_mode, cfg))

        # differences of runs cancel the fixed setup and end-sample cost
        sparse10, sparse20, dense10 = run(10, 10), run(20, 20), run(10, 1)
        assert (sparse20 - sparse10) == 4 * 10
        assert dense10 - sparse10 <= 2 * 9


class TestEnergy:
    def test_gradient_term_single_mode(self, grid):
        hat = np.zeros((64, 64), dtype=np.complex128)
        hat[2, 0] = 0.5
        u = to_physical(SpectralField(grid, hat, FOURIER))
        e = energy_functional(u, None, 0.0, 0.0)
        expected = grid.domain_length**2 * (2 * grid.frequency_step) ** 2 * 0.25
        assert e == pytest.approx(expected, rel=1e-12)

    def test_quartic_term_constant_field(self, grid):
        u = SpectralField(grid, np.full((64, 64), 2.0))
        # gradient and nonlocal terms vanish; (c1/2)||u||_L4^4 = (c1/2) 16 L^2
        e = energy_functional(u, None, 3.0, 1.0)
        assert e == pytest.approx(1.5 * 16.0 * grid.domain_length**2, rel=1e-12)

    def test_forcing_term_pairing(self, grid, two_mode):
        f = SpectralField(grid, 0.2 * np.ones((64, 64), dtype=np.complex128))
        gap = energy_functional(two_mode, f, 1.0, 1.0) - energy_functional(
            two_mode, None, 1.0, 1.0
        )
        phys = to_physical(two_mode).values
        quad = 2.0 * np.real(np.sum(0.2 * np.conj(phys))) * grid.physical_step**2
        assert gap == pytest.approx(quad, rel=1e-10, abs=1e-10)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, grid, two_mode, tmp_path):
        path = tmp_path / "state.ck"
        save_checkpoint(path, two_mode, 1.375)
        restored, t = load_checkpoint(path)
        assert t == 1.375
        assert restored.grid == grid
        assert np.array_equal(restored.values, to_fourier(two_mode).values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ck"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_checkpoint(path)
