"""Split-step integrator checks: collapse limits, conservation, order, damping."""
import numpy as np
import pytest

from dslab import ds_solver, spectral_core
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
    ensemble_stream,
    evolve,
    nonlinear_potential,
    sample_steps,
    sample_stream,
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

    @pytest.mark.parametrize("name", ["dt", "t_end", "delta"])
    def test_non_numeric_time_or_damping_is_a_value_error(self, name):
        # comparing a str against a float used to raise TypeError
        with pytest.raises(ValueError, match=name):
            cubic_config(**{name: "0.01"})

    @pytest.mark.parametrize("t_end", [float("inf"), float("nan")])
    def test_non_finite_t_end_rejected(self, t_end):
        # inf used to pass here and overflow later in sample_steps
        with pytest.raises(ValueError, match="t_end"):
            cubic_config(t_end=t_end)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_delta_rejected(self, delta):
        # NaN used to be accepted silently
        with pytest.raises(ValueError, match="delta"):
            cubic_config(delta=delta)

    @pytest.mark.parametrize("name", ["c1", "c2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_constant_rejected(self, name, value):
        # these used to be accepted and abort the first steps as non-finite
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cubic_config(**{name: value})

    @pytest.mark.parametrize("name", ["c1", "c2"])
    def test_non_numeric_constant_is_a_value_error(self, name):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            cubic_config(**{name: "1.0"})

    def test_sample_every_positive_integer(self):
        with pytest.raises(ValueError):
            cubic_config(sample_every=0)

    def test_integral_float_sample_every_is_stored_as_int(self):
        cfg = cubic_config(t_end=0.1, sample_every=2.0)
        assert type(cfg.sample_every) is int
        assert sample_steps(cfg) == [0, 2, 4, 6, 8, 10]
        with pytest.raises(ValueError, match="positive integer"):
            cubic_config(sample_every=2.5)

    @pytest.mark.parametrize("every", ["2", None, float("inf"), float("nan")])
    def test_non_numeric_or_non_finite_sample_every_is_a_value_error(self, every):
        with pytest.raises(ValueError, match="positive integer"):
            SolverConfig(1, 1, 0.01, 1, sample_every=every)

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
                interaction=np.zeros(2),
                drive=np.zeros(2),
            )


class TestSampleStream:
    def test_schedule_keeps_the_last_step(self):
        assert sample_steps(cubic_config(t_end=0.1, sample_every=3)) == [0, 3, 6, 9, 10]
        assert sample_steps(cubic_config(t_end=0.1, sample_every=5)) == [0, 5, 10]
        with pytest.raises(ValueError, match="multiple of dt"):
            sample_steps(cubic_config(dt=0.03, t_end=0.1))

    def test_yields_the_states_evolve_records(self, grid, two_mode):
        cfg = cubic_config(t_end=0.1, sample_every=3, dealias=True)
        traj = evolve(two_mode, cfg)
        stream = list(sample_stream(two_mode, cfg))
        assert [step for step, _, _ in stream] == sample_steps(cfg)
        assert np.array_equal([t for _, t, _ in stream], traj.times)
        for (_, _, u_hat), field in zip(stream, traj.fields):
            assert np.array_equal(u_hat, field.values)
        # every yielded array is the consumer's to keep
        assert len({id(u_hat) for _, _, u_hat in stream}) == len(stream)


class TestEnsembleStream:
    """A stacked stream steps each member to the bits it gets alone."""

    @pytest.mark.parametrize("m", [16, 32, 128, 256])
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("dealias", [False, True])
    def test_members_equal_their_own_sample_streams(self, m, forced, dealias):
        grid = GridSpec(m, 2.0 * np.pi)
        forcing = make_rough_data(RoughDataSpec(2.0, 0.05, 9), grid) if forced else None
        cfg = cubic_config(
            delta=0.2, forcing=forcing, dealias=dealias, t_end=0.05, sample_every=2
        )
        members = [
            make_rough_data(RoughDataSpec(1.0, amp, seed), grid)
            for amp, seed in ((0.3, 1), (0.2, 2), (0.1, 3))
        ]
        alone = [list(sample_stream(u0, cfg)) for u0 in members]
        for k in (1, 2, 3):
            stacked = list(ensemble_stream(members[:k], cfg))
            assert [(step, t) for step, t, _ in stacked] == [(s, t) for s, t, _ in alone[0]]
            for j in range(k):
                for (_, _, stack), (_, _, u_hat) in zip(stacked, alone[j]):
                    assert stack.shape == (k, m, m)
                    assert np.array_equal(stack[j], u_hat)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_member_aborts_the_stack_naming_it(self, grid, two_mode):
        bad = to_fourier(two_mode).values.copy()
        bad[3, 5] = np.nan
        fields = [two_mode, SpectralField(grid, bad, FOURIER), two_mode]
        cfg = cubic_config(t_end=0.1)
        with pytest.raises(IntegrationAbort, match="at step 0 .* in member 1") as err:
            list(ensemble_stream(fields, cfg))
        assert err.value.step == 0 and err.value.member == 1
        # a density that overflows in the first step aborts there, in the gauge
        huge = SpectralField(grid, 1e160 * two_mode.values)
        with pytest.raises(IntegrationAbort) as err:
            list(ensemble_stream([two_mode, two_mode, huge], cfg))
        assert err.value.step == 1 and err.value.member == 2
        # one field names no member
        with pytest.raises(IntegrationAbort) as err:
            list(sample_stream(SpectralField(grid, bad, FOURIER), cfg))
        assert err.value.member is None and "member" not in str(err.value)

    def test_members_must_share_one_grid(self, two_mode):
        other = SpectralField.zeros(GridSpec(64, 2.0 * np.pi))
        with pytest.raises(ValueError, match="one grid"):
            ensemble_stream([two_mode, other], cubic_config(t_end=0.1))


class TestKernelBuffers:
    """The kernels' work buffers never reach what a caller receives."""

    def test_advance_leaves_input_and_returns_fresh_array(self, grid, two_mode):
        f = SpectralField(grid, 0.1 * np.ones((64, 64), dtype=np.complex128))
        cfg = cubic_config(delta=0.1, forcing=f, dealias=True)
        kernel = ds_solver._StepKernel(grid, cfg, cfg.dt)
        u_hat = to_fourier(two_mode).values.copy()
        before = u_hat.copy()
        first = kernel.advance(u_hat, 3)
        second = kernel.advance(u_hat, 3)
        assert np.array_equal(u_hat, before)
        # the buffers carry no state from one call into the next
        assert np.array_equal(first, second)
        d = kernel.density
        for buf in (u_hat, first, d.rho, d.scratch, d.rho_hat, kernel.phase):
            assert not np.shares_memory(second, buf)

    @pytest.mark.parametrize("members", [None, 3], ids=["field", "stack"])
    def test_zeroed_slabs_equal_the_mask_product(self, members):
        # the reference masks the datum, builds full and advances by
        # multiplying with the bool mask
        grid = GridSpec(64, 2.0 * np.pi)
        forcing = make_rough_data(RoughDataSpec(2.0, 0.05, 9), grid)
        cfg = cubic_config(delta=0.2, forcing=forcing, dealias=True)
        fields = [make_rough_data(RoughDataSpec(1.0, 0.3, k), grid) for k in (1, 2, 3)]
        if members is None:
            u_hat, stack = to_fourier(fields[0]).values, ()
        else:
            u_hat, stack = np.stack([to_fourier(f).values for f in fields]), (members,)
        kernel = ds_solver._StepKernel(grid, cfg, cfg.dt, stack)
        mask = grid.dealias_mask
        full = kernel.lead * mask
        full *= kernel.lead
        assert np.array_equal(kernel.full, full)
        datum = u_hat.copy()
        kernel.dealias(datum)
        assert np.array_equal(datum, u_hat * mask)
        u = kernel.lead * u_hat
        u += kernel.force
        for step in (1, 2, 3):
            spectral_core.ifft2_into(u, u)
            kernel._gauge(u, step)
            spectral_core.fft2_into(u, u)
            if step < 3:
                u *= full
                u += kernel.force_full
            else:
                u *= kernel.lead
                u *= mask
                u += kernel.force
        assert np.array_equal(kernel.advance(u_hat, 3), u)

    def test_dropped_slabs_are_the_modes_the_mask_drops(self):
        for m in (2**k for k in range(1, 10)):
            grid = GridSpec(m)
            kernel = ds_solver._StepKernel(grid, cubic_config(dealias=True), 0.01)
            dropped = np.zeros(m, dtype=bool)
            dropped[kernel.dropped] = True
            assert np.array_equal(dropped, ~grid.dealias_keep), m

    def test_steps_allocate_only_the_returned_field(self, traced_peak):
        # at M = 256 one field (1 MiB) dwarfs numpy's fixed ufunc buffers
        grid = GridSpec(256)
        u0 = make_rough_data(RoughDataSpec(1.0, 0.05, 3), grid)
        f = SpectralField(grid, np.full((256, 256), 0.01, dtype=np.complex128))
        kernel = ds_solver._StepKernel(grid, cubic_config(delta=0.1, forcing=f), 0.01)
        u_hat = to_fourier(u0).values
        field = u_hat.nbytes
        _, peak, _ = traced_peak(lambda: kernel.advance(u_hat, 5))
        assert field <= peak < 1.5 * field

    def test_construction_holds_only_the_kept_fields(self, traced_peak):
        # forced and dealiased at M = 256: lead, full, force, force_full and
        # phase, plus rho, scratch, rho_hat and symbol at half a field each
        grid = GridSpec(256)
        grid.xi_squared, grid.alpha_symbol  # cached before tracing
        f = SpectralField(grid, np.full((256, 256), 0.01, dtype=np.complex128))
        cfg = cubic_config(delta=0.1, forcing=f, dealias=True)
        current, peak, _ = traced_peak(lambda: ds_solver._StepKernel(grid, cfg, cfg.dt))
        field = 256 * 256 * np.dtype(np.complex128).itemsize
        assert current <= 7.1 * field and peak <= 7.1 * field

    def test_potential_allocates_no_array(self, traced_peak):
        # a float symbol is cast through numpy's 128 KiB ufunc buffer per call
        grid = GridSpec(128)
        kernel = ds_solver._DensityKernel(grid, 1.0, 1.0)
        u = to_physical(make_rough_data(RoughDataSpec(1.0, 0.05, 3), grid)).values
        kernel.potential(kernel.density_hat(u))
        rho_hat = kernel.density_hat(u)
        _, peak, _ = traced_peak(lambda: kernel.potential(rho_hat))
        assert peak < 8192

    def test_potential_is_copied_out_of_the_density_buffer(self, monkeypatch, two_mode):
        made = []

        class Recorded(ds_solver._DensityKernel):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(ds_solver, "_DensityKernel", Recorded)
        v = nonlinear_potential(two_mode, cubic_config())
        (kernel,) = made
        for buf in (kernel.rho, kernel.scratch, kernel.rho_hat):
            assert not np.shares_memory(v.values, buf)


class TestTransformCount:
    """Transforms per step and per recorded sample, counted, not timed."""

    def test_four_per_step_at_most_two_per_sample(self, count_transforms, grid, two_mode):
        f = SpectralField(grid, 0.1 * np.ones((64, 64), dtype=np.complex128))

        def run(steps: int, every: int) -> int:
            cfg = cubic_config(
                delta=0.1, forcing=f, dealias=True, t_end=steps * 0.01, sample_every=every
            )
            return count_transforms(lambda: evolve(two_mode, cfg))

        # differences of runs cancel the fixed setup and end-sample cost
        sparse10, sparse20, dense10 = run(10, 10), run(20, 20), run(10, 1)
        assert (sparse20 - sparse10) == 4 * 10
        assert 0 < dense10 - sparse10 <= 2 * 9


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
