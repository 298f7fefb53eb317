"""Transform, symbol, and norm checks on the periodic spectral substrate."""
import numpy as np
import pytest

from dslab.spectral_core import (
    FOURIER,
    PHYSICAL,
    GridSpec,
    SpectralField,
    apply_K,
    fft2_into,
    free_evolve,
    ifft2_into,
    irfft2_into,
    lebesgue_norm,
    loglog_slope,
    rfft2_into,
    sobolev_norm,
    sobolev_norms,
    to_fourier,
    to_physical,
)


def single_mode(grid: GridSpec, k1: int, k2: int, amplitude: complex = 1.0) -> SpectralField:
    """Field whose only Fourier coefficient is `amplitude` at mode (k1, k2)."""
    hat = np.zeros((grid.modes_per_axis, grid.modes_per_axis), dtype=np.complex128)
    hat[k1 % grid.modes_per_axis, k2 % grid.modes_per_axis] = amplitude
    return SpectralField(grid, hat, FOURIER)


def random_field(grid: GridSpec, seed: int, real: bool = False) -> SpectralField:
    rng = np.random.default_rng(seed)
    shape = (grid.modes_per_axis, grid.modes_per_axis)
    vals = rng.standard_normal(shape)
    if not real:
        vals = vals + 1j * rng.standard_normal(shape)
    return SpectralField(grid, vals.astype(np.complex128), PHYSICAL)


@pytest.fixture(scope="module")
def grid() -> GridSpec:
    return GridSpec(64)


class TestGridSpec:
    def test_frequency_and_physical_steps(self, grid):
        assert grid.frequency_step == pytest.approx(2.0 * np.pi / grid.domain_length)
        assert grid.physical_step == pytest.approx(grid.domain_length / 64)

    def test_mode_numbers_cover_symmetric_range(self, grid):
        assert sorted(grid.mode_numbers) == list(range(-32, 32))

    @pytest.mark.parametrize("bad", [0, 1, -8, 48, 63])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ValueError):
            GridSpec(bad)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            GridSpec(64, domain_length=0.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_length(self, bad):
        with pytest.raises(ValueError, match="domain_length must be positive and finite"):
            GridSpec(64, domain_length=bad)

    def test_symbols_match_the_full_lattice_construction(self, grid):
        # xi1 and xi2 are a broadcast column and row; the symbols built from
        # them keep the bits of the M x M outer-product construction
        m, f = grid.modes_per_axis, grid.frequencies
        xi1 = f[:, None] * np.ones((1, m))
        xi2 = np.ones((m, 1)) * f[None, :]
        assert grid.xi1.shape == (m, 1) and grid.xi2.shape == (1, m)
        xi_sq = xi1**2 + xi2**2
        with np.errstate(invalid="ignore"):
            alpha = xi1**2 / xi_sq
        alpha[0, 0] = 0.0
        assert grid.xi_squared.tobytes() == xi_sq.tobytes()
        assert grid.alpha_symbol.tobytes() == alpha.tobytes()

    def test_dealias_mask_two_thirds_rule(self, grid):
        # M=64 keeps 3|k| <= 64, so |k| <= 21 survives and |k| = 22 does not
        mask = grid.dealias_mask
        assert mask[21 % 64, 0] and mask[0, 21 % 64]
        assert mask[(-21) % 64, 0]
        assert not mask[22 % 64, 0]
        assert not mask[0, (-22) % 64]

    def test_field_shape_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            SpectralField(grid, np.zeros((32, 32), dtype=np.complex128))
        with pytest.raises(ValueError):
            SpectralField(grid, np.zeros((2, 2, 64, 64), dtype=np.complex128))
        assert SpectralField(grid, np.zeros((2, 64, 64))).values.shape == (2, 64, 64)

    def test_bad_representation_tag_rejected(self, grid):
        with pytest.raises(ValueError):
            SpectralField(grid, np.zeros((64, 64), dtype=np.complex128), "spectral")


class TestTransforms:
    def test_constant_field_concentrates_at_zero_mode(self, grid):
        u = SpectralField(grid, np.full((64, 64), 2.5 - 1.0j))
        hat = to_fourier(u).values
        assert hat[0, 0] == pytest.approx(2.5 - 1.0j)
        off = hat.copy()
        off[0, 0] = 0.0
        assert np.max(np.abs(off)) <= 1e-13

    def test_plane_wave_gives_unit_coefficient(self, grid):
        x1, x2 = grid.coordinates()
        k1, k2 = 3, -5
        u = SpectralField(grid, np.exp(1j * grid.frequency_step * (k1 * x1 + k2 * x2)))
        hat = to_fourier(u).values
        assert hat[k1 % 64, k2 % 64] == pytest.approx(1.0, abs=1e-12)
        off = hat.copy()
        off[k1 % 64, k2 % 64] = 0.0
        assert np.max(np.abs(off)) <= 1e-12

    def test_round_trip_relative_error(self, grid):
        u = random_field(grid, seed=7)
        back = to_physical(to_fourier(u))
        rel = np.max(np.abs(back.values - u.values)) / np.max(np.abs(u.values))
        assert rel <= 1e-12

    def test_real_field_hermitian_symmetry(self, grid):
        hat = to_fourier(random_field(grid, seed=11, real=True)).values
        neg = (-np.arange(64)) % 64
        residual = np.max(np.abs(hat - np.conj(hat[np.ix_(neg, neg)])))
        assert residual <= 1e-12 * np.max(np.abs(hat))

    def test_matching_direction_is_a_no_op(self, grid):
        u = random_field(grid, seed=3)
        assert to_physical(u) is u
        hat = to_fourier(u)
        assert to_fourier(hat) is hat


class TestBufferTransforms:
    """The *_into transforms against numpy's 2D transforms, bit for bit."""

    @pytest.mark.parametrize("m", [64, 128])
    def test_bit_identical_and_written_into_the_given_buffer(self, m):
        rng = np.random.default_rng(m)
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        x = rng.standard_normal((m, m))
        h = z[:, : m // 2 + 1].copy()

        buf = z.copy()
        assert fft2_into(buf, buf) is buf
        assert np.array_equal(buf, np.fft.fft2(z, norm="forward"))
        buf = z.copy()
        assert ifft2_into(buf, buf) is buf
        assert np.array_equal(buf, np.fft.ifft2(z, norm="forward"))
        half = np.empty((m, m // 2 + 1), dtype=np.complex128)
        assert rfft2_into(x, half) is half
        assert np.array_equal(half, np.fft.rfft2(x, norm="forward"))
        real = np.empty((m, m))
        expected = np.fft.irfft2(h, s=(m, m), norm="forward")
        assert irfft2_into(h, real) is real
        assert np.array_equal(real, expected)

    @pytest.mark.parametrize("m", [16, 64])
    def test_a_stack_transforms_slice_by_slice(self, m):
        rng = np.random.default_rng(m)
        z = rng.standard_normal((3, m, m)) + 1j * rng.standard_normal((3, m, m))
        x = rng.standard_normal((3, m, m))
        stacked = {
            "fft2": fft2_into(z.copy(), np.empty_like(z)),
            "ifft2": ifft2_into(z.copy(), np.empty_like(z)),
            "rfft2": rfft2_into(x, np.empty((3, m, m // 2 + 1), dtype=np.complex128)),
            "irfft2": irfft2_into(z[..., : m // 2 + 1].copy(), np.empty((3, m, m))),
        }
        for k in range(3):
            h = z[k, :, : m // 2 + 1].copy()
            assert np.array_equal(stacked["fft2"][k], np.fft.fft2(z[k], norm="forward"))
            assert np.array_equal(stacked["ifft2"][k], np.fft.ifft2(z[k], norm="forward"))
            assert np.array_equal(stacked["rfft2"][k], np.fft.rfft2(x[k], norm="forward"))
            expected = np.fft.irfft2(h, s=(m, m), norm="forward")
            assert np.array_equal(stacked["irfft2"][k], expected)


class TestApplyK:
    @pytest.mark.parametrize("k", [1, 3, -5])
    def test_horizontal_mode_unchanged(self, grid, k):
        u = single_mode(grid, k, 0)
        out = apply_K(u)
        assert np.max(np.abs(out.values - u.values)) <= 1e-14

    @pytest.mark.parametrize("k", [1, 4, -7])
    def test_vertical_mode_killed(self, grid, k):
        out = apply_K(single_mode(grid, 0, k))
        assert np.max(np.abs(out.values)) <= 1e-14

    def test_diagonal_mode_halved(self, grid):
        u = single_mode(grid, 1, 1, amplitude=2.0)
        out = apply_K(u)
        assert out.values[1, 1] == pytest.approx(1.0)

    def test_zero_mode_killed(self, grid):
        out = apply_K(single_mode(grid, 0, 0, amplitude=3.0))
        assert np.max(np.abs(out.values)) == 0.0

    def test_l2_contraction(self, grid):
        for seed in range(5):
            u = random_field(grid, seed=seed)
            assert sobolev_norm(apply_K(u), 0.0) <= sobolev_norm(u, 0.0) * (1 + 1e-12)

    def test_commutes_with_conjugation(self, grid):
        u = random_field(grid, seed=21)
        conj_first = apply_K(SpectralField(grid, np.conj(u.values)))
        conj_last = np.conj(apply_K(u).values)
        scale = np.max(np.abs(conj_last))
        assert np.max(np.abs(conj_first.values - conj_last)) <= 1e-12 * scale

    def test_self_adjoint_under_real_pairing(self, grid):
        # int K(psi) phi dx == int psi K(phi) dx for real psi, phi
        psi = random_field(grid, seed=31, real=True)
        phi = random_field(grid, seed=32, real=True)
        w = grid.physical_step**2
        lhs = np.sum(to_physical(apply_K(psi)).values * phi.values) * w
        rhs = np.sum(psi.values * to_physical(apply_K(phi)).values) * w
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_preserves_real_fields(self, grid):
        u = random_field(grid, seed=41, real=True)
        out = to_physical(apply_K(u))
        assert np.max(np.abs(out.values.imag)) <= 1e-12 * np.max(np.abs(out.values.real))

    def test_representation_preserved(self, grid):
        phys = random_field(grid, seed=51)
        assert apply_K(phys).representation == PHYSICAL
        assert apply_K(to_fourier(phys)).representation == FOURIER


class TestFreeEvolve:
    def test_t_zero_is_identity(self, grid):
        u = random_field(grid, seed=5)
        out = free_evolve(u, 0.0)
        assert np.max(np.abs(out.values - u.values)) <= 1e-14 * np.max(np.abs(u.values))

    @pytest.mark.parametrize("s", [0.0, 0.6, 1.0, 1.4])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_sobolev_isometry(self, grid, s, t):
        u = random_field(grid, seed=int(10 * s) + 1)
        before = sobolev_norm(u, s)
        after = sobolev_norm(free_evolve(u, t), s)
        assert abs(after - before) <= 1e-12 * before

    def test_single_mode_phase_period(self, grid):
        # mode (1, 0): |xi0|^2 = dxi^2, so t = 2 pi / dxi^2 restores the phase
        u = single_mode(grid, 1, 0, amplitude=1.0 + 0.5j)
        t = 2.0 * np.pi / grid.frequency_step**2
        out = free_evolve(u, t)
        assert np.max(np.abs(out.values - u.values)) <= 1e-9

    def test_damping_flag_scales_amplitude(self, grid):
        u = random_field(grid, seed=8)
        out = free_evolve(u, 2.0, delta=0.25)
        expected = sobolev_norm(u, 0.0) * np.exp(-0.25 * 2.0)
        assert sobolev_norm(out, 0.0) == pytest.approx(expected, rel=1e-12)


class TestNorms:
    def test_constant_l2(self, grid):
        u = SpectralField(grid, np.full((64, 64), -0.7 + 0.2j))
        expected = abs(-0.7 + 0.2j) * grid.domain_length
        assert sobolev_norm(u, 0.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.6, 1.0, -1.0])
    def test_single_mode_sobolev_value(self, grid, s):
        amp = 1.3
        u = single_mode(grid, 3, 4, amplitude=amp)
        xi_sq = (3**2 + 4**2) * grid.frequency_step**2
        expected = amp * grid.domain_length * (1.0 + xi_sq) ** (s / 2.0)
        assert sobolev_norm(u, s) == pytest.approx(expected, rel=1e-12)

    def test_l2_matches_physical_quadrature(self, grid):
        u = random_field(grid, seed=13)
        quad = np.sqrt(np.sum(np.abs(u.values) ** 2) * grid.physical_step**2)
        assert abs(sobolev_norm(u, 0.0) - quad) <= 1e-10 * quad

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_constant_lebesgue(self, grid, p):
        u = SpectralField(grid, np.full((64, 64), 0.5j))
        assert lebesgue_norm(u, p) == pytest.approx(0.5 * grid.domain_length ** (2.0 / p))

    def test_l2_agrees_with_sobolev_zero(self, grid):
        u = random_field(grid, seed=17)
        assert abs(lebesgue_norm(u, 2.0) - sobolev_norm(u, 0.0)) <= 1e-10 * sobolev_norm(u, 0.0)

    def test_plane_wave_l4(self, grid):
        x1, x2 = grid.coordinates()
        u = SpectralField(grid, np.exp(1j * grid.frequency_step * (x1 + 2 * x2)))
        assert lebesgue_norm(u, 4.0) == pytest.approx(np.sqrt(grid.domain_length), rel=1e-12)

    @pytest.mark.parametrize("m", [16, 32, 64, 128, 256])
    def test_stacked_norms_equal_one_field_norms(self, m):
        grid = GridSpec(m)
        rng = np.random.default_rng(m)
        hats = rng.standard_normal((3, m, m)) + 1j * rng.standard_normal((3, m, m))
        for s in (0.0, 1.0, 1.4):
            norms = sobolev_norms(grid, hats, s)
            assert norms.shape == (3,)
            for k in range(3):
                assert norms[k] == sobolev_norm(SpectralField(grid, hats[k], FOURIER), s)
                # the one-field formula, written out
                sq = np.abs(hats[k]) ** 2
                if s != 0.0:
                    sq = sq * (1.0 + grid.xi_squared) ** s
                assert norms[k] == float(grid.domain_length * np.sqrt(np.sum(sq)))

    def test_scalar_norms_take_one_field(self, grid):
        stack = SpectralField(grid, np.ones((2, 64, 64), dtype=np.complex128), FOURIER)
        with pytest.raises(ValueError, match="sobolev_norms"):
            sobolev_norm(stack, 1.0)
        with pytest.raises(ValueError, match="one field"):
            lebesgue_norm(stack, 2.0)

    def test_nonpositive_exponent_rejected(self, grid):
        with pytest.raises(ValueError):
            lebesgue_norm(random_field(grid, seed=1), 0.0)


class TestLoglogSlope:
    def test_recovers_power_law(self):
        x = np.array([8.0, 16.0, 32.0, 64.0])
        assert loglog_slope(x, 3.0 * x**-0.75) == pytest.approx(-0.75, abs=1e-12)

    @pytest.mark.parametrize("x", [[8.0, 8.0, 8.0, 8.0], [32.0]])
    def test_needs_two_distinct_abscissae(self, x):
        with pytest.raises(ValueError, match="distinct"):
            loglog_slope(x, np.linspace(1.0, 2.0, len(x)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_refuses_non_finite_values(self, bad, axis, capfd):
        x, y = np.array([8.0, 16.0, 32.0]), np.array([1.0, 0.5, 0.25])
        (x if axis == "x" else y)[1] = bad
        with pytest.raises(ValueError, match=f"finite positive {axis}"):
            loglog_slope(x, y)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("bad", [0.0, -2.0])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_refuses_non_positive_values(self, bad, axis, capfd):
        x, y = np.array([8.0, 16.0, 32.0]), np.array([1.0, 0.5, 0.25])
        (x if axis == "x" else y)[1] = bad
        with pytest.raises(ValueError, match=f"finite positive {axis}"):
            loglog_slope(x, y)
        assert capfd.readouterr().err == ""
