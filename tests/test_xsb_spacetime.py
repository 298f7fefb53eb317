"""Tests for space-time fields, dispersive norms, and Knapp packets."""
import tracemalloc
import warnings

import numpy as np
import pytest

from dslab.spectral_core import FOURIER, GridSpec
from dslab.xsb_analysis.knapp import (
    BoxFactors,
    KnappConfig,
    _block_norm,
    knapp_factors,
    knapp_grid,
    knapp_sweep,
    knapp_triple,
    output_ratio,
    separable_output_spectrum,
    trilinear_output_spectrum,
    trilinear_ratio,
)
from dslab.xsb_analysis.spacetime import (
    SpaceTimeField,
    SpaceTimeGrid,
    to_fourier3,
    to_physical3,
    xsb_norm,
)


def small_grid(m=16, mt=64, length=4.0 * np.pi, window=4.0 * np.pi) -> SpaceTimeGrid:
    return SpaceTimeGrid(GridSpec(m, domain_length=length), window, mt)


def random_field(grid: SpaceTimeGrid, seed=0) -> SpaceTimeField:
    rng = np.random.default_rng(seed)
    m = grid.spatial.modes_per_axis
    shape = (m, m, grid.time_samples)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpaceTimeField(grid, vals, FOURIER)


class TestSpaceTimeGrid:
    def test_basic_properties(self):
        g = small_grid()
        assert g.tau_step == pytest.approx(0.5)
        assert g.tau_nyquist == pytest.approx(16.0)
        assert g.volume == pytest.approx((4 * np.pi) ** 2 * 4 * np.pi)
        assert np.array_equal(np.sort(g.tau_numbers), np.arange(-32, 32))

    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceTimeGrid(GridSpec(16), 0.0, 8)
        with pytest.raises(ValueError):
            SpaceTimeGrid(GridSpec(16), 1.0, 7)
        with pytest.raises(ValueError):
            SpaceTimeGrid(GridSpec(16), 1.0, 0)

    def test_saturated_tau_band_warns(self):
        # retained |xi|^2 reaches ~50 on this grid; a 4-sample window cannot
        # resolve the dispersive weight there
        with pytest.warns(UserWarning, match="tau band"):
            SpaceTimeGrid(GridSpec(16, domain_length=2 * np.pi), 2 * np.pi, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SpaceTimeGrid(GridSpec(16, domain_length=2 * np.pi), 2 * np.pi, 256)


class TestSpaceTimeField:
    def test_shape_and_representation_validation(self):
        g = small_grid()
        with pytest.raises(ValueError):
            SpaceTimeField(g, np.zeros((3, 3, 3), dtype=complex), FOURIER)
        good = np.zeros((16, 16, 64), dtype=complex)
        with pytest.raises(ValueError):
            SpaceTimeField(g, good, "spectral")
        bad = good.copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            SpaceTimeField(g, bad, FOURIER)

    def test_zeros_copy_carrier(self):
        g = small_grid()
        f = SpaceTimeField.zeros(g)
        assert f.carrier == (0.0, 0.0, 0.0)
        assert not np.any(f.values)

    def test_roundtrip_and_noop(self):
        g = small_grid()
        f = random_field(g, seed=3)
        assert to_fourier3(f) is f
        back = to_fourier3(to_physical3(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12


class TestXsbNorm:
    @pytest.mark.parametrize("s,b", [(0.6, 0.51), (1.4, -0.49), (0.0, 0.0)])
    @pytest.mark.parametrize("carrier", [(0.0, 0.0, 0.0), (0.0, 8.0, -64.0)])
    def test_single_mode_oracle(self, s, b, carrier):
        g = small_grid()
        f = SpaceTimeField.zeros(g)
        f.xi1_offset, f.xi2_offset, f.tau_offset = carrier
        i1, i2, it = 2, 13, 40
        amp = 0.7 - 0.4j
        f.values[i1, i2, it] = amp
        freqs = g.spatial.frequencies
        xi1 = freqs[i1] + carrier[0]
        xi2 = freqs[i2] + carrier[1]
        tau = g.taus[it] + carrier[2]
        xi_sq = xi1**2 + xi2**2
        expected = (
            abs(amp)
            * np.sqrt(g.volume)
            * (1 + xi_sq) ** (s / 2)
            * (1 + (tau + xi_sq) ** 2) ** (b / 2)
        )
        assert xsb_norm(f, s, b) == pytest.approx(expected, rel=1e-12)

    def test_plancherel_at_zero_exponents(self):
        g = small_grid()
        f = random_field(g, seed=11)
        direct = np.sqrt(g.volume * np.sum(np.abs(f.values) ** 2))
        assert xsb_norm(f, 0.0, 0.0) == pytest.approx(direct, rel=1e-10)
        # physical-side quadrature of the same integral
        phys = to_physical3(f)
        m = g.spatial.modes_per_axis
        cell = g.volume / (m * m * g.time_samples)
        quad = np.sqrt(cell * np.sum(np.abs(phys.values) ** 2))
        assert xsb_norm(phys, 0.0, 0.0) == pytest.approx(quad, rel=1e-10)


class TestKnappGeometry:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            KnappConfig(N=2, s=0.6, a=0.3)

    @pytest.mark.parametrize("field", ["N", "s", "a", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_is_named(self, field, value):
        kwargs = dict(N=8.0, s=0.6, a=0.3, b=0.51)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            KnappConfig(**kwargs)

    def test_grid_layout(self):
        g = knapp_grid(8)
        assert g.spatial.modes_per_axis == 64
        assert g.spatial.frequency_step == pytest.approx(1.0 / 8.0)
        assert g.tau_step == pytest.approx(0.5)
        with pytest.raises(ValueError):
            knapp_grid(3)
        # the saturation warning is deliberately silenced for these grids
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            knapp_grid(8)

    def test_unrepresentable_box_raises(self):
        g = knapp_grid(8)
        with pytest.raises(ValueError, match="1/N"):
            knapp_triple(KnappConfig(N=128, s=0.6, a=0.3), g)

    @pytest.mark.parametrize("n_max", [8, 16])
    def test_finest_representable_box_is_the_grid_step(self, n_max):
        # 1/N = dxi is the finest box the grid resolves; one step finer is refused
        g = knapp_grid(n_max)
        fu, _ = knapp_factors(KnappConfig(N=n_max, s=0.6, a=0.3), g)
        assert np.count_nonzero(fu.xi2) > 0
        with pytest.raises(ValueError, match="^grid too coarse: 1/N = "):
            knapp_factors(KnappConfig(N=2 * n_max, s=0.6, a=0.3), g)

    def test_box_counts_and_carriers(self):
        g = knapp_grid(16)
        u, v, w = knapp_triple(KnappConfig(N=16, s=0.6, a=0.3), g)
        # xi1: 32 modes, tube xi2: 2, squat xi2: 8, tau: 4 retained samples
        assert int(np.sum(u.values.real)) == 32 * 2 * 4
        assert int(np.sum(v.values.real)) == 32 * 8 * 4
        assert set(np.unique(u.values.real)) == {0.0, 1.0}
        assert u.carrier == (0.0, 16.0, -256.0)
        assert v.carrier == (0.0, 0.0, 0.0)
        assert w.values is v.values

    def test_dyadic_count_ladder(self):
        g = knapp_grid(32)
        u_counts, v_counts = [], []
        for n in (4, 8, 16, 32):
            u, v, _ = knapp_triple(KnappConfig(N=n, s=0.6, a=0.3), g)
            u_counts.append(int(np.sum(u.values.real)))
            v_counts.append(int(np.sum(v.values.real)))
        axis1 = 64 * 4  # xi1 modes times tau samples
        assert u_counts == [axis1 * 64 // n for n in (4, 8, 16, 32)]
        assert v_counts == [axis1 * c for c in (32, 23, 16, 11)]

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_triple_is_the_outer_product_of_the_factors(self, n):
        g = knapp_grid(16, time_samples=8)
        cfg = KnappConfig(N=n, s=0.6, a=0.3)
        fu, fv = knapp_factors(cfg, g)
        u, v, w = knapp_triple(cfg, g)
        for field, f in ((u, fu), (v, fv), (w, fv)):
            outer = np.multiply.outer(np.multiply.outer(f.xi1, f.xi2), f.tau)
            assert np.array_equal(field.values, outer)
            assert field.carrier == f.carrier
        assert fu.carrier == (0.0, float(n), -float(n) ** 2)


def closed_form_norm(grid, idx, amp, carrier, s, b):
    freqs = grid.spatial.frequencies
    xi1 = freqs[idx[0]] + carrier[0]
    xi2 = freqs[idx[1]] + carrier[1]
    tau = grid.taus[idx[2]] + carrier[2]
    xi_sq = xi1**2 + xi2**2
    return (
        abs(amp)
        * np.sqrt(grid.volume)
        * (1 + xi_sq) ** (s / 2)
        * (1 + (tau + xi_sq) ** 2) ** (b / 2)
    )


class TestTrilinearRatio:
    def test_single_mode_closed_form(self):
        g = small_grid()
        s, a, b, c1, c2 = 0.6, 0.3, 0.51, 0.8, 1.7
        modes = [(2, 3, 5), (1, 15, 60), (9, 2, 33)]
        amps = [0.9 - 0.2j, 0.4 + 0.6j, -1.1 + 0.3j]
        carriers = [(0.5, 2.0, -3.0), (0.0, -1.0, 0.5), (0.0, 0.0, 0.0)]
        fields = []
        for idx, amp, car in zip(modes, amps, carriers):
            f = SpaceTimeField.zeros(g)
            f.values[idx] = amp
            f.xi1_offset, f.xi2_offset, f.tau_offset = car
            fields.append(f)
        u, v, w = fields
        got = trilinear_ratio(u, v, w, s, a, b, c1, c2)

        freqs = g.spatial.frequencies
        d1 = freqs[2] - freqs[1] + carriers[0][0] - carriers[1][0]
        d2 = freqs[3] - freqs[15] + carriers[0][1] - carriers[1][1]
        alpha = d1**2 / (d1**2 + d2**2)
        out_amp = (c1 + c2 * alpha) * amps[0] * np.conj(amps[1]) * amps[2]
        out_idx = (
            (2 - 1 + 9) % 16,
            (3 - 15 + 2) % 16,
            (5 - 60 + 33) % g.time_samples,
        )
        out_car = tuple(
            carriers[0][k] - carriers[1][k] + carriers[2][k] for k in range(3)
        )
        num = closed_form_norm(g, out_idx, out_amp, out_car, s + a, b - 1.0)
        den = 1.0
        for idx, amp, car in zip(modes, amps, carriers):
            den *= closed_form_norm(g, idx, amp, car, s, b)
        assert got == pytest.approx(num / den, rel=1e-12)

    def test_axis_data_reduces_the_nonlocal_term(self):
        # support on the xi1 = 0 axis: the symbol vanishes, c2 is inert
        g = small_grid()
        u = SpaceTimeField.zeros(g)
        v = SpaceTimeField.zeros(g)
        u.values[0, 3, 5] = 1.0 - 0.5j
        u.values[0, 14, 8] = 0.3j
        v.values[0, 1, 2] = 0.8
        r_full = trilinear_ratio(u, v, v, 0.6, 0.3, 0.51, 0.7, 1.3)
        r_plain = trilinear_ratio(u, v, v, 0.6, 0.3, 0.51, 0.7, 0.0)
        assert r_full == pytest.approx(r_plain, rel=1e-14)

        # support on the xi2 = 0 axis away from the diagonal: the symbol is
        # identically one, so c2 just shifts the cubic constant
        u2 = SpaceTimeField.zeros(g)
        v2 = SpaceTimeField.zeros(g)
        u2.values[3, 0, 5] = 0.6 + 0.1j
        v2.values[1, 0, 2] = -0.4j
        r_k = trilinear_ratio(u2, v2, v2, 0.6, 0.3, 0.51, 1.0, 0.9)
        r_shift = trilinear_ratio(u2, v2, v2, 0.6, 0.3, 0.51, 1.9, 0.0)
        assert r_k == pytest.approx(r_shift, rel=1e-14)

    def test_zero_denominator(self):
        g = small_grid()
        u = SpaceTimeField.zeros(g)
        u.values[1, 1, 1] = 1.0
        with pytest.raises(ValueError, match="denominator"):
            trilinear_ratio(u, SpaceTimeField.zeros(g), u, 0.6, 0.3, 0.51, 1.0, 1.0)

    def test_grid_mismatch(self):
        u = SpaceTimeField.zeros(small_grid())
        other = SpaceTimeField.zeros(small_grid(m=8, mt=64))
        with pytest.raises(ValueError):
            trilinear_output_spectrum(u, other, u, 1.0, 1.0)

    def test_spectrum_matches_direct_convolution(self):
        g = knapp_grid(4, time_samples=8)
        cfg = KnappConfig(N=4, s=0.6, a=0.3)
        u, v, w = knapp_triple(cfg, g)
        c1, c2 = 1.3, 0.7
        out = trilinear_output_spectrum(u, v, w, c1, c2)

        m = g.spatial.modes_per_axis
        mt = g.time_samples
        freqs = g.spatial.frequencies
        su = np.argwhere(np.abs(u.values) > 0)
        sv = np.argwhere(np.abs(v.values) > 0)
        d1 = freqs[su[:, 0, None]] - freqs[sv[None, :, 0]]
        d2 = freqs[su[:, 1, None]] - freqs[sv[None, :, 1]] + cfg.N
        xi_sq = d1**2 + d2**2
        alpha = np.where(xi_sq > 0, d1**2 / np.where(xi_sq > 0, xi_sq, 1.0), 0.0)
        coef = (c1 + c2 * alpha).astype(complex)  # unit box amplitudes
        shifts = su[:, None, :] - sv[None, :, :]
        targets = (shifts[:, :, None, :] + sv[None, None, :, :]) % (m, m, mt)
        flat = np.ravel_multi_index(
            (targets[..., 0], targets[..., 1], targets[..., 2]), (m, m, mt)
        )
        weights = np.broadcast_to(coef[:, :, None], flat.shape)
        oracle = np.bincount(
            flat.ravel(), weights=weights.real.ravel(), minlength=m * m * mt
        ) + 1j * np.bincount(
            flat.ravel(), weights=weights.imag.ravel(), minlength=m * m * mt
        )
        oracle = oracle.reshape(m, m, mt)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(out.values - oracle)) < 1e-12 * scale
        assert out.carrier == (0.0, 4.0, -16.0)

    def test_output_ratio_reuse(self):
        g = knapp_grid(8, time_samples=16)
        cfg = KnappConfig(N=8, s=0.6, a=0.3)
        u, v, w = knapp_triple(cfg, g)
        den = xsb_norm(u, 0.6, 0.51) * xsb_norm(v, 0.6, 0.51) * xsb_norm(w, 0.6, 0.51)
        out = trilinear_output_spectrum(u, v, w, 1.0, 1.0)
        direct = trilinear_ratio(u, v, w, 0.6, 0.3, 0.51, 1.0, 1.0)
        assert output_ratio(out, 0.6, 0.3, 0.51) / den == pytest.approx(direct, rel=1e-13)


def expand(rows, cols, block, tau, m):
    """The (M, M, M_t) Fourier data of a block spectrum, zero off rows x cols."""
    spatial = np.zeros((m, m), dtype=complex)
    spatial[np.ix_(rows, cols)] = block
    return spatial[:, :, None] * tau[None, None, :]


class TestSeparableEngine:
    @pytest.mark.parametrize("n_max", [4, 8, 16])
    @pytest.mark.parametrize("c1, c2", [(1.3, 0.7), (1.0, 0.0), (0.0, 1.0)])
    def test_output_spectrum_matches_dense_oracle(self, n_max, c1, c2):
        g = knapp_grid(n_max)
        cfg = KnappConfig(N=n_max, s=0.6, a=0.3)
        fu, fv = knapp_factors(cfg, g)
        rows, cols, block, tau, carrier = separable_output_spectrum(fu, fv, fv, g, c1, c2)
        oracle = trilinear_output_spectrum(*knapp_triple(cfg, g), c1, c2)
        expanded = expand(rows, cols, block, tau, g.spatial.modes_per_axis)
        scale = np.max(np.abs(oracle.values))
        assert np.max(np.abs(expanded - oracle.values)) <= 1e-12 * scale
        assert carrier == oracle.carrier

    def test_overflow_is_returned_for_the_sweep_to_refuse(self):
        # the spectrum makes no finiteness check of its own: an overflowing
        # coupling leaves non-finite values in the block, and knapp_sweep's
        # per-N check refuses the ratio they give, naming its N
        g = knapp_grid(8)
        fu, fv = knapp_factors(KnappConfig(N=8, s=0.6, a=0.3), g)
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, block, tau, _ = separable_output_spectrum(fu, fv, fv, g, 1e308, 1e308)
        assert not np.all(np.isfinite(block))
        assert np.all(np.isfinite(tau))

    def test_random_factors_and_carriers_match_dense_oracle(self):
        g = small_grid()
        rng = np.random.default_rng(3)
        m, mt = g.spatial.modes_per_axis, g.time_samples

        def factors(carrier):
            draw = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (m, m, mt)]
            return BoxFactors(*draw, carrier)

        fu = factors((0.5, 2.0, -3.0))
        fv = factors((-1.0, 0.25, 1.0))
        fw = factors((0.0, -1.5, 2.0))
        rows, cols, block, tau, carrier = separable_output_spectrum(fu, fv, fw, g, 0.8, 1.7)
        # dense factors: the block is the whole grid
        assert np.array_equal(rows, np.arange(m)) and np.array_equal(cols, np.arange(m))
        dense = [SpaceTimeField(g, f.dense(), FOURIER, *f.carrier) for f in (fu, fv, fw)]
        oracle = trilinear_output_spectrum(*dense, 0.8, 1.7)
        expanded = expand(rows, cols, block, tau, m)
        assert np.max(np.abs(expanded - oracle.values)) <= 1e-12 * np.max(np.abs(oracle.values))
        assert carrier == oracle.carrier

    @staticmethod
    def support_sum(a, b, c):
        """Brute-force mask of supp(a) - supp(b) + supp(c) mod M."""
        m = a.size
        sums = {
            (i - j + k) % m
            for i in np.flatnonzero(a)
            for j in np.flatnonzero(b)
            for k in np.flatnonzero(c)
        }
        return np.isin(np.arange(m), sorted(sums))

    @pytest.mark.parametrize("n_max", [4, 8, 16])
    def test_output_is_exactly_zero_outside_the_support_sum(self, n_max):
        g = knapp_grid(n_max)
        cfg = KnappConfig(N=n_max, s=0.6, a=0.3)
        fu, fv = knapp_factors(cfg, g)
        rows, cols, block, tau, _ = separable_output_spectrum(fu, fv, fv, g, 1.0, 1.0)
        in_rows = self.support_sum(fu.xi1, fv.xi1, fv.xi1)
        in_cols = self.support_sum(fu.xi2, fv.xi2, fv.xi2)
        taus = self.support_sum(fu.tau, fv.tau, fv.tau)
        assert not in_rows.all() and not in_cols.all() and not taus.all()
        assert np.array_equal(rows, np.flatnonzero(in_rows))
        assert np.array_equal(cols, np.flatnonzero(in_cols))
        assert block.shape == (rows.size, cols.size)
        assert np.all(tau[~taus] == 0.0)
        # what lies outside the block is roundoff in the dense oracle too
        oracle = trilinear_output_spectrum(*knapp_triple(cfg, g), 1.0, 1.0).values
        inside = in_rows[:, None, None] & in_cols[None, :, None] & taus[None, None, :]
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(np.where(inside, 0.0, oracle))) <= 1e-12 * scale
        expanded = expand(rows, cols, block, tau, g.spatial.modes_per_axis)
        assert np.max(np.abs(expanded - oracle)) <= 1e-12 * scale

    def test_sparse_random_factors_wrap_around_and_match_dense_oracle(self):
        # supports near both ends of each axis, so the sums wrap mod M
        g = small_grid()
        rng = np.random.default_rng(11)
        m, mt = g.spatial.modes_per_axis, g.time_samples

        def factors(carrier):
            draw = []
            for k in (m, m, mt):
                vals = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                keep = np.zeros(k, dtype=bool)
                keep[rng.choice(np.r_[0:3, k - 3 : k], size=3, replace=False)] = True
                draw.append(np.where(keep, vals, 0.0))
            return BoxFactors(*draw, carrier)

        fu = factors((0.5, 2.0, -3.0))
        fv = factors((-1.0, 0.25, 1.0))
        fw = factors((0.0, -1.5, 2.0))
        rows, cols, block, tau, _ = separable_output_spectrum(fu, fv, fw, g, 0.8, 1.7)
        assert np.array_equal(rows, np.flatnonzero(self.support_sum(fu.xi1, fv.xi1, fw.xi1)))
        assert np.array_equal(cols, np.flatnonzero(self.support_sum(fu.xi2, fv.xi2, fw.xi2)))
        assert np.all(tau[~self.support_sum(fu.tau, fv.tau, fw.tau)] == 0.0)
        dense = [SpaceTimeField(g, f.dense(), FOURIER, *f.carrier) for f in (fu, fv, fw)]
        oracle = trilinear_output_spectrum(*dense, 0.8, 1.7)
        expanded = expand(rows, cols, block, tau, m)
        assert np.max(np.abs(expanded - oracle.values)) <= 1e-12 * np.max(np.abs(oracle.values))

    def test_engine_allocates_less_than_one_square_array(self):
        # at N = 64 on the criterion-6 grid (M = 512) the output lives on
        # 382 x 32 of the 512 x 512 spatial modes; the engine works on the
        # 17 pair columns and that block, never on an M x M array
        g = knapp_grid(64)
        m = g.spatial.modes_per_axis
        fu, fv = knapp_factors(KnappConfig(N=64, s=0.6, a=0.3), g)
        separable_output_spectrum(fu, fv, fv, g, 1.0, 1.0)  # first-call allocations
        tracemalloc.start()
        try:
            separable_output_spectrum(fu, fv, fv, g, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m * np.dtype(np.complex128).itemsize

    # rows with equal (xi1 + c0)^2 are folded: k1 with -k1 at c0 = 0, and
    # k1 with -2 - k1 at c0 = 0.5, half the lattice step
    @pytest.mark.parametrize(
        "carrier", [(0.5, -2.0, 3.0), (0.0, 8.0, -64.0)], ids=["xi1_offset", "xi1_zero"]
    )
    def test_norm_of_a_dense_product_matches_xsb_norm(self, carrier):
        g = small_grid()
        rng = np.random.default_rng(5)
        m, mt = g.spatial.modes_per_axis, g.time_samples
        # rows k1 and -k1 differ; row k1 = -M/2 (index M/2) has no mirror
        rows = np.r_[0:3, 6:m]  # rows 3-5 lie outside the block, their mirrors do not
        cols = np.r_[1:7, 9:15]  # so do columns 0, 7, 8 and 15
        block = rng.standard_normal((rows.size, cols.size))
        block = block + 1j * rng.standard_normal(block.shape)
        tau = rng.standard_normal(mt) + 1j * rng.standard_normal(mt)
        tau[[0, 1, 30, 63]] = 0.0  # vanishing tau samples are skipped
        dense = SpaceTimeField(g, expand(rows, cols, block, tau, m), FOURIER, *carrier)
        got = _block_norm(g, rows, cols, block, tau, carrier, 0.7, -0.4)
        assert got == pytest.approx(xsb_norm(dense, 0.7, -0.4), rel=1e-13)

    def test_output_norm_weights_only_the_support(self, monkeypatch):
        # the b-weight of the N = 64 output norm is built on the support sums
        # (192 folded rows x 10 taus x 32 columns), not on all 257 folded
        # rows x 32 taus x 512 columns of the grid
        g = knapp_grid(64)
        m, mt = g.spatial.modes_per_axis, g.time_samples
        fu, fv = knapp_factors(KnappConfig(N=64, s=0.6, a=0.3), g)
        rows, cols, block, tau, carrier = separable_output_spectrum(fu, fv, fv, g, 1.0, 1.0)
        weighted = []
        original = np.power

        def counted(x, *args, **kwargs):
            weighted.append(np.size(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np, "power", counted)
        got = _block_norm(g, rows, cols, block, tau, carrier, 0.9, -0.49)
        monkeypatch.undo()
        assert 0 < sum(weighted) < (m // 2 + 1) * mt * m / 10
        dense = SpaceTimeField(g, expand(rows, cols, block, tau, m), FOURIER, *carrier)
        assert got == pytest.approx(xsb_norm(dense, 0.9, -0.49), rel=1e-13)


class TestKnappSweep:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least 4"):
            knapp_sweep([8, 16, 32], s=0.6, a=0.3)
        with pytest.raises(ValueError, match="geometrically"):
            knapp_sweep([8, 16, 32, 48], s=0.6, a=0.3)
        with pytest.raises(ValueError, match="distinct"):
            knapp_sweep([8, 8, 8, 8], s=0.6, a=0.3)

    @pytest.mark.parametrize(
        "n_list,kwargs,message",
        [
            ([8, 16, 32, np.inf], {}, "N values must be finite"),
            ([8, 16, np.nan, 64], {}, "N values must be finite"),
            ([8, 16, 32, 64], {"s": np.nan}, "s must be finite"),
            ([8, 16, 32, 64], {"a": np.inf}, "a must be finite"),
            ([8, 16, 32, 64], {"b": np.nan}, "b must be finite"),
            ([8, 16, 32, 64], {"c1": -np.inf}, "c1 must be finite"),
            ([8, 16, 32, 64], {"c2": np.nan}, "c2 must be finite"),
        ],
    )
    def test_non_finite_input_is_refused_before_any_transform(
        self, n_list, kwargs, message, monkeypatch
    ):
        def refuse(*args, **kw):
            raise AssertionError("transform before the inputs were checked")

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, refuse)
        params = dict(s=0.6, a=0.3) | kwargs
        with pytest.raises(ValueError, match=f"^{message}"):
            knapp_sweep(n_list, **params)

    @pytest.mark.parametrize("coupling", [1e150, 1e200, 1e308])
    def test_overflow_aborts_naming_the_first_n(self, coupling):
        # every overflow, in the ratio or in the output spectrum, meets the
        # one per-N check, with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="^N = 4: "):
                knapp_sweep(
                    [4, 8, 16, 32], s=0.6, a=0.3, c1=coupling, c2=coupling, grid=knapp_grid(32)
                )

    def test_power_laws_and_spacing(self):
        grid = knapp_grid(32)
        res = knapp_sweep([4, 8, 16, 32], s=0.6, a=0.3, grid=grid)
        assert len(res.ratios) == 4 and all(r > 0 for r in res.ratios)
        assert all(res.ratios[i] > res.ratios[i + 1] for i in range(3))
        # input norms follow the box-count power laws
        assert 0.0 <= res.u_slope <= 0.2
        assert -0.32 <= res.v_slope <= -0.20
        # output scale is set by the triple box convolution ~ N^{s+a-2}, so
        # the ratio exponent sits near a - 1 with a small lattice offset
        assert -0.70 <= res.slope <= -0.45
        res_hi = knapp_sweep([4, 8, 16, 32], s=0.6, a=0.7, grid=grid)
        assert res_hi.slope - res.slope == pytest.approx(0.4, abs=0.1)

    def test_norms_and_ratios_match_dense_oracle(self):
        grid = knapp_grid(32)
        n_list = [4, 8, 16, 32]
        sweeps = {a: knapp_sweep(n_list, s=0.6, a=a, grid=grid) for a in (0.3, 0.7)}
        for k, n in enumerate(n_list):
            u, v, w = knapp_triple(KnappConfig(N=n, s=0.6, a=0.3), grid)
            nu, nv = xsb_norm(u, 0.6, 0.51), xsb_norm(v, 0.6, 0.51)
            out = trilinear_output_spectrum(u, v, w, 1.0, 1.0)
            for a, res in sweeps.items():
                assert res.u_norms[k] == pytest.approx(nu, rel=1e-12)
                assert res.v_norms[k] == pytest.approx(nv, rel=1e-12)
                dense = output_ratio(out, 0.6, a, 0.51) / (nu * nv * nv)
                assert res.ratios[k] == pytest.approx(dense, rel=1e-12)
            del u, v, w, out

    def test_no_dense_field_and_direct_values(self, monkeypatch):
        # the sweep runs on 1D factors and M x M spectra: no 3D transform, and
        # its allocation peak stays below one (M, M, M_t) complex field
        grid = knapp_grid(32, time_samples=8)
        m, mt = grid.spatial.modes_per_axis, grid.time_samples
        n_list = [4, 8, 16, 32]
        calls = []
        for name in ("fftn", "ifftn"):
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = knapp_sweep(n_list, s=0.6, a=0.3, grid=grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert calls == []
        assert peak < m * m * mt * np.dtype(np.complex128).itemsize
        for k, n in enumerate(n_list):
            u, v, w = knapp_triple(KnappConfig(N=n, s=0.6, a=0.3), grid)
            assert res.u_norms[k] == pytest.approx(xsb_norm(u, 0.6, 0.51), rel=1e-13)
            assert res.v_norms[k] == pytest.approx(xsb_norm(v, 0.6, 0.51), rel=1e-13)
            direct = trilinear_ratio(u, v, w, 0.6, 0.3, 0.51, 1.0, 1.0)
            assert res.ratios[k] == pytest.approx(direct, rel=1e-13)
