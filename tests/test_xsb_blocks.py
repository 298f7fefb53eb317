"""Tests for multiplier-norm estimation and dyadic block bounds."""
import math
import tracemalloc

import numpy as np
import pytest

from dslab.xsb_analysis import blocks, multipliers
from dslab.xsb_analysis import (
    COHERENT,
    GENERIC,
    HIGH_PARALLEL,
    PLUS_PLUS_PLUS,
    BlockLattice,
    DyadicBlockSpec,
    Gamma3Multiplier,
    SupportCapExceeded,
    block_bound,
    block_multiplier,
    check_block_bounds,
    estimate_3Z_norm,
    norm_2Z,
    sample_block_specs,
    ttstar_pair,
    upper_3Z_bound,
)


def diagonal_multiplier(values: np.ndarray) -> Gamma3Multiplier:
    """One support point per distinct label triple: the norm is max |value|."""
    n = len(values)
    p1 = np.column_stack([np.arange(n, dtype=float), np.zeros(n), np.zeros(n)])
    p3 = np.column_stack([np.zeros(n), np.arange(n, dtype=float), np.zeros(n)])
    return Gamma3Multiplier(p1, -(p1 + p3), p3, np.asarray(values, dtype=complex))


def random_closed_support(rng, count):
    p1 = rng.integers(-2, 3, size=(count, 3)).astype(float)
    p2 = rng.integers(-2, 3, size=(count, 3)).astype(float)
    return p1, p2, -(p1 + p2)


class TestGamma3Multiplier:
    def test_validation(self):
        with pytest.raises(ValueError, match="\\(n, 3\\)"):
            Gamma3Multiplier(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2))
        p = np.ones((1, 3))
        with pytest.raises(ValueError, match="zero-sum"):
            Gamma3Multiplier(p, p, p, np.ones(1))
        # one row among many, off the hyperplane on the negative side
        p1, p2, p3 = random_closed_support(np.random.default_rng(4), 50)
        p3[17, 2] -= 2e-9
        with pytest.raises(ValueError, match="zero-sum"):
            Gamma3Multiplier(p1, p2, p3, np.ones(50))
        p3[17, 2] += 1.5e-9
        assert Gamma3Multiplier(p1, p2, p3, np.ones(50)).size == 50

    def test_non_finite_points_rejected(self):
        # NaN compares False against the closure tolerance, so it needs its own check
        p1 = np.array([[np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]])
        p2 = np.zeros((2, 3))
        with pytest.raises(ValueError, match="finite"):
            Gamma3Multiplier(p1, p2, -(p1 + p2), np.ones(2))

    def test_non_finite_values_rejected(self):
        p1, p2, p3 = random_closed_support(np.random.default_rng(1), 3)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                Gamma3Multiplier(p1, p2, p3, np.array([1.0, bad, 1.0]))

    def test_labels_and_sizes(self):
        rng = np.random.default_rng(0)
        p1, p2, p3 = random_closed_support(rng, 12)
        m = Gamma3Multiplier(p1, p2, p3, np.ones(12))
        assert m.size == 12 and not m.is_empty
        for pts, lab, size in zip((p1, p2, p3), m.labels, m.slot_sizes):
            assert lab.shape == (12,)
            assert size == len(np.unique(pts, axis=0))
            # equal labels exactly where points coincide
            for i in range(12):
                for j in range(12):
                    same = np.array_equal(pts[i], pts[j])
                    assert (lab[i] == lab[j]) == same

    def test_labels_equal_unique_inverse(self):
        # the labeller must reproduce np.unique(p.round(9), axis=0) exactly:
        # same ranks, same slot sizes, -0.0 merged with 0.0, and entries
        # closer than the rounding grid resolved the way rounding resolves them
        rng = np.random.default_rng(21)
        base = rng.integers(-3, 4, size=(40, 3)).astype(float) * 0.5
        p1 = base[rng.integers(0, 40, size=400)]
        p1[rng.random(p1.shape) < 0.1] = -0.0
        p1[rng.random(p1.shape) < 0.1] = 0.0
        jitter = rng.choice([0.0, 1e-10, -2e-10, 4.9e-10, 6e-10], size=p1.shape)
        p1 = p1 + jitter * (rng.random(p1.shape) < 0.3)
        p2 = base[rng.integers(0, 40, size=400)]
        p3 = -(p1 + p2)
        assert np.any(np.signbit(p1) & (p1 == 0)) and np.any(~np.signbit(p1) & (p1 == 0))
        real = block_multiplier(DyadicBlockSpec(2, 1, 2, 2, 1, 4, 4), BlockLattice())
        none = np.empty((0, 3))
        for m in (
            Gamma3Multiplier(p1, p2, p3, np.ones(400)),
            Gamma3Multiplier(real.points1, real.points2, real.points3, real.values),
            Gamma3Multiplier(none, none, none, np.empty(0)),
        ):
            for pts, lab, size in zip((m.points1, m.points2, m.points3), m.labels, m.slot_sizes):
                uniq, inv = np.unique(pts.round(decimals=9), axis=0, return_inverse=True)
                assert lab.dtype == np.int64
                assert np.array_equal(lab, inv.ravel())
                assert size == len(uniq)


class TestEstimate3Z:
    def test_single_point_norm_one(self):
        m = diagonal_multiplier([1.0])
        assert estimate_3Z_norm(m) == pytest.approx(1.0, abs=1e-12)

    def test_empty_and_restart_validation(self):
        empty = Gamma3Multiplier(
            np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)), np.empty(0)
        )
        assert estimate_3Z_norm(empty) == 0.0
        with pytest.raises(ValueError):
            estimate_3Z_norm(diagonal_multiplier([1.0]), restarts=0)

    def test_iters_below_one_raises(self):
        # zero sweeps used to return 0.0, a silent non-estimate
        for iters in (0, -1):
            with pytest.raises(ValueError, match="iters"):
                estimate_3Z_norm(diagonal_multiplier([1.0]), iters=iters)

    def test_diagonal_support_attains_max(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        est = estimate_3Z_norm(diagonal_multiplier(vals))
        assert est == pytest.approx(np.max(np.abs(vals)), abs=1e-9)

    def test_comparison_principle_small_support(self):
        # |m| <= M pointwise forces norm(m) <= norm(M); on supports this
        # small the alternating estimates are at their true optima
        rng = np.random.default_rng(3)
        for _ in range(3):
            p1, p2, p3 = random_closed_support(rng, 6)
            vals = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            lower = Gamma3Multiplier(p1, p2, p3, vals)
            upper = Gamma3Multiplier(p1, p2, p3, np.abs(vals) * 1.5 + 0.2)
            e1 = estimate_3Z_norm(lower, restarts=16, iters=500)
            e2 = estimate_3Z_norm(upper, restarts=16, iters=500)
            assert e1 <= e2 * (1 + 1e-8)

    @staticmethod
    def two_bincount_contract(labels, size, values, other1, other2):
        w = values * other1 * other2
        re = np.bincount(labels, weights=w.real, minlength=size)
        im = np.bincount(labels, weights=w.imag, minlength=size)
        return re + 1j * im

    def test_one_bincount_contraction_matches_two_bit_for_bit(self):
        rng = np.random.default_rng(5)

        def complex_normal(n):
            return rng.standard_normal(n) + 1j * rng.standard_normal(n)

        real = block_multiplier(DyadicBlockSpec(2, 1, 2, 2, 1, 4, 4), BlockLattice())
        cases = [
            (lab, size, real.values) for lab, size in zip(real.labels, real.slot_sizes)
        ]
        # labels drawn from a range with gaps leave some bins empty
        sparse = rng.choice(np.arange(0, 60, 3), size=500)
        cases.append((sparse, 64, complex_normal(500)))
        for labels, size, values in cases:
            n = len(labels)
            others = complex_normal(n), complex_normal(n)
            fast = multipliers._contract(labels, size, values * others[0] * others[1])
            slow = self.two_bincount_contract(labels, size, values, *others)
            assert fast.dtype == np.complex128 and fast.shape == (size,)
            assert fast.tobytes() == slow.tobytes()
        assert np.any(np.bincount(sparse, minlength=64) == 0)


def reference_3Z_estimate(m, restarts, iters, tol=1e-8, seed=0):
    """The alternating maximization as first written: both other test
    functions gathered on every update, weights values * other1 * other2,
    one interleaved bincount. The oracle of estimate_3Z_norm's bits."""

    def interleaved(labels):
        pairs = np.empty(2 * len(labels), dtype=np.int64)
        pairs[0::2] = 2 * labels
        pairs[1::2] = 2 * labels + 1
        return pairs

    def contract(pairs, size, values, other1, other2):
        w = values * other1 * other2
        sums = np.bincount(pairs, weights=w.view(np.float64), minlength=2 * size)
        return sums.view(np.complex128)

    def als_run(labels, pairs, sizes, values, fs):
        best = 0.0
        for _ in range(iters):
            previous = best
            for j in range(3):
                j1, j2 = (j + 1) % 3, (j + 2) % 3
                t = contract(
                    pairs[j], sizes[j], values, fs[j1][labels[j1]], fs[j2][labels[j2]]
                )
                norm = np.linalg.norm(t)
                if norm == 0.0:
                    return best
                fs[j] = np.conj(t) / norm
                best = norm
            if abs(best - previous) <= tol * max(best, 1e-300):
                break
        return float(best)

    rng = np.random.default_rng(seed)
    pairs = [interleaved(labels) for labels in m.labels]
    results = []
    for r in range(restarts):
        if r == 0:
            fs = [np.ones(n, dtype=np.complex128) / np.sqrt(n) for n in m.slot_sizes]
        else:
            fs = []
            for n in m.slot_sizes:
                f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                fs.append(f / np.linalg.norm(f))
        results.append(als_run(m.labels, pairs, m.slot_sizes, m.values, fs))
    return max(results)


@pytest.fixture(scope="module")
def sampled_blocks():
    """One sampled block per case, with its 0/1 multiplier."""
    return [
        block_multiplier(sample_block_specs(case, 1, seed=1)[0], BlockLattice())
        for case in (PLUS_PLUS_PLUS, HIGH_PARALLEL, COHERENT, GENERIC)
    ]


class TestEstimateBitIdentity:
    # a converged run can hide a last-bit difference, so each case is also
    # compared after 3 sweeps, where the estimate still moves
    @pytest.mark.parametrize("iters", [3, 30])
    def test_unit_blocks_match_reference_loop(self, sampled_blocks, iters):
        for k, m in enumerate(sampled_blocks):
            assert np.all(m.values == 1.0)
            fast = estimate_3Z_norm(m, restarts=3, iters=iters, seed=k)
            assert fast == reference_3Z_estimate(m, restarts=3, iters=iters, seed=k)

    @pytest.mark.parametrize("iters", [3, 30])
    def test_non_unit_values_match_reference_loop(self, sampled_blocks, iters):
        rng = np.random.default_rng(4)
        base = sampled_blocks[2]
        n = base.size
        for values in (
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
            rng.uniform(0.2, 2.0, n),
        ):
            m = Gamma3Multiplier(base.points1, base.points2, base.points3, values)
            fast = estimate_3Z_norm(m, restarts=3, iters=iters, seed=9)
            assert fast == reference_3Z_estimate(m, restarts=3, iters=iters, seed=9)

    @pytest.mark.parametrize("iters", [3, 30])
    def test_four_restarts_match_reference_loop(self, sampled_blocks, iters):
        m = sampled_blocks[1]
        reference = reference_3Z_estimate(m, restarts=4, iters=iters, seed=2)
        assert estimate_3Z_norm(m, restarts=4, iters=iters, seed=2) == reference


class TestUpperBound:
    def test_diagonal_bound_is_attained(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        m = diagonal_multiplier(vals)
        peak = np.max(np.abs(vals))
        assert upper_3Z_bound(m) == pytest.approx(peak, rel=1e-14)
        assert estimate_3Z_norm(m) == pytest.approx(peak, abs=1e-9)

    def test_bounds_the_estimate_on_sampled_blocks(self, sampled_blocks):
        for m in sampled_blocks:
            est = estimate_3Z_norm(m, restarts=2, iters=30)
            upper = upper_3Z_bound(m)
            assert 0 < est <= upper * (1 + 1e-12)

    def test_empty_support_bound_is_zero(self):
        empty = Gamma3Multiplier(
            np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)), np.empty(0)
        )
        assert upper_3Z_bound(empty) == 0.0

    def test_duplicated_row_raises(self):
        rng = np.random.default_rng(6)
        p1, p2, p3 = random_closed_support(rng, 5)
        twice = [np.vstack([p, p[:1]]) for p in (p1, p2, p3)]
        m = Gamma3Multiplier(*twice, np.ones(6))
        with pytest.raises(ValueError, match="duplicated row"):
            upper_3Z_bound(m)


class TestTwoSlotNorms:
    def test_ttstar_pair_placement(self):
        # on the hyperplane xi2 = -xi1 mod n the entry m(i) conj(m(i)) sits
        # at (i, -i mod n), and nothing sits anywhere else
        rng = np.random.default_rng(3)
        m = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a = ttstar_pair(m)
        rows, cols = np.nonzero(a)
        assert rows.tolist() == list(range(6))
        assert cols.tolist() == [(-i) % 6 for i in range(6)]
        assert a[rows, cols] == pytest.approx(np.abs(m) ** 2, rel=1e-14)

    def test_norm_2Z_basics(self):
        assert norm_2Z(np.zeros((4, 4), dtype=complex)) == 0.0
        with pytest.raises(ValueError):
            norm_2Z(np.zeros(4))

    def test_ttstar_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            assert norm_2Z(ttstar_pair(m)) == pytest.approx(np.max(np.abs(m)) ** 2, rel=1e-9)


class TestBlockLattice:
    @pytest.mark.parametrize("name", ["xi_step", "tau_step"])
    @pytest.mark.parametrize("value", [0.0, -0.5, float("nan"), float("inf")])
    def test_steps_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            BlockLattice(**{name: value})


class TestDyadicBlockSpec:
    def test_dyadic_validation(self):
        with pytest.raises(ValueError, match="n1"):
            DyadicBlockSpec(3, 1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="l1"):
            DyadicBlockSpec(1, 1, 1, 0.5, 1, 1, 1)
        with pytest.raises(ValueError, match="h"):
            DyadicBlockSpec(1, 1, 1, 1, 1, 1, 0.5)
        with pytest.raises(ValueError, match="signs"):
            DyadicBlockSpec(1, 1, 1, 1, 1, 1, 1, signs=(1, -1, 1))

    def test_sorted_views(self):
        spec = DyadicBlockSpec(4, 1, 2, 8, 2, 1, 4)
        assert spec.n_sorted == (1, 2, 4)
        assert spec.l_sorted == (1, 2, 8)

    def test_admissibility(self):
        assert DyadicBlockSpec(2, 2, 1, 1, 2, 4, 4).is_admissible
        # spread spatial shells cannot close a triangle
        assert not DyadicBlockSpec(8, 1, 1, 1, 1, 1, 1).is_admissible
        # largest modulation must balance max(l_med, h)
        assert not DyadicBlockSpec(1, 1, 1, 1, 1, 1, 16).is_admissible
        assert not DyadicBlockSpec(1, 1, 1, 1, 1, 64, 1).is_admissible


def brute_force_support(spec: DyadicBlockSpec, lattice: BlockLattice) -> list:
    """Independent nested-loop enumeration of the block support.

    Rows come out in loop order: xi1, then xi2 (each in row-major shell
    order), then increasing tau1, then increasing tau2.
    """
    step = lattice.xi_step
    s = spec.signs

    def shell(nn):
        r = math.floor(math.sqrt(max(4 * nn * nn - 1.0, 0.0)) / step)
        axis = np.arange(-r, r + 1) * step
        return [
            (x, y)
            for x in axis
            for y in axis
            if nn * nn <= 1.0 + x * x + y * y < 4 * nn * nn
        ]

    def tau_axis(l, nn):
        r = math.floor((2 * l + 4 * nn * nn + lattice.tau_step) / lattice.tau_step)
        return np.arange(-r, r + 1) * lattice.tau_step

    def in_shell(vals, c):
        br = 1.0 + vals**2
        return (br >= c * c) & (br < 4 * c * c)

    t1_axis = tau_axis(spec.l1, spec.n1)
    t2_axis = tau_axis(spec.l2, spec.n2)
    rows = []
    for x1 in shell(spec.n1):
        r1 = x1[0] ** 2 + x1[1] ** 2
        lam1 = t1_axis + s[0] * r1
        t1_ok = t1_axis[in_shell(lam1, spec.l1)]
        for x2 in shell(spec.n2):
            x3 = (-(x1[0] + x2[0]), -(x1[1] + x2[1]))
            if not (spec.n3**2 <= 1.0 + x3[0] ** 2 + x3[1] ** 2 < 4 * spec.n3**2):
                continue
            r2 = x2[0] ** 2 + x2[1] ** 2
            hv = s[0] * r1 + s[1] * r2 + s[2] * (x3[0] ** 2 + x3[1] ** 2)
            if not (spec.h**2 <= 1.0 + hv * hv < 4 * spec.h**2):
                continue
            lam2 = t2_axis + s[1] * r2
            t2_ok = t2_axis[in_shell(lam2, spec.l2)]
            for t1 in t1_ok:
                lam3 = hv - (t1 + s[0] * r1) - (t2_ok + s[1] * r2)
                for t2 in t2_ok[in_shell(lam3, spec.l3)]:
                    rows.append((x1[0], x1[1], t1, x2[0], x2[1], t2))
    return rows


class TestBlockMultiplier:
    @pytest.mark.parametrize(
        "spec,expected_size",
        [
            (DyadicBlockSpec(1, 1, 1, 1, 1, 1, 1), 15373),
            (DyadicBlockSpec(2, 1, 2, 2, 1, 4, 4), 22308),
        ],
    )
    def test_matches_brute_force_enumeration(self, spec, expected_size):
        lattice = BlockLattice()
        m = block_multiplier(spec, lattice)
        assert m.size == expected_size
        assert np.all(m.values == 1.0)
        got = [
            (
                m.points1[i, 0], m.points1[i, 1], m.points1[i, 2],
                m.points2[i, 0], m.points2[i, 1], m.points2[i, 2],
            )
            for i in range(m.size)
        ]
        want = brute_force_support(spec, lattice)
        assert len(set(want)) == len(want)
        # the ALS sums in row order, so the order is part of the contract
        assert got == want

    def test_support_sits_on_advertised_shells(self):
        spec = DyadicBlockSpec(2, 1, 2, 2, 1, 4, 4)
        m = block_multiplier(spec, BlockLattice())
        for pts, n in ((m.points1, 2), (m.points2, 1), (m.points3, 2)):
            br = 1.0 + pts[:, 0] ** 2 + pts[:, 1] ** 2
            assert np.all((br >= n * n) & (br < 4 * n * n))
        s = spec.signs
        h = (
            s[0] * np.sum(m.points1[:, :2] ** 2, axis=1)
            + s[1] * np.sum(m.points2[:, :2] ** 2, axis=1)
            + s[2] * np.sum(m.points3[:, :2] ** 2, axis=1)
        )
        assert np.all((1 + h**2 >= spec.h**2) & (1 + h**2 < 4 * spec.h**2))
        for pts, sign, l in (
            (m.points1, s[0], spec.l1),
            (m.points2, s[1], spec.l2),
            (m.points3, s[2], spec.l3),
        ):
            lam = pts[:, 2] + sign * np.sum(pts[:, :2] ** 2, axis=1)
            assert np.all((1 + lam**2 >= l * l) & (1 + lam**2 < 4 * l * l))

    def test_vanishing_conditions_empty_support(self):
        lattice = BlockLattice()
        assert block_multiplier(DyadicBlockSpec(8, 1, 1, 1, 1, 1, 1), lattice).is_empty
        assert block_multiplier(DyadicBlockSpec(1, 1, 1, 1, 1, 16, 1), lattice).is_empty
        # all-plus pattern forces h ~ n_max^2
        assert block_multiplier(
            DyadicBlockSpec(2, 2, 2, 1, 1, 4, 1, signs=(1, 1, 1)), lattice
        ).is_empty

    def test_peak_stays_near_the_multiplier_it_returns(self, traced_peak):
        # the blocks workload's plus_plus_plus block, 43 440 rows; its
        # points, values and labels take 4.31 MiB
        spec = DyadicBlockSpec(2, 1, 2, 1, 1, 8, 8, signs=(1, 1, 1))
        _, peak, m = traced_peak(lambda: block_multiplier(spec, BlockLattice()))
        own = sum(a.nbytes for a in (m.points1, m.points2, m.points3, m.values, *m.labels))
        assert m.size == 43440
        assert peak <= 1.5 * own, f"peak {peak / own:.2f}x the multiplier's bytes"

    def test_support_cap(self):
        with pytest.raises(SupportCapExceeded, match="max_support"):
            block_multiplier(
                DyadicBlockSpec(1, 1, 1, 1, 1, 1, 1), BlockLattice(max_support=100)
            )

    @pytest.mark.parametrize(
        "spec,capped",
        [
            # coherent, 37 x 608 shell points, support 122244 over the cap
            (DyadicBlockSpec(1, 4, 4, 16, 2, 2, 16), True),
            # plus_plus_plus, 608 x 608 shell points, empty support
            (DyadicBlockSpec(4, 4, 2, 2, 32, 2, 16, signs=(1, 1, 1)), False),
        ],
        ids=["capped", "empty"],
    )
    def test_probe_working_set_is_bounded(self, spec, capped):
        # two of the sampler's probes in the blocks benchmark; enumerating
        # them whole peaked at 32.7 and 15.2 MiB
        probe = BlockLattice(max_support=60_000)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            if capped:
                with pytest.raises(SupportCapExceeded):
                    block_multiplier(spec, probe)
            else:
                assert block_multiplier(spec, probe).is_empty
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_support_cap_boundary(self):
        # the cap trips exactly when the final support exceeds it, whatever
        # the chunking: the running total only grows
        spec = DyadicBlockSpec(1, 4, 4, 16, 2, 2, 16)
        size = block_multiplier(spec, BlockLattice()).size
        assert size == 122244
        assert block_multiplier(spec, BlockLattice(max_support=size)).size == size
        with pytest.raises(SupportCapExceeded, match=f"max_support = {size - 1}"):
            block_multiplier(spec, BlockLattice(max_support=size - 1))


class TestBlockBounds:
    def test_case_classification(self):
        assert block_bound(DyadicBlockSpec(2, 2, 1, 1, 2, 4, 4, signs=(1, 1, 1)))[0] == PLUS_PLUS_PLUS
        assert block_bound(DyadicBlockSpec(2, 2, 1, 1, 2, 4, 4))[0] == HIGH_PARALLEL
        assert block_bound(DyadicBlockSpec(1, 4, 4, 16, 1, 2, 16))[0] == COHERENT
        assert block_bound(DyadicBlockSpec(1, 2, 2, 1, 8, 8, 4))[0] == GENERIC

    def test_bound_formulas_transcribed(self):
        def reference(spec):
            n = sorted((spec.n1, spec.n2, spec.n3))
            l = sorted((spec.l1, spec.l2, spec.l3))
            base = math.sqrt(l[0] * n[0] / n[2])
            case = block_bound(spec)[0]
            if case in (PLUS_PLUS_PLUS, HIGH_PARALLEL):
                return base * math.sqrt(min(n[2] * n[0], l[1]))
            if case == COHERENT:
                return base * math.sqrt(min(spec.h, spec.h * l[1] / n[0] ** 2))
            return base * math.sqrt(min(spec.h, l[1]) * min(1.0, spec.h / n[0] ** 2))

        specs = [
            DyadicBlockSpec(2, 2, 1, 1, 2, 4, 4, signs=(1, 1, 1)),
            DyadicBlockSpec(2, 2, 1, 1, 2, 4, 4),
            DyadicBlockSpec(1, 4, 4, 16, 1, 2, 16),
            DyadicBlockSpec(1, 2, 2, 1, 8, 8, 4),
        ]
        for spec in specs:
            assert block_bound(spec)[1] == pytest.approx(reference(spec), rel=1e-12)

    def test_doubling_smallest_modulation_scales_by_sqrt2(self):
        _, v1 = block_bound(DyadicBlockSpec(1, 2, 2, 1, 8, 8, 4))
        _, v2 = block_bound(DyadicBlockSpec(1, 2, 2, 2, 8, 8, 4))
        assert v2 / v1 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_check_block_bounds_report(self):
        specs = [
            DyadicBlockSpec(2, 2, 1, 1, 2, 4, 4, signs=(1, 1, 1)),
            DyadicBlockSpec(2, 2, 1, 1, 2, 4, 4),
            DyadicBlockSpec(1, 2, 2, 8, 1, 1, 8),
            DyadicBlockSpec(1, 2, 2, 1, 8, 8, 4),
        ]
        report = check_block_bounds(specs, restarts=2, iters=30, seed=1)
        rows = report["rows"]
        assert [r["case"] for r in rows] == [PLUS_PLUS_PLUS, HIGH_PARALLEL, COHERENT, GENERIC]
        for row in rows:
            assert row["support"] > 0
            assert row["estimate"] > 0
            assert row["ratio"] == pytest.approx(row["estimate"] / row["bound"], rel=1e-12)
        assert report["c_star"] == pytest.approx(max(r["ratio"] for r in rows), rel=1e-12)
        for row in rows:
            assert row["estimate"] <= row["upper"] * (1 + 1e-12)
        assert report["c_star_upper"] == max(r["upper"] / r["bound"] for r in rows)
        assert report["c_star_upper"] >= report["c_star"]
        logs = np.log([r["ratio"] for r in rows])
        assert report["c_fit"] == pytest.approx(float(np.exp(np.mean(logs))), rel=1e-12)

    def test_check_rejects_inadmissible(self):
        with pytest.raises(ValueError, match="vanishing"):
            check_block_bounds([DyadicBlockSpec(8, 1, 1, 1, 1, 1, 1)])

    def test_check_rejects_empty_spec_list(self):
        # no spec used to report C* = 0.0, as if every bound held with room
        with pytest.raises(ValueError, match="at least one spec"):
            check_block_bounds([])

    def test_check_rejects_specs_whose_supports_are_all_empty(self):
        # admissible but empty on the lattice: C*, c_fit and c_star_upper
        # used to come back 0.0, as if every bound held with room
        empty = DyadicBlockSpec(1, 1, 1, 1, 1, 8, 8)
        assert empty.is_admissible
        assert block_multiplier(empty, BlockLattice()).is_empty
        with pytest.raises(ValueError, match="nonempty support"):
            check_block_bounds([empty], restarts=1, iters=2)
        # one nonempty block is enough, and the empty row does not count
        report = check_block_bounds(
            [empty, DyadicBlockSpec(1, 2, 2, 1, 8, 8, 4)], restarts=1, iters=5
        )
        assert report["rows"][0]["support"] == 0
        assert report["c_star"] == report["rows"][1]["ratio"]
        assert report["c_fit"] == pytest.approx(report["c_star"], rel=1e-12)

    def test_check_raises_when_an_estimate_exceeds_its_upper_bound(self, monkeypatch):
        monkeypatch.setattr(blocks, "upper_3Z_bound", lambda m: 0.5)
        with pytest.raises(ValueError, match="exceeds the upper bound"):
            check_block_bounds([DyadicBlockSpec(1, 2, 2, 1, 8, 8, 4)], restarts=1, iters=5)


class TestSampler:
    @pytest.mark.parametrize("case", [PLUS_PLUS_PLUS, HIGH_PARALLEL, COHERENT, GENERIC])
    def test_samples_match_case(self, case):
        specs = sample_block_specs(case, 2, seed=7)
        assert len(specs) == 2
        for spec in specs:
            assert spec.is_admissible
            assert block_bound(spec)[0] == case
            assert not block_multiplier(spec, BlockLattice()).is_empty

    def test_probes_go_through_module_attribute(self, monkeypatch):
        # benchmarks count probes by wrapping blocks.block_multiplier and
        # divide by that count, so every probe must pass through the name
        calls = []
        original = blocks.block_multiplier

        def counted(spec, lattice):
            calls.append(spec)
            return original(spec, lattice)

        monkeypatch.setattr(blocks, "block_multiplier", counted)
        specs = sample_block_specs(GENERIC, 2, seed=7)
        assert len(specs) == 2
        assert len(calls) >= len(specs)
        assert all(spec in calls for spec in specs)

    def test_only_cap_errors_are_redrawn(self, monkeypatch):
        original = blocks.block_multiplier
        capped = []

        def cap_first(spec, lattice):
            if not capped:
                capped.append(spec)
                raise SupportCapExceeded("block support exceeds max_support = 0")
            return original(spec, lattice)

        monkeypatch.setattr(blocks, "block_multiplier", cap_first)
        specs = sample_block_specs(GENERIC, 1, seed=7)
        assert len(specs) == 1 and capped

        def broken(spec, lattice):
            raise ValueError("support must lie on the zero-sum hyperplane")

        monkeypatch.setattr(blocks, "block_multiplier", broken)
        with pytest.raises(ValueError, match="zero-sum") as info:
            sample_block_specs(GENERIC, 1, seed=7)
        assert not isinstance(info.value, SupportCapExceeded)

    def test_stall_at_the_cap_names_max_support(self):
        with pytest.raises(SupportCapExceeded, match="max_support"):
            sample_block_specs(GENERIC, 1, seed=7, lattice=BlockLattice(max_support=10))

    def test_other_stalls_stay_runtime_errors(self, monkeypatch):
        empty = Gamma3Multiplier(np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)), np.empty(0))
        monkeypatch.setattr(blocks, "block_multiplier", lambda spec, lattice: empty)
        with pytest.raises(RuntimeError, match="stalled"):
            sample_block_specs(GENERIC, 1, seed=7)

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="unknown case"):
            sample_block_specs("sideways", 1)
