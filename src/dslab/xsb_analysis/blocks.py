"""Dyadic frequency-modulation blocks and their multilinear norm bounds.

A block restricts each wave to a dyadic frequency shell ``<xi_j> ~ N_j``, a
dyadic modulation shell ``<lambda_j> ~ L_j`` with lambda_j = tau_j +
sign_j |xi_j|^2, and the resonance level ``<h> ~ H``. Shells are half-open
bracket annuli [C, 2C), so the unit shell absorbs everything below size one;
that mirrors the usual reduction to L_min, N_max of size at least one. The
"within a factor of 4" reading of ~ applies throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multipliers import Gamma3Multiplier, estimate_3Z_norm, upper_3Z_bound

PLUS_PLUS_PLUS = "plus_plus_plus"
HIGH_PARALLEL = "high_parallel"
COHERENT = "coherent"
GENERIC = "generic"
CASES = (PLUS_PLUS_PLUS, HIGH_PARALLEL, COHERENT, GENERIC)

SIGN_PATTERNS = ((1, 1, 1), (1, 1, -1))

# Entries per array in one chunk of block_multiplier's enumeration; its
# working set is a small multiple of this, whatever the block.
CHUNK_ELEMENTS = 1 << 17


def _is_dyadic(x: float) -> bool:
    if x <= 0:
        return False
    e = math.log2(x)
    return abs(e - round(e)) < 1e-12


@dataclass(frozen=True)
class DyadicBlockSpec:
    """Dyadic shell sizes for one block; see module docstring for shells."""

    n1: float
    n2: float
    n3: float
    l1: float
    l2: float
    l3: float
    h: float
    signs: tuple = (1, 1, -1)

    def __post_init__(self) -> None:
        for name in ("n1", "n2", "n3", "l1", "l2", "l3", "h"):
            if not _is_dyadic(getattr(self, name)):
                raise ValueError(f"{name} must be a positive dyadic real")
        for name in ("l1", "l2", "l3", "h"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if tuple(self.signs) not in SIGN_PATTERNS:
            raise ValueError(f"signs must be one of {SIGN_PATTERNS}")

    @property
    def n_sorted(self) -> tuple:
        return tuple(sorted((self.n1, self.n2, self.n3)))

    @property
    def l_sorted(self) -> tuple:
        return tuple(sorted((self.l1, self.l2, self.l3)))

    @property
    def is_admissible(self) -> bool:
        """The two vanishing conditions: without them the support is empty."""
        n_min, n_med, n_max = self.n_sorted
        l_min, l_med, l_max = self.l_sorted
        top = max(l_med, self.h)
        return n_max <= 4 * n_med and top / 4 <= l_max <= 4 * top


@dataclass(frozen=True)
class BlockLattice:
    """Discretization of the zero-sum hyperplane used for block supports."""

    xi_step: float = 0.5
    tau_step: float = 0.5
    max_support: int = 400_000

    def __post_init__(self) -> None:
        for name in ("xi_step", "tau_step"):
            value = getattr(self, name)
            # NaN fails both comparisons, so this refuses it too
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.max_support >= 1:
            raise ValueError(f"max_support must be >= 1, got {self.max_support}")


def _shell_points_2d(n: float, step: float) -> np.ndarray:
    """Lattice points with <xi> in [n, 2n)."""
    hi_sq = 4 * n * n - 1.0
    if hi_sq <= 0:
        return np.empty((0, 2))
    r = math.floor(math.sqrt(hi_sq) / step)
    axis = np.arange(-r, r + 1) * step
    x, y = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([x.ravel(), y.ravel()])
    br_sq = 1.0 + pts[:, 0] ** 2 + pts[:, 1] ** 2
    keep = (br_sq >= n * n) & (br_sq < 4 * n * n)
    return pts[keep]


def _bracket_shell(values: np.ndarray, c: float) -> np.ndarray:
    br_sq = 1.0 + values**2
    return (br_sq >= c * c) & (br_sq < 4 * c * c)


def _tau_axis(l: float, n: float, step: float) -> np.ndarray:
    # |tau| <= |lambda| + |xi|^2 < 2l + 4n^2 on the shells
    extent = 2 * l + 4 * n * n + step
    r = math.floor(extent / step)
    return np.arange(-r, r + 1) * step


class SupportCapExceeded(ValueError):
    """A block support (or its shell-pair set) is larger than the lattice cap."""


def _modulation_cut(lam: np.ndarray, l: float):
    """Per row, the entries of lam in the l shell, left-packed in axis order.

    Returns (values, index, valid), all (rows, W) with W the largest row
    count; index holds increasing column numbers in its valid entries and
    column 0 in its padding.
    """
    ok = _bracket_shell(lam, l)
    width = int(ok.sum(axis=1).max())
    # a copy, so the full argsort does not outlive this call
    index = np.ascontiguousarray(np.argsort(~ok, axis=1, kind="stable")[:, :width])
    return (
        np.take_along_axis(lam, index, axis=1),
        index,
        np.take_along_axis(ok, index, axis=1),
    )


def _shell_pairs(spec: DyadicBlockSpec, xi1, r1, xi2, r2):
    """Index pairs (i1, i2), in C order, of the shell points whose xi3 and
    resonance h pass their shells, and h on each pair; r_j = |xi_j|^2."""
    s = spec.signs
    # the components of -xi3; only their squares enter
    x = xi1[:, None, 0] + xi2[None, :, 0]
    y = xi1[:, None, 1] + xi2[None, :, 1]
    br3_sq = 1.0 + (x * x + y * y)
    ok = (br3_sq >= spec.n3**2) & (br3_sq < 4 * spec.n3**2)
    h = s[0] * r1[:, None] + s[1] * r2[None, :] + s[2] * (br3_sq - 1.0)
    ok &= _bracket_shell(h, spec.h)
    i1, i2 = np.nonzero(ok)
    return i1, i2, h[i1, i2]


def block_multiplier(spec: DyadicBlockSpec, lattice: BlockLattice) -> Gamma3Multiplier:
    """Enumerate the 0/1 block multiplier on the discretized hyperplane.

    The frequency shells give the shell pairs (xi1, xi2) whose xi3 and
    resonance h pass their shells. For each pair, tau1 and tau2 are first
    cut to the columns of their axes that pass their own modulation shells,
    packed to the left with a validity mask; the lambda_3 shell is tested
    only on those pairs x W1 x W2 candidates, never on the full tau1 x tau2
    square. Rows come out ordered by (pair, tau1, tau2), the pairs in the
    C order of (xi1, xi2) shell indices and the taus increasing: the ALS
    sums in row order, so its estimate depends on that order at roundoff.

    Every stage runs in chunks: blocks of xi1 rows for the shell pairs,
    blocks of kept pairs for the modulation shells, each chunk's arrays
    holding at most about CHUNK_ELEMENTS entries. The working set therefore
    does not grow with the number of shell points or shell pairs; only the
    kept pairs (at most ``lattice.max_support``) and the support itself are
    held whole. Each stage frees what the next does not read: the per-chunk
    pair lists once concatenated, the pairs and the last chunk's arrays
    once the modulation loop ends, and each list of hits once its column
    is written into the final (n, 3) point arrays. The peak therefore comes
    while the multiplier labels its third slot, with the points, the values
    and two slots' labels alive beside that slot's rounded copy, sort order
    and ranks: 1.4 times the multiplier's own bytes on a 43k-row block.

    Returns an empty multiplier (not an error) when no lattice point meets
    every shell; the vanishing conditions make that the expected outcome for
    inadmissible specs. Raises SupportCapExceeded when the shell pairs, or
    the support, outnumber ``lattice.max_support``.
    """
    step = lattice.xi_step
    xi1 = _shell_points_2d(spec.n1, step)
    xi2 = _shell_points_2d(spec.n2, step)
    empty = Gamma3Multiplier(
        np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)), np.empty(0)
    )
    if not len(xi1) or not len(xi2):
        return empty

    s = spec.signs
    r1 = np.sum(xi1**2, axis=1)
    r2 = np.sum(xi2**2, axis=1)
    kept, n_pairs = [], 0
    rows = max(1, CHUNK_ELEMENTS // len(xi2))
    for lo in range(0, len(xi1), rows):
        i1, i2, h = _shell_pairs(spec, xi1[lo : lo + rows], r1[lo : lo + rows], xi2, r2)
        n_pairs += len(i1)
        # past the cap only the count matters, for the message
        if n_pairs <= lattice.max_support:
            kept.append((i1 + lo, i2, h))
    if not n_pairs:
        return empty
    if n_pairs > lattice.max_support:
        raise SupportCapExceeded(f"{n_pairs} shell pairs exceed max_support")
    i1, i2, h_vals = (np.concatenate(parts) for parts in zip(*kept))
    del kept

    tau1_axis = _tau_axis(spec.l1, spec.n1, lattice.tau_step)
    tau2_axis = _tau_axis(spec.l2, spec.n2, lattice.tau_step)
    hits_p, hits_t1, hits_t2 = [], [], []
    total = 0
    chunk = max(1, CHUNK_ELEMENTS // max(len(tau1_axis), len(tau2_axis)))
    for lo in range(0, n_pairs, chunk):
        h = h_vals[lo : lo + chunk]
        lam1, idx1, ok1 = _modulation_cut(
            tau1_axis[None, :] + s[0] * r1[i1[lo : lo + chunk], None], spec.l1
        )
        lam2, idx2, ok2 = _modulation_cut(
            tau2_axis[None, :] + s[1] * r2[i2[lo : lo + chunk], None], spec.l2
        )
        sub = max(1, CHUNK_ELEMENTS // max(1, idx1.shape[1] * idx2.shape[1]))
        for a in range(0, len(lam1), sub):
            b = a + sub
            lam3 = h[a:b, None, None] - lam1[a:b, :, None] - lam2[a:b, None, :]
            mask = ok1[a:b, :, None] & ok2[a:b, None, :]
            mask &= _bracket_shell(lam3, spec.l3)
            ip, j1, j2 = np.nonzero(mask)
            if not len(ip):
                continue
            total += len(ip)
            if total > lattice.max_support:
                raise SupportCapExceeded(
                    f"block support exceeds max_support = {lattice.max_support}"
                )
            ip += a
            hits_p.append(ip + lo)
            hits_t1.append(idx1[ip, j1])
            hits_t2.append(idx2[ip, j2])
    if not total:
        return empty
    # h views h_vals; the other names hold the last chunk's arrays
    del h_vals, h, lam1, idx1, ok1, lam2, idx2, ok2, lam3, mask, ip, j1, j2

    ip = np.concatenate(hits_p)
    del hits_p
    p1 = np.empty((total, 3))
    p2 = np.empty((total, 3))
    p1[:, :2] = xi1[i1[ip]]
    p2[:, :2] = xi2[i2[ip]]
    del ip, i1, i2
    p1[:, 2] = tau1_axis[np.concatenate(hits_t1)]
    del hits_t1
    p2[:, 2] = tau2_axis[np.concatenate(hits_t2)]
    del hits_t2
    p3 = np.add(p1, p2)
    np.negative(p3, out=p3)
    return Gamma3Multiplier(p1, p2, p3, np.ones(total))


def _classify(spec: DyadicBlockSpec) -> str:
    if tuple(spec.signs) == (1, 1, 1):
        return PLUS_PLUS_PLUS
    ns = (spec.n1, spec.n2, spec.n3)
    ls = (spec.l1, spec.l2, spec.l3)
    # same-sign pair on top: both + slots at least as large as the - slot
    if min(ns[0], ns[1]) >= ns[2]:
        return HIGH_PARALLEL
    # mixed pair on top; the low + slot may carry the coherent modulation
    low = 0 if ns[0] <= ns[1] else 1
    high = 1 - low
    if spec.h / 4 <= ls[low] <= 4 * spec.h and ls[low] >= 4 * max(
        ls[high], ls[2], ns[low] ** 2
    ):
        return COHERENT
    return GENERIC


def block_bound(spec: DyadicBlockSpec) -> tuple[str, float]:
    """Case label plus the sharp block-norm bound for that case."""
    n_min, n_med, n_max = spec.n_sorted
    l_min, l_med, l_max = spec.l_sorted
    h = spec.h
    base = math.sqrt(l_min) * n_max**-0.5 * n_min**0.5
    case = _classify(spec)
    if case in (PLUS_PLUS_PLUS, HIGH_PARALLEL):
        value = base * math.sqrt(min(n_max * n_min, l_med))
    elif case == COHERENT:
        value = base * math.sqrt(min(h, h * l_med / n_min**2))
    else:
        value = base * math.sqrt(min(h, l_med)) * math.sqrt(min(1.0, h / n_min**2))
    return case, value


def check_block_bounds(
    specs,
    lattice: BlockLattice | None = None,
    restarts: int = 6,
    iters: int = 60,
    seed: int = 0,
) -> dict:
    """Estimate each block norm and compare with its case bound.

    C* is the smallest single constant with estimate <= C* * bound over the
    sweep (i.e. the max ratio); c_fit is the geometric mean ratio, a robust
    center to measure spread against. The estimates are lower bounds; each
    row's ``upper`` is the certified upper_3Z_bound, and c_star_upper the
    max of upper / bound, so the sweep's true constant lies in
    [c_star, c_star_upper]. Raises ValueError unless some spec has a
    nonempty support, and when an estimate exceeds its upper bound by more
    than 1e-12 relative.
    """
    if lattice is None:
        lattice = BlockLattice()
    rows = []
    for k, spec in enumerate(specs):
        if not spec.is_admissible:
            raise ValueError(f"spec #{k} violates the vanishing conditions")
        m = block_multiplier(spec, lattice)
        case, bound = block_bound(spec)
        est = estimate_3Z_norm(m, restarts=restarts, iters=iters, seed=seed + k)
        upper = upper_3Z_bound(m)
        if est > upper * (1 + 1e-12):
            raise ValueError(
                f"spec #{k}: estimate {est!r} exceeds the upper bound {upper!r}"
            )
        rows.append(
            {
                "spec": spec,
                "case": case,
                "support": m.size,
                "estimate": est,
                "upper": upper,
                "bound": bound,
                "ratio": est / bound,
            }
        )
        # the next spec's enumeration must not overlap this multiplier
        del m
    ratios = [r["ratio"] for r in rows if r["support"] > 0]
    if not ratios:
        raise ValueError("check_block_bounds needs at least one spec with a nonempty support")
    c_star = max(ratios)
    # an empty support's upper bound is 0, so it cannot raise the max
    c_star_upper = max(r["upper"] / r["bound"] for r in rows)
    c_fit = float(np.exp(np.mean(np.log(ratios))))
    return {"rows": rows, "c_star": c_star, "c_star_upper": c_star_upper, "c_fit": c_fit}


def sample_block_specs(case: str, count: int, seed: int = 0, lattice=None):
    """Draw admissible specs of the requested case with nonempty support.

    Candidates whose support would exceed a probe cap (60k points, or the
    lattice's own cap if smaller) are redrawn: gigantic blocks add nothing to
    a bound sweep but dominate its runtime. Only SupportCapExceeded means
    "redraw"; any other error from the enumeration propagates. The probe goes
    through the module-level name ``block_multiplier``, so wrapping that name
    counts every probe. Raises SupportCapExceeded when the sampler stalls
    and every candidate it probed hit the cap, RuntimeError on other stalls.
    """
    if lattice is None:
        lattice = BlockLattice()
    probe = BlockLattice(
        lattice.xi_step, lattice.tau_step, min(lattice.max_support, 60_000)
    )
    rng = np.random.default_rng(seed)
    out = []
    guard = probed = capped = 0
    while len(out) < count:
        guard += 1
        if guard > 200 * count:
            if probed and capped == probed:
                raise SupportCapExceeded(
                    f"every probed {case!r} candidate exceeds the support cap "
                    f"min(max_support, 60000) = {probe.max_support}"
                )
            raise RuntimeError(f"sampler stalled for case {case!r}")
        spec = _draw_spec(case, rng)
        if spec is None or not spec.is_admissible:
            continue
        got, _ = block_bound(spec)
        if got != case:
            continue
        probed += 1
        try:
            if block_multiplier(spec, probe).is_empty:
                continue
        except SupportCapExceeded:
            capped += 1
            continue
        out.append(spec)
    return out


def _dyadic_choice(rng, lo_exp: int, hi_exp: int) -> float:
    return float(2.0 ** rng.integers(lo_exp, hi_exp + 1))


def _draw_modulations(rng, h: float):
    """Two small modulation shells and a top one at least max(l_med, h), shuffled."""
    l_small = sorted(_dyadic_choice(rng, 0, 2) for _ in range(2))
    l_top = max(l_small[1], h) * rng.choice([1.0, 2.0])
    return rng.permutation([l_small[0], l_small[1], l_top])


def _draw_spec(case: str, rng):
    if case == PLUS_PLUS_PLUS:
        n_hi = _dyadic_choice(rng, 1, 2)
        ns = rng.permutation([n_hi, n_hi, _dyadic_choice(rng, 0, int(math.log2(n_hi)))])
        h = n_hi**2 * _dyadic_choice(rng, 0, 1)
        ls = _draw_modulations(rng, h)
        return DyadicBlockSpec(*ns, *ls, h, signs=(1, 1, 1))
    if case == HIGH_PARALLEL:
        n_hi = _dyadic_choice(rng, 1, 2)
        ns = [n_hi, n_hi * rng.choice([0.5, 1.0]), 0.0]
        ns[2] = _dyadic_choice(rng, 0, int(math.log2(min(ns[0], ns[1]))))
        h = _dyadic_choice(rng, 1, int(math.log2(2 * n_hi * n_hi)))
        ls = _draw_modulations(rng, h)
        return DyadicBlockSpec(*ns, *ls, h, signs=(1, 1, -1))
    if case == COHERENT:
        n_hi = _dyadic_choice(rng, 1, 2)
        low = int(rng.integers(0, 2))
        ns = [0.0, 0.0, n_hi]
        ns[1 - low] = n_hi
        ns[low] = 1.0
        h = _dyadic_choice(rng, 3, 4)
        ls = [0.0, 0.0, 0.0]
        ls[low] = h
        ls[1 - low] = _dyadic_choice(rng, 0, 1)
        ls[2] = _dyadic_choice(rng, 0, 1)
        return DyadicBlockSpec(*ns, *ls, h, signs=(1, 1, -1))
    if case == GENERIC:
        n_hi = _dyadic_choice(rng, 1, 2)
        low = int(rng.integers(0, 2))
        ns = [0.0, 0.0, n_hi]
        ns[1 - low] = n_hi * rng.choice([0.5, 1.0])
        ns[low] = _dyadic_choice(rng, 0, 1)
        if max(ns) > 4 * sorted(ns)[1]:
            return None
        h = _dyadic_choice(rng, 0, 2)
        ls = _draw_modulations(rng, h)
        return DyadicBlockSpec(*ns, *ls, h, signs=(1, 1, -1))
    raise ValueError(f"unknown case {case!r}")
