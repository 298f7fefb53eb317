"""Multilinear multiplier norms on convolution hyperplanes.

A [k;Z] norm is the best constant in |sum_Gamma m prod f_j| <= C prod ||f_j||
with counting measure on the hyperplane sum(zeta_j) = 0. Exact evaluation is
an injective tensor norm (NP-hard for k >= 3), so k = 3 is estimated from
below by alternating maximization over the three test functions, and
upper_3Z_bound brackets it from above. For k = 2 the norm is exact (the
largest singular value, norm_2Z); with ttstar_pair it checks the TT*
identity, acceptance criterion 8, and anchors nothing in the k = 3 engine.

Each slot update of the estimator costs one gather (the updated test
function onto the support rows, kept until it changes again), one product
(the row weights, values times the other two gathered functions) and one
np.add.at into a complex zero vector (the partial contraction, summed per
label in row order). When every value is exactly 1, as on every dyadic
block, the values drop out of the product; the sums keep their bits either
way. upper_3Z_bound gives the matching certified upper bound, min over
slots of the largest per-label l2 mass of the multiplier.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ALS_TOL = 1e-8  # an ALS restart stops once a sweep moves its estimate by less, relative


@dataclass
class Gamma3Multiplier:
    """Sparse multiplier on the k = 3 hyperplane, one row per support point.

    points_j holds (xi_j1, xi_j2, tau_j) per entry; rows must satisfy
    sum_j points_j = 0. Labels index the distinct argument values seen by
    each slot, which is all the alternating optimizer needs.
    """

    points1: np.ndarray
    points2: np.ndarray
    points3: np.ndarray
    values: np.ndarray
    labels: tuple = field(init=False, repr=False)
    slot_sizes: tuple = field(init=False)

    def __post_init__(self) -> None:
        pts = (self.points1, self.points2, self.points3)
        n = len(self.values)
        for p in pts:
            if p.shape != (n, 3):
                raise ValueError("points arrays must be (n, 3)")
        if not all(np.isfinite(a).all() for a in (*pts, self.values)):
            raise ValueError("points and values must be finite")
        if n:
            # one buffer, the same left-to-right sums as p1 + p2 + p3
            closure = pts[0] + pts[1]
            closure += pts[2]
            np.abs(closure, out=closure)
            if np.max(closure) > 1e-9:
                raise ValueError("support must lie on the zero-sum hyperplane")
            del closure
        labels, sizes = zip(*(_slot_labels(p) for p in pts))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "slot_sizes", sizes)

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def is_empty(self) -> bool:
        return self.size == 0


def _slot_labels(points: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank of each row among the distinct rows after rounding to 1e-9, and
    the number of distinct rows.

    One lexsort over the rounded columns (column 0 the primary key) and a
    cumulative count of run starts, found one sorted column at a time so
    no sorted copy of all three is held; the ranks equal the inverse
    indices of np.unique(axis=0), which orders rows the same way and also
    equates -0.0 with 0.0.
    """
    rounded = points.round(decimals=9)
    order = np.lexsort(rounded.T[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for column in rounded.T:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    del rounded, ordered
    ranks = np.cumsum(starts)
    ranks -= 1
    labels = np.empty(len(order), dtype=np.int64)
    labels[order] = ranks
    return labels, int(ranks[-1]) + 1 if len(ranks) else 0


def _contract(labels, size, weights) -> np.ndarray:
    """Partial contraction of the form against two fixed test functions.

    weights holds, per row, the multiplier value times the other two test
    functions on that row's labels. np.add.at sums each label's rows into
    its bin in row order, starting from 0.0, the real and imaginary parts
    apart: the same sums, to the last bit, as one bincount per part.
    """
    sums = np.zeros(size, dtype=np.complex128)
    np.add.at(sums, labels, weights)
    return sums


def _als_run(labels, sizes, values_c, fs, iters: int) -> float:
    """One restart of the alternating maximization, updating fs in place.

    g[k] is fs[k] gathered onto the support rows, refreshed once right after
    fs[k] changes; vg[k] is values_c * g[k], or g[k] itself when values_c is
    None (unit values). Slot j's row weight vg[j1] * g[j2] is the product
    values * f_j1 * f_j2 in that order, so the sums match a loop that
    gathers both test functions on every update, to the last bit.
    """

    def gather(k):
        g[k] = fs[k][labels[k]]
        vg[k] = g[k] if values_c is None else values_c * g[k]

    g, vg = [None] * 3, [None] * 3
    for k in range(3):
        gather(k)
    best = 0.0
    for _ in range(iters):
        previous = best
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            t = _contract(labels[j], sizes[j], vg[j1] * g[j2])
            norm = np.linalg.norm(t)
            if norm == 0.0:
                return best
            fs[j] = np.conj(t) / norm
            gather(j)
            best = norm
        if abs(best - previous) <= ALS_TOL * max(best, 1e-300):
            break
    return float(best)


def estimate_3Z_norm(
    m: Gamma3Multiplier,
    restarts: int = 16,
    iters: int = 200,
    seed: int = 0,
    workers: int = 1,
) -> float:
    """Lower-bound estimate of the [3;Z] norm by alternating maximization.

    With two slots fixed the optimal third is the normalized conjugate
    partial contraction, so each sweep is monotone; restarts guard the
    nonconvexity. Includes one deterministic all-ones start. The restarts
    run one after another; workers is accepted and ignored, and goes with
    the benchmark probe that passes it (ROADMAP item 3).
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if m.is_empty:
        return 0.0
    rng = np.random.default_rng(seed)
    # (1 + 0j) * z == z up to the sign of exact zeros, which no norm sees
    values_c = None if np.all(m.values == 1.0) else m.values.astype(np.complex128)
    best = 0.0
    for r in range(restarts):
        if r == 0:
            fs = [np.ones(n, dtype=np.complex128) / np.sqrt(n) for n in m.slot_sizes]
        else:
            fs = []
            for n in m.slot_sizes:
                f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                fs.append(f / np.linalg.norm(f))
        best = max(best, _als_run(m.labels, m.slot_sizes, values_c, fs, iters))
    return best


def upper_3Z_bound(m: Gamma3Multiplier) -> float:
    """Certified upper bound on the [3;Z] norm: min over slots j of
    sqrt(max_l sum of |m|^2 over the rows whose slot-j label is l).

    Cauchy-Schwarz in slot j's label, then in the rows, bounds the form by
    U_j prod ||f_k|| provided the other two labels identify each row; that
    is checked per slot on the sorted pair keys (O(n) memory, unlike a
    bincount over the product of two slot sizes). Raises ValueError on a
    repeated pair, i.e. a duplicated row.
    """
    if m.is_empty:
        return 0.0
    weights = np.abs(m.values) ** 2
    bounds = []
    for j in range(3):
        j1, j2 = (j + 1) % 3, (j + 2) % 3
        key = np.sort(m.labels[j1] * m.slot_sizes[j2] + m.labels[j2])
        if np.any(key[1:] == key[:-1]):
            raise ValueError(
                f"slots {j1} and {j2} repeat a label pair: the support has a duplicated row"
            )
        mass = np.bincount(m.labels[j], weights=weights, minlength=m.slot_sizes[j])
        bounds.append(np.sqrt(mass.max()))
    return float(min(bounds))


def norm_2Z(matrix: np.ndarray) -> float:
    """Exact [2;Z] norm of a dense two-slot multiplier: top singular value."""
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d bilinear form")
    if not np.any(matrix):
        return 0.0
    return float(np.linalg.norm(matrix, 2))


def ttstar_pair(m_values: np.ndarray) -> np.ndarray:
    """Dense form of the two-slot multiplier m(xi1) conj(m(-xi2)) on
    Gamma_2(Z_n), the hyperplane xi2 = -xi1 mod n: |m(i)|^2 at (i, -i mod n),
    zero elsewhere."""
    m_values = np.asarray(m_values)
    n = len(m_values)
    rows = np.arange(n)
    form = np.zeros((n, n), dtype=np.complex128)
    form[rows, (-rows) % n] = m_values * np.conj(m_values)
    return form
