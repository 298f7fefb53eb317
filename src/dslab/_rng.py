"""Deterministic per-mode hashing for reproducible random fields.

Phases are derived from a splitmix64-style hash of (seed, mode pair), not
from a sequential generator, so a mode keeps its value when the grid is
refined.  Refinement studies rely on this nesting.
"""
from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, written into z when z is an array."""
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def hash_u64(seed: int, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """64-bit hash of (seed, k1, k2), vectorized over integer arrays that
    broadcast: a column k1 and a row k2 hash the whole lattice."""
    a = np.asarray(k1, dtype=np.int64).astype(np.uint64)
    b = np.asarray(k2, dtype=np.int64).astype(np.uint64)
    with np.errstate(over="ignore"):  # wraparound is the point
        s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA
        return _mix(_mix(_mix(s + _GAMMA * a) + _GAMMA * b))


def uniform_phases(seed: int, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Uniform phases in [0, 2*pi) keyed by (seed, mode pair)."""
    h = hash_u64(seed, k1, k2)
    h >>= np.uint64(11)
    phases = h.astype(np.float64)
    phases *= 2.0 * np.pi / 2**53
    return phases
