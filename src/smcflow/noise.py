"""Scalar driving noise: reproducible Brownian paths with exact refinement.

All randomness flows through one counter-based generator (Philox) keyed by a
splitmix64-style mixing of (seed, stream tags). Splitting is pure arithmetic,
so any path, refinement level, or ensemble member can be regenerated from
integers alone; a snapshot only needs (seed, step) to resume a run exactly.

Refinement works bottom-up. A generated path secretly carries increments at
REFINE_DEPTH dyadic levels below the requested grid, and every coarser level
is defined as the pairwise floating-point sum of the level beneath it. Each
refine() call reveals the next stored level, so "coarse increment == sum of
its two halves" holds bitwise at every level by construction. Inserting
bridge midpoints top-down cannot give that: when the midpoint offset dwarfs
a small coarse increment, the rounded pair sum misses the stored coarse
value by an amount below one ulp of the halves, which no adjustment of the
halves can repair. Revealing a pre-drawn finer level has the same law as
bridge insertion and sidesteps the problem entirely.
"""
from __future__ import annotations

import numpy as np

__all__ = ["derive_key", "NoisePath", "path_seed", "REFINE_DEPTH"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Stream tags keep unrelated consumers of the same seed apart.
TAG_NOISE = 0x4E4F4945  # base noise increments
TAG_PATH = 0x50415448   # per-path seeds inside an ensemble
TAG_IC = 0x49435247     # random initial-condition coefficients

# How many times a generated path can be refined. Fixed globally so that
# regeneration from (seed, dt, n_steps) is bit-reproducible no matter who
# asks; a per-call depth would make the same seed yield different paths.
REFINE_DEPTH = 6


def _mix(x: int) -> int:
    """splitmix64 finalizer (Steele, Lea, Flood 2014 constants)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_key(seed: int, *path: int) -> int:
    """Fold integer indices into a 64-bit stream key, splitmix64 style."""
    s = seed & _MASK64
    for p in path:
        s = _mix((s + _GOLDEN * ((p & _MASK64) + 1)) & _MASK64)
    return s


def path_seed(base_seed: int, index: int) -> int:
    """Seed for ensemble member `index`; disjoint from the base stream."""
    return derive_key(base_seed, TAG_PATH, index)


def _normals(key: int, count: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal(count)


def _fold(fine: np.ndarray, times: int) -> np.ndarray:
    """Coarsen by pairwise sums, one dyadic level per round."""
    out = fine
    for _ in range(times):
        out = out[0::2] + out[1::2]
    return out


class NoisePath:
    """One realization of scalar Brownian increments on a uniform time grid.

    ``increments[m]`` is W(t_{m+1}) - W(t_m) with t_m = m * dt; ``w`` holds
    the running sums with w[0] = 0. ``level`` counts how many refine() calls
    produced this grid from the originally generated one.

    Paths built directly from an increments array (rather than generate())
    carry no finer levels and cannot be refined.
    """

    def __init__(self, seed: int, dt: float, level: int, increments, base=None):
        self.seed = seed
        self.dt = dt
        self.level = level
        self.increments = np.asarray(increments, dtype=np.float64)
        self.w = np.concatenate(([0.0], np.cumsum(self.increments)))
        self._base = base  # deepest-level increments, None for handmade paths

    @property
    def n_steps(self) -> int:
        return len(self.increments)

    @classmethod
    def generate(cls, seed: int, dt: float, n_steps: int) -> "NoisePath":
        if dt <= 0.0:
            raise ValueError("noise path needs dt > 0")
        if n_steps < 1:
            raise ValueError("noise path needs at least one step")
        scale = 1 << REFINE_DEPTH
        z = _normals(derive_key(seed, TAG_NOISE, 0), n_steps * scale)
        base = np.sqrt(dt / scale) * z
        return cls(seed, dt, 0, _fold(base, REFINE_DEPTH), base=base)

    def refine(self) -> "NoisePath":
        """Halve dt by revealing the next stored dyadic level.

        The result's pairwise increment sums reproduce this path's
        increments exactly (same floating-point additions that defined
        them), so refined paths are drop-in replacements in comparisons
        against the coarse run.
        """
        if self._base is None:
            raise ValueError("path was built from raw increments; nothing finer is stored")
        depth_left = REFINE_DEPTH - self.level
        if depth_left == 0:
            raise ValueError(f"refinement depth exhausted ({REFINE_DEPTH} levels)")
        return NoisePath(
            self.seed,
            0.5 * self.dt,
            self.level + 1,
            _fold(self._base, depth_left - 1),
            base=self._base,
        )
