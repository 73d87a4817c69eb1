"""Scalar driving noise: reproducible Brownian paths with exact refinement.

All randomness flows through one counter-based generator (Philox) keyed by a
splitmix64-style mixing of (seed, stream tags). Splitting is pure arithmetic,
so any path, refinement level, or ensemble member can be regenerated from
integers alone; a snapshot only needs (seed, step) to resume a run exactly.

Refinement works bottom-up. A generated path is the top of REFINE_DEPTH
dyadic levels drawn from its seed, and every coarser level is defined as the
pairwise floating-point sum of the level beneath it. A path stores only its
own level; each refine() call redraws the deepest level from the seed and
folds it one round less, so "coarse increment == sum of its two halves"
holds bitwise at every level by construction. Inserting bridge midpoints
top-down cannot give that: when the midpoint offset dwarfs a small coarse
increment, the rounded pair sum misses the stored coarse value by an amount
below one ulp of the halves, which no adjustment of the halves can repair.
A finer level redrawn from the seed has the same law as bridge insertion and
sidesteps the problem entirely.
"""
from __future__ import annotations

import math

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

# Coarse steps whose deepest-level normals are drawn and folded at once;
# bounds the draw's working memory without changing any bit of the result.
# Do not shrink it without a replacement: a long path's 512 KiB draw
# temporaries are freed through munmap, which makes glibc raise its dynamic
# mmap and trim thresholds before the first step, so an n = 64 step's
# ~165 KiB spectral temporaries then stay on the heap. At 1 << 6 the
# thresholds stay at 128 KiB, and every step maps and faults those
# temporaries in again: one unit of perfbench's long_path_n64 took 387 k
# minor faults instead of 7.1 k, with the same output bits. Fixed
# thresholds (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD) would remove this
# dependence.
DRAW_CHUNK = 1 << 10


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


def _check_dt(dt: float):
    # the chained comparison also rejects NaN
    if not 0.0 < dt < math.inf:
        raise ValueError(f"noise path needs a positive finite dt, got {dt}")


def _check_seed(seed: int):
    # derive_key keeps 64 bits, so a seed outside would replay one inside
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"noise path seed must lie in [0, 2^64), got {seed}")


def _fold(fine: np.ndarray, times: int) -> np.ndarray:
    """Coarsen by pairwise sums, one dyadic level per round."""
    out = fine
    for _ in range(times):
        out = out[0::2] + out[1::2]
    return out


def _draw(seed: int, dt: float, n_steps: int, folds: int) -> np.ndarray:
    """Increments of generate(seed, dt, n_steps) refined REFINE_DEPTH - folds times.

    The deepest level holds 2^REFINE_DEPTH normals of variance
    dt / 2^REFINE_DEPTH per step, and ``folds`` pairwise-sum rounds coarsen
    it. Normals are drawn DRAW_CHUNK steps at a time and folded as they
    come: one generator read in pieces yields the same stream as one read,
    and no pair straddles a chunk edge, so the bits equal one draw folded
    whole.
    """
    per_step = 1 << REFINE_DEPTH
    gen = np.random.Generator(np.random.Philox(key=derive_key(seed, TAG_NOISE, 0)))
    scale = np.sqrt(dt / per_step)
    shift = REFINE_DEPTH - folds
    out = np.empty(n_steps << shift)
    for start in range(0, n_steps, DRAW_CHUNK):
        stop = min(start + DRAW_CHUNK, n_steps)
        z = gen.standard_normal((stop - start) * per_step)
        out[start << shift:stop << shift] = _fold(scale * z, folds)
    return out


class NoisePath:
    """One realization of scalar Brownian increments on a uniform time grid.

    ``increments[m]`` is W(t_{m+1}) - W(t_m) with t_m = m * dt; ``w`` holds
    the running sums with w[0] = 0. ``level`` counts how many refine() calls
    produced this grid from the originally generated one.

    A path holds nothing but these arrays and the (seed, dt, level) that
    regenerate them: refine() redraws the finer level from the seed. A path
    built from increments that are not the draw of its seed has nothing
    finer and cannot be refined.
    """

    def __init__(self, seed: int, dt: float, level: int, increments):
        _check_seed(seed)
        _check_dt(dt)
        if not 0 <= level <= REFINE_DEPTH:
            raise ValueError(f"noise path level must lie in [0, {REFINE_DEPTH}], got {level}")
        increments = np.asarray(increments, dtype=np.float64)
        if increments.ndim != 1 or len(increments) == 0:
            raise ValueError(
                f"noise increments must be a nonempty 1-D array, got shape {increments.shape}"
            )
        self.seed = seed
        self.dt = dt
        self.level = level
        self.increments = increments
        self.w = np.concatenate(([0.0], np.cumsum(self.increments)))

    @property
    def n_steps(self) -> int:
        return len(self.increments)

    @classmethod
    def generate(cls, seed: int, dt: float, n_steps: int) -> "NoisePath":
        _check_seed(seed)  # before the draw, which would mask it to 64 bits
        _check_dt(dt)  # and takes sqrt(dt)
        if n_steps < 1:
            raise ValueError("noise path needs at least one step")
        return cls(seed, dt, 0, _draw(seed, dt, n_steps, REFINE_DEPTH))

    def refine(self) -> "NoisePath":
        """Halve dt by redrawing the next dyadic level from the seed.

        The result's pairwise increment sums reproduce this path's
        increments exactly (same floating-point additions that defined
        them), so refined paths are drop-in replacements in comparisons
        against the coarse run.
        """
        depth_left = REFINE_DEPTH - self.level
        if depth_left == 0:
            raise ValueError(f"refinement depth exhausted ({REFINE_DEPTH} levels)")
        up = 1 << self.level  # back to the generated grid
        fine = _draw(self.seed, self.dt * up, self.n_steps // up, depth_left - 1)
        if not np.array_equal(fine[0::2] + fine[1::2], self.increments):
            raise ValueError("increments are not the draw of this seed; nothing finer")
        return NoisePath(self.seed, 0.5 * self.dt, self.level + 1, fine)
