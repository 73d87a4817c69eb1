"""Tests for the scalar Wiener path: keyed generation, refinement, exactness."""
import math
import tracemalloc

import numpy as np
import pytest

from smcflow.noise import (
    DRAW_CHUNK,
    NoisePath,
    REFINE_DEPTH,
    TAG_NOISE,
    derive_key,
    path_seed,
)


class TestKeyDerivation:
    def test_golden_keys(self):
        # frozen values; any change here silently reshuffles every study
        assert derive_key(0) == 0x0
        assert derive_key(0, 1) == 0x6E789E6AA1B965F4
        assert derive_key(12345, TAG_NOISE, 0) == 0x4DC9DB128D820296

    def test_golden_path_seeds(self):
        assert path_seed(0, 0) == 0x6CA8FBFD73D06B2F
        assert path_seed(0, 1) == 0x6567B37DBF653D89
        assert path_seed(42, 7) == 0x4D637CD4902544D8

    def test_keys_fit_in_64_bits(self):
        for base in (0, 1, 2**63, 2**64 - 1):
            for idx in (0, 1, 999):
                assert 0 <= path_seed(base, idx) < 2**64

    def test_distinct_streams(self):
        keys = {path_seed(7, i) for i in range(1000)}
        assert len(keys) == 1000


class TestGenerate:
    def test_golden_increments(self):
        p = NoisePath.generate(12345, 1e-3, 4)
        assert [v.hex() for v in p.increments] == [
            "-0x1.1fbf6b69f7619p-6",
            "0x1.9c8654c4ef154p-6",
            "-0x1.85c3a0e20f120p-6",
            "-0x1.34c0a20954b0cp-6",
        ]

    def test_shape_and_anchoring(self):
        p = NoisePath.generate(3, 1e-2, 50)
        assert p.dt == 1e-2
        assert p.level == 0
        assert p.increments.shape == (50,)
        assert p.w.shape == (51,)
        assert p.w[0] == 0.0
        np.testing.assert_array_equal(p.w[1:], np.cumsum(p.increments))

    def test_bit_reproducible(self):
        a = NoisePath.generate(99, 5e-4, 32)
        b = NoisePath.generate(99, 5e-4, 32)
        np.testing.assert_array_equal(a.increments, b.increments)
        np.testing.assert_array_equal(a.w, b.w)

    def test_seed_sensitivity(self):
        a = NoisePath.generate(99, 5e-4, 32)
        b = NoisePath.generate(100, 5e-4, 32)
        assert not np.array_equal(a.increments, b.increments)

    def test_increment_statistics(self):
        # pooled over 200 streams: variance within 6 sigma of dt
        dt, n = 1e-3, 64
        pooled = np.concatenate(
            [NoisePath.generate(path_seed(2024, i), dt, n).increments for i in range(200)]
        )
        var = pooled.var(ddof=1)
        m = pooled.size
        assert abs(var - dt) <= 6.0 * dt * math.sqrt(2.0 / (m - 1))
        assert abs(pooled.mean()) <= 6.0 * math.sqrt(dt / m)

    def test_quadratic_variation(self):
        dt, n = 1e-3, 1000
        qv = np.array(
            [
                np.sum(NoisePath.generate(path_seed(5, i), dt, n).increments ** 2)
                for i in range(100)
            ]
        )
        t_final = dt * n
        # E[QV] = T, Var[QV] = 2 T dt per path
        se = math.sqrt(2.0 * t_final * dt / 100)
        assert abs(qv.mean() - t_final) <= 6.0 * se

    def test_cross_stream_independence(self):
        a = NoisePath.generate(path_seed(11, 0), 1e-3, 4000).increments
        b = NoisePath.generate(path_seed(11, 1), 1e-3, 4000).increments
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 6.0 / math.sqrt(4000)


class TestRefine:
    def test_halves_dt_and_doubles_count(self):
        p = NoisePath.generate(1, 1e-3, 16)
        f = p.refine()
        assert f.dt == 5e-4
        assert f.level == 1
        assert f.increments.shape == (32,)
        assert f.w[0] == 0.0

    def test_pair_sums_exact(self):
        # the central contract: coarse increments are the floating-point sums
        # of the fine pairs, bit for bit, at every level
        p = NoisePath.generate(7, 2e-3, 25)
        for _ in range(REFINE_DEPTH):
            f = p.refine()
            np.testing.assert_array_equal(
                f.increments[0::2] + f.increments[1::2], p.increments
            )
            p = f

    def test_depth_exhaustion_raises(self):
        p = NoisePath.generate(7, 2e-3, 4)
        for _ in range(REFINE_DEPTH):
            p = p.refine()
        with pytest.raises(ValueError, match="refinement depth exhausted"):
            p.refine()

    def test_raw_increment_path_cannot_refine(self):
        p = NoisePath(0, 1e-3, 0, np.zeros(8))
        with pytest.raises(ValueError, match="nothing finer"):
            p.refine()

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.inf, math.nan])
    def test_bad_dt_is_rejected(self, dt):
        with pytest.raises(ValueError, match="positive finite dt"):
            NoisePath(0, dt, 0, np.zeros(4))
        with pytest.raises(ValueError, match="positive finite dt"):
            NoisePath.generate(0, dt, 4)

    @pytest.mark.parametrize("seed", [2**64 + 5, 2**64, -1])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        # keys hold 64 bits: 2^64 + 5 would replay seed 5, -1 seed 2^64 - 1
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            NoisePath.generate(seed, 1e-3, 8)
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            NoisePath(seed, 1e-3, 0, np.zeros(4))

    def test_seed_range_ends_are_accepted(self):
        top = NoisePath.generate(2**64 - 1, 1e-3, 8)
        assert not np.array_equal(top.increments, NoisePath.generate(0, 1e-3, 8).increments)
        assert top.refine().n_steps == 16

    @pytest.mark.parametrize("level", [-1, REFINE_DEPTH + 1, 9])
    def test_level_out_of_range_is_rejected(self, level):
        with pytest.raises(ValueError, match="level must lie in"):
            NoisePath(0, 1e-3, level, np.zeros(4))

    @pytest.mark.parametrize("increments", [np.zeros(0), np.zeros((2, 4)), 0.5])
    def test_empty_or_multidimensional_increments_are_rejected(self, increments):
        with pytest.raises(ValueError, match="nonempty 1-D array"):
            NoisePath(0, 1e-3, 0, increments)

    def test_refinement_preserves_endpoint(self):
        p = NoisePath.generate(13, 1e-3, 30)
        f = p.refine().refine()
        assert f.w[-1] == pytest.approx(p.w[-1], abs=1e-12)

    def test_fine_level_statistics(self):
        # each refined increment ~ N(0, dt/2); bridge offsets (d1 - d2)/2
        # must be uncorrelated with the coarse increments
        dt, n = 1e-3, 128
        fine = []
        coarse = []
        for i in range(100):
            p = NoisePath.generate(path_seed(31, i), dt, n)
            f = p.refine()
            fine.append(f.increments)
            coarse.append(p.increments)
        fine = np.concatenate(fine)
        coarse = np.concatenate(coarse)
        var = fine.var(ddof=1)
        assert abs(var - dt / 2) <= 6.0 * (dt / 2) * math.sqrt(2.0 / (fine.size - 1))
        offset = 0.5 * (fine[0::2] - fine[1::2])
        corr = np.corrcoef(offset, coarse)[0, 1]
        assert abs(corr) <= 6.0 / math.sqrt(coarse.size)

    def test_refine_is_deterministic(self):
        a = NoisePath.generate(21, 1e-3, 10).refine()
        b = NoisePath.generate(21, 1e-3, 10).refine()
        np.testing.assert_array_equal(a.increments, b.increments)


class TestTruncated:
    """A path generated for fewer steps is the truncation of a longer one."""

    def test_prefix_bitwise(self):
        p = NoisePath.generate(4, 1e-3, 40)
        t = NoisePath.generate(4, 1e-3, 12)
        np.testing.assert_array_equal(t.increments, p.increments[:12])
        np.testing.assert_array_equal(t.w, p.w[:13])

    def test_truncate_then_refine_commutes(self):
        a = NoisePath.generate(4, 1e-3, 12).refine()
        b = NoisePath.generate(4, 1e-3, 40).refine()
        np.testing.assert_array_equal(a.increments, b.increments[:24])
        assert a.dt == b.dt
        assert a.level == b.level


def one_shot(seed, dt, n_steps, folds):
    """The deepest level in one Philox draw, scaled, then folded."""
    gen = np.random.Generator(np.random.Philox(key=derive_key(seed, TAG_NOISE, 0)))
    out = np.sqrt(dt / (1 << REFINE_DEPTH)) * gen.standard_normal(n_steps << REFINE_DEPTH)
    for _ in range(folds):
        out = out[0::2] + out[1::2]
    return out


class TestChunkedDraw:
    """Drawing in chunks and redrawing on refine() change no bit."""

    @pytest.mark.parametrize(
        "n_steps", [1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 3 * DRAW_CHUNK + 7]
    )
    def test_generate_and_refine_equal_one_draw(self, n_steps):
        p = NoisePath.generate(17, 3e-4, n_steps)
        assert p.increments.tobytes() == one_shot(17, 3e-4, n_steps, REFINE_DEPTH).tobytes()
        f = p.refine().refine()
        assert f.increments.tobytes() == one_shot(17, 3e-4, n_steps, REFINE_DEPTH - 2).tobytes()

    @pytest.mark.parametrize("level", [0, 2])
    def test_altered_increment_cannot_refine(self, level):
        p = NoisePath.generate(5, 1e-3, 20)
        for _ in range(level):
            p = p.refine()
        inc = p.increments.copy()
        inc[7] = np.nextafter(inc[7], np.inf)
        with pytest.raises(ValueError, match="nothing finer"):
            NoisePath(p.seed, p.dt, p.level, inc).refine()

    def test_generate_memory_is_linear_in_steps(self):
        # 100,000 steps hold 1.6 MB of increments and running sums; the
        # deepest level alone would be 51.2 MB
        tracemalloc.start()
        try:
            NoisePath.generate(7, 1e-5, 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
