"""Tests for the periodic grid, field containers, and discrete operators."""
import math

import numpy as np
import pytest

from smcflow.grid import (
    DiffMethod,
    GridSpec,
    ScalarField,
    divergence,
    get_workspace,
    gradient,
    hess_linf_rows,
    hessian,
    integrate,
    l2_norm_sq,
    laplacian,
)

TWO_PI = 2.0 * math.pi


def sine_field(n, kx=1, ky=0, amp=1.0):
    grid = GridSpec(n)
    x1, x2 = grid.nodes()
    return ScalarField(grid, amp * np.sin(TWO_PI * (kx * x1 + ky * x2)))


class TestGridSpec:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="too small"):
            GridSpec(4)

    def test_rejects_odd_grid(self):
        with pytest.raises(ValueError, match="must be even"):
            GridSpec(17)

    def test_spacing(self):
        assert GridSpec(32).h == 1.0 / 32.0

    def test_nodes_layout(self):
        """Axis 0 of the meshes is the x1 direction."""
        grid = GridSpec(8)
        x1, x2 = grid.nodes()
        assert x1.shape == (8, 8)
        assert x1[3, 0] == 3.0 / 8.0
        assert x1[3, 5] == 3.0 / 8.0
        assert x2[0, 3] == 3.0 / 8.0
        assert x2[5, 3] == 3.0 / 8.0


class TestFieldContainers:
    def test_scalar_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            ScalarField(GridSpec(16), np.zeros((16, 8)))

    def test_constant(self):
        c = ScalarField.constant(GridSpec(16), 0.7)
        assert np.all(c.values == 0.7)

    def test_values_coerced_to_float64(self):
        grid = GridSpec(16)
        f = ScalarField(grid, np.ones((16, 16), dtype=np.float32))
        assert f.values.dtype == np.float64

    @pytest.mark.parametrize("shape", [(2, 16, 8), (3, 16, 16), (16, 16)])
    def test_divergence_needs_a_vector_stack(self, shape):
        with pytest.raises(ValueError, match="shape"):
            divergence(np.zeros(shape))

    def test_tensor_linf_sees_off_diagonal(self):
        zero = np.zeros((2, 16, 16))
        big = np.zeros((2, 16, 16))
        big[1, 4, 9] = -3.5
        assert hess_linf_rows(zero, big, zero).tolist() == [0.0, 3.5]


class TestSpectralDerivatives:
    """FFT differentiation is exact on resolved trigonometric modes."""

    def test_gradient_single_mode(self):
        u = sine_field(32, kx=1)
        g = gradient(u)
        x1, _ = u.grid.nodes()
        expected = TWO_PI * np.cos(TWO_PI * x1)
        np.testing.assert_allclose(g[0], expected, atol=1e-12)
        np.testing.assert_allclose(g[1], 0.0, atol=1e-12)

    def test_gradient_mixed_mode(self):
        u = sine_field(32, kx=2, ky=3)
        g = gradient(u)
        x1, x2 = u.grid.nodes()
        c = np.cos(TWO_PI * (2 * x1 + 3 * x2))
        np.testing.assert_allclose(g[0], 2 * TWO_PI * c, atol=1e-11)
        np.testing.assert_allclose(g[1], 3 * TWO_PI * c, atol=1e-11)

    def test_laplacian_single_mode(self):
        u = sine_field(64, kx=3)
        lap = laplacian(u)
        np.testing.assert_allclose(
            lap, -((3 * TWO_PI) ** 2) * u.values, atol=1e-9
        )

    def test_hessian_cross_term(self):
        u = sine_field(32, kx=1, ky=2)
        a11, a12, a22 = hessian(u)
        x1, x2 = u.grid.nodes()
        s = np.sin(TWO_PI * (x1 + 2 * x2))
        np.testing.assert_allclose(a12, -2 * TWO_PI**2 * s, atol=1e-10)
        np.testing.assert_allclose(a11, -(TWO_PI**2) * s, atol=1e-10)
        np.testing.assert_allclose(a22, -4 * TWO_PI**2 * s, atol=1e-10)

    def test_laplacian_is_hessian_trace(self):
        rng = np.random.default_rng(7)
        grid = GridSpec(32)
        u = ScalarField(grid, rng.standard_normal((32, 32)))
        lap = laplacian(u)
        a11, _, a22 = hessian(u)
        np.testing.assert_allclose(lap, a11 + a22, rtol=0, atol=1e-9)

    def test_div_grad_equals_laplacian(self):
        """Identity holds on Nyquist-free data; first derivatives drop that mode."""
        rng = np.random.default_rng(11)
        grid = GridSpec(32)
        ws = get_workspace(32)
        coeffs = ws.forward(rng.standard_normal((32, 32)))
        coeffs[16, :] = 0.0
        coeffs[:, -1] = 0.0
        u = ScalarField(grid, ws.inverse(coeffs))
        d = divergence(gradient(u))
        lap = laplacian(u)
        tol = 1e-12 * np.max(np.abs(lap))
        np.testing.assert_allclose(d, lap, atol=tol)

    def test_nyquist_mode_has_zero_gradient(self):
        """The sawtooth (-1)^i carries no usable odd derivative; it is dropped."""
        grid = GridSpec(16)
        i = np.arange(16)
        u = ScalarField(grid, ((-1.0) ** i)[:, None] * np.ones((1, 16)))
        g = gradient(u)
        np.testing.assert_allclose(g[0], 0.0, atol=1e-13)
        np.testing.assert_allclose(g[1], 0.0, atol=1e-13)


class TestCentralDifferences:
    def test_gradient_second_order(self):
        errs = []
        for n in (32, 64):
            u = sine_field(n, kx=1)
            g = gradient(u, DiffMethod.CENTRAL2)
            x1, _ = u.grid.nodes()
            errs.append(np.max(np.abs(g[0] - TWO_PI * np.cos(TWO_PI * x1))))
        order = math.log2(errs[0] / errs[1])
        assert order > 1.9

    def test_laplacian_second_order(self):
        errs = []
        for n in (32, 64):
            u = sine_field(n, kx=1, ky=1)
            lap = laplacian(u, DiffMethod.CENTRAL2)
            errs.append(np.max(np.abs(lap + 2 * TWO_PI**2 * u.values)))
        order = math.log2(errs[0] / errs[1])
        assert order > 1.9

    def test_hessian_trace_matches_laplacian(self):
        u = sine_field(32, kx=2, ky=1)
        a11, _, a22 = hessian(u, DiffMethod.CENTRAL2)
        lap = laplacian(u, DiffMethod.CENTRAL2)
        np.testing.assert_allclose(a11 + a22, lap, atol=1e-10)


class TestImplicitSolve:
    """The em_imex solve divides each Fourier mode by 1 - dt * symbol(A)."""

    @staticmethod
    def solve(u, dt, c, eta, big_k):
        ws = get_workspace(u.grid.n)
        denom = 1.0 - dt * ws.linear_sym(c, eta, big_k)
        return ws.inverse(ws.forward(u.values) / denom)

    def test_single_mode_amplitude(self):
        u = sine_field(32, kx=1)
        dt, c, eta, big_k = 1e-3, 1.1, 1e-4, 2
        lam = -(TWO_PI**2)  # Laplacian symbol at |k| = 1
        denom = 1.0 - dt * (c * lam - eta * lam ** (2 * big_k))
        out = self.solve(u, dt, c, eta, big_k)
        np.testing.assert_allclose(out, u.values / denom, atol=1e-14)

    def test_mean_passes_through(self):
        u = ScalarField.constant(GridSpec(16), 2.25)
        np.testing.assert_allclose(self.solve(u, 0.01, 1.3, 1e-2, 3), 2.25, atol=1e-14)


class TestQuadrature:
    def test_integrate_kills_pure_modes(self):
        u = sine_field(32, kx=1)
        assert abs(integrate(u)) < 1e-15

    def test_integrate_constant(self):
        assert integrate(ScalarField.constant(GridSpec(16), -1.5)) == pytest.approx(
            -1.5, abs=1e-15
        )

    def test_inner_orthogonality(self):
        grid = GridSpec(32)
        x1, _ = grid.nodes()
        s = np.sin(TWO_PI * x1)
        c = np.cos(TWO_PI * x1)
        assert abs(integrate(ScalarField(grid, s * c))) < 1e-15
        # discrete orthogonality makes \int sin^2 exactly 1/2
        assert l2_norm_sq(ScalarField(grid, s)) == pytest.approx(0.5, abs=1e-14)


class TestWorkspace:
    def test_cached_per_size(self):
        assert get_workspace(32) is get_workspace(32)
        assert get_workspace(32) is not get_workspace(64)

    def test_symbol_signs(self):
        ws = get_workspace(16)
        assert ws.lap_sym[0, 0] == 0.0
        assert np.all(ws.lap_sym <= 0.0)
        # -Delta^(2K) has the symbol -lambda^(2K) <= 0
        assert np.all(ws.linear_sym(0.0, 1.0, 2) <= 0.0)

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
    def test_transforms_equal_numpy_fft_bitwise(self, n):
        # forward/inverse call numpy's private pocketfft kernels; a numpy
        # release that changes them must fail here rather than move a bit
        ws = get_workspace(n)
        rng = np.random.default_rng(n)
        u = rng.standard_normal((4, n, n))
        wh = np.fft.rfft2(rng.standard_normal((5, 4, n, n))) * (1.0 + 0.5j)

        def same(a, b):
            return a.dtype == b.dtype and a.strides == b.strides and a.tobytes() == b.tobytes()

        # whole arrays, then views that are not contiguous
        for values in (u[0], u, u[::2], u[:, 1:3], u.swapaxes(-1, -2)):
            assert same(ws.forward(values), np.fft.rfft2(values))
        for coeffs in (wh[0, 0], wh[0], wh, wh[:, 1], wh[::2, ::3]):
            assert same(ws.inverse(coeffs), np.fft.irfft2(coeffs, s=(n, n)))

    def test_gradient_rejects_nan(self):
        grid = GridSpec(16)
        vals = np.zeros((16, 16))
        vals[3, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            gradient(ScalarField(grid, vals))


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
