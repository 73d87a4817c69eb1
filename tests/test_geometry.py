"""Tests for graph geometry: area density, tilt, curvature, exact identities."""
import math

import numpy as np
import pytest

from smcflow.config import random_smooth_field
from smcflow.geometry import (
    anisotropic_operator,
    cofactor_flux_residual,
    det_dw,
    gauss_bonnet_residual,
    gaussian_curvature,
    geometry_bundle,
    h_profile,
    mcf_operator,
    strat_correction,
)
from smcflow.grid import DiffMethod, GridSpec, ScalarField, divergence, laplacian

TWO_PI = 2.0 * math.pi


def bundles_over_seeds(n=64, seeds=(0, 1, 2, 3), method=DiffMethod.SPECTRAL):
    for seed in seeds:
        u = random_smooth_field(GridSpec(n), seed, 4.0)
        yield geometry_bundle(u, method)


def test_area_density_identities():
    # H = sqrt(1 + |grad u|^2) and H = (1 - |w|^2)^(-1/2) must agree pointwise
    for b in bundles_over_seeds():
        w2 = b.w1**2 + b.w2**2
        assert np.max(np.abs(b.H - (1.0 - w2) ** -0.5)) <= 1e-12
        assert np.all(b.H >= 1.0)
        assert np.max(w2) < 1.0


def test_tilt_magnitude_identity():
    # |w| * H = |grad u|
    for b in bundles_over_seeds():
        gn = np.hypot(b.g1, b.g2)
        wn = np.hypot(b.w1, b.w2)
        assert np.max(np.abs(wn * b.H - gn)) <= 1e-12


def test_projection_determinant():
    # det(Id - w tensor w) = 1 - |w|^2 = 1/H^2
    for b in bundles_over_seeds():
        w1, w2 = b.w1, b.w2
        det = (1.0 - w1 * w1) * (1.0 - w2 * w2) - (w1 * w2) ** 2
        assert np.max(np.abs(det - 1.0 / b.H**2)) <= 1e-12


def test_drift_identity_spectral():
    # (1/2) Lap u + (1/2) H v == Lap u - (1/2) w^T D^2u w pointwise
    for b in bundles_over_seeds():
        lap = b.a11 + b.a22
        lhs = 0.5 * lap + 0.5 * mcf_operator(b)
        rhs = lap - strat_correction(b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_mcf_equals_anisotropic_operator():
    for b in bundles_over_seeds(seeds=(5, 6)):
        gap = np.max(np.abs(mcf_operator(b) - anisotropic_operator(b)))
        assert gap <= 1e-8


def test_strat_correction_single_mode_oracle():
    # u = a sin(2 pi x1): w^T D^2u w = w1^2 uxx with w1 = g/H, g = du/dx1
    a = 0.4
    grid = GridSpec(64)
    x1, _ = grid.nodes()
    u = ScalarField(grid, a * np.sin(TWO_PI * x1))
    b = geometry_bundle(u)
    g = a * TWO_PI * np.cos(TWO_PI * x1)
    uxx = -a * TWO_PI**2 * np.sin(TWO_PI * x1)
    expected = 0.5 * (g**2 / (1.0 + g**2)) * uxx
    assert np.max(np.abs(strat_correction(b) - expected)) <= 1e-10


def test_gaussian_curvature_critical_point():
    # u = sin(2 pi x1) sin(2 pi x2) at (1/4, 1/4): grad u = 0, D^2u = -4pi^2 Id,
    # so K = det D^2u / H^4 = 16 pi^4 there
    grid = GridSpec(64)
    x1, x2 = grid.nodes()
    u = ScalarField(grid, np.sin(TWO_PI * x1) * np.sin(TWO_PI * x2))
    k = gaussian_curvature(geometry_bundle(u))
    assert k[16, 16] == pytest.approx(16.0 * math.pi**4, rel=1e-10)


def test_gaussian_curvature_flat():
    b = geometry_bundle(ScalarField.constant(GridSpec(32), 0.7))
    assert np.all(gaussian_curvature(b) == 0.0)
    assert np.all(det_dw(b) == 0.0)
    assert gauss_bonnet_residual(b) == 0.0


def test_det_dw_matches_curvature_spectral():
    for b in bundles_over_seeds(seeds=(0, 1)):
        gap = np.max(np.abs(gaussian_curvature(b) - det_dw(b)))
        assert gap <= 1e-11


def test_det_dw_matches_curvature_central2_order():
    errs = []
    for n in (32, 64, 128):
        u = random_smooth_field(GridSpec(n), 0, 4.0)
        b = geometry_bundle(u, DiffMethod.CENTRAL2)
        errs.append(np.max(np.abs(gaussian_curvature(b) - det_dw(b))))
    span_order = 0.5 * math.log2(errs[0] / errs[2])
    assert span_order >= 1.8


def test_gauss_bonnet_spectral_small():
    for b in bundles_over_seeds():
        assert abs(gauss_bonnet_residual(b)) <= 1e-12


def test_gauss_bonnet_central2_refinement():
    errs = []
    for n in (32, 64, 128):
        grid = GridSpec(n)
        x1, x2 = grid.nodes()
        u = ScalarField(
            grid,
            0.3 * np.sin(TWO_PI * x1) * np.cos(TWO_PI * x2)
            + 0.2 * np.cos(2 * TWO_PI * x2),
        )
        b = geometry_bundle(u, DiffMethod.CENTRAL2)
        errs.append(abs(gauss_bonnet_residual(b)))
    assert errs[0] > errs[1] > errs[2]
    assert 0.5 * math.log2(errs[0] / errs[2]) >= 1.8


def test_v_is_divergence_of_tilt():
    # v must come from the same differentiation route as the rest of the bundle
    for method in (DiffMethod.SPECTRAL, DiffMethod.CENTRAL2):
        u = random_smooth_field(GridSpec(32), 9, 4.0)
        b = geometry_bundle(u, method)
        again = divergence(np.stack([b.w1, b.w2]), method)
        np.testing.assert_array_equal(b.v, again)


@pytest.mark.parametrize("method", list(DiffMethod))
def test_one_field_pass_is_row_of_batch(method):
    # record_path_sample relies on the one-field pass equalling the batch
    # rows bit for bit: row 0 of a batch of one, and that field's row of a
    # larger batch
    grid = GridSpec(32)
    fields = [random_smooth_field(grid, seed, 4.0) for seed in (7, 8, 9)]
    one = geometry_bundle(fields[1], method)
    of_one = geometry_bundle(fields[1].values[None], method)
    of_three = geometry_bundle(np.stack([f.values for f in fields]), method)
    for name, a, b, c in zip(one._fields, one, of_one, of_three):
        assert a.shape == (32, 32), name
        assert a.tobytes() == b[0].tobytes(), name
        assert a.tobytes() == c[1].tobytes(), name


class TestHProfile:
    def test_golden_value(self):
        # |z| = 0.6: coefficient is (1 - 0.8)/(2 * 0.36) = 0.2/0.72
        h1, h2 = h_profile(np.array([0.6]), np.array([0.0]))
        assert h1[0] == pytest.approx(0.6 * 0.2 / 0.72, abs=1e-15)
        assert h2[0] == 0.0

    def test_origin_and_small_z_limit(self):
        h1, h2 = h_profile(np.array([0.0]), np.array([0.0]))
        assert h1[0] == 0.0 and h2[0] == 0.0
        z = 1e-6
        h1, _ = h_profile(np.array([z]), np.array([0.0]))
        assert h1[0] == pytest.approx(z / 4.0, rel=1e-9)

    def test_branches_agree_at_taylor_cut(self):
        # closed form just above the switch vs Taylor just below: the seam is
        # bounded by the closed form's cancellation noise, ulp(1)/s ~ 2e-8
        lo = np.array([0.99e-4])
        hi = np.array([1.01e-4])
        h_lo, _ = h_profile(lo, np.zeros(1))
        h_hi, _ = h_profile(hi, np.zeros(1))
        assert h_lo[0] / lo[0] == pytest.approx(h_hi[0] / hi[0], abs=1e-8)
        assert h_lo[0] / lo[0] == pytest.approx(0.25, abs=1e-8)

    def test_rejects_unit_tilt(self):
        with pytest.raises(ValueError, match=r"\|z\| < 1"):
            h_profile(np.array([1.0]), np.array([0.0]))

    def test_divergence_is_half_h(self):
        # radial FD of the raw profile: g'(r) + g(r)/r -> (1/2)(1-r^2)^(-1/2)
        r = np.linspace(0.01, 0.9, 4001)
        g, _ = h_profile(r, np.zeros_like(r))
        dg = np.gradient(g, r[1] - r[0])
        target = 0.5 * (1.0 - r * r) ** -0.5
        assert np.max(np.abs((dg + g / r)[5:-5] - target[5:-5])) <= 1e-5


class TestCofactorFlux:
    def test_spectral_residual_small(self):
        u = random_smooth_field(GridSpec(64), 0, 4.0)
        assert cofactor_flux_residual(u) <= 1e-10

    def test_central2_residual_decays(self):
        errs = []
        for n in (32, 64, 128):
            u = random_smooth_field(GridSpec(n), 0, 4.0)
            errs.append(cofactor_flux_residual(u, DiffMethod.CENTRAL2))
        assert errs[0] > errs[1] > errs[2]
        assert 0.5 * math.log2(errs[0] / errs[2]) >= 1.7


def test_laplacian_equals_hessian_trace_in_bundle():
    u = random_smooth_field(GridSpec(32), 4, 4.0)
    b = geometry_bundle(u)
    lap = laplacian(u)
    assert np.max(np.abs(lap - (b.a11 + b.a22))) <= 1e-10


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
