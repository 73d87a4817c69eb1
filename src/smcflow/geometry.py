"""Graph geometry of u: area density, tilt, curvature, and exact identities.

For a graph x3 = u(x1, x2) over the torus the basic quantities are

    H = sqrt(1 + |grad u|^2)        (area density, H >= 1)
    w = grad u / H                  (tilt vector, |w| < 1 pointwise)
    v = div w                       (mean curvature of the graph)

Everything in a :class:`GeometryBundle` is derived from a single gradient
evaluation with one differentiation method, so the members are mutually
consistent; mixing methods between members is structurally impossible.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (
    DiffMethod,
    GridSpec,
    ScalarField,
    SymTensorField,
    VectorField,
    div_central2,
    div_spectral,
    get_workspace,
    grad_central2,
    grad_hess_spectral_hat,
    hess_central2,
    integrate,
)

__all__ = [
    "GeometryBundle",
    "GeometryArrays",
    "geometry_bundle",
    "mcf_operator",
    "anisotropic_operator",
    "strat_correction",
    "gaussian_curvature",
    "det_dw",
    "gauss_bonnet_residual",
    "h_profile",
    "profile_divergence_residual",
    "cofactor_flux_residual",
]

# Below this tilt magnitude h_profile switches to its Taylor form; the closed
# form loses digits to cancellation as |z| -> 0.
_H_PROFILE_TAYLOR_CUT = 1e-4


@dataclass
class GeometryBundle:
    """Geometric state of one field, all members from one method."""

    grid: GridSpec
    method: DiffMethod
    grad: VectorField
    H: ScalarField
    w: VectorField
    v: ScalarField
    hess: SymTensorField
    # dw[i][j] = d w_i / d x_j, stored as four arrays; None unless requested
    dw11: np.ndarray | None = None
    dw12: np.ndarray | None = None
    dw21: np.ndarray | None = None
    dw22: np.ndarray | None = None

    @property
    def has_dw(self) -> bool:
        return self.dw11 is not None


class GeometryArrays(NamedTuple):
    """The members of a geometry pass over a (P, n, n) batch, as bare arrays."""

    g1: np.ndarray
    g2: np.ndarray
    H: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    v: np.ndarray
    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray
    dw11: np.ndarray | None = None
    dw12: np.ndarray | None = None
    dw21: np.ndarray | None = None
    dw22: np.ndarray | None = None


def _geometry_arrays(values: np.ndarray, method: DiffMethod, with_dw: bool) -> GeometryArrays:
    n = values.shape[-1]
    if method is DiffMethod.SPECTRAL:
        ws = get_workspace(n)
        g1, g2, a11, a12, a22 = grad_hess_spectral_hat(ws.forward(values), ws)
        hvals = np.sqrt(1.0 + g1 * g1 + g2 * g2)
        w1 = g1 / hvals
        w2 = g2 / hvals
        w1h, w2h = ws.forward(np.stack([w1, w2]))
        parts = [ws.ik1 * w1h + ws.ik2 * w2h]
        if with_dw:
            parts += [ws.ik1 * w1h, ws.ik2 * w1h, ws.ik1 * w2h, ws.ik2 * w2h]
        vvals, *dw = ws.inverse(np.stack(parts))
    else:
        h = 1.0 / n
        g1, g2 = grad_central2(values, h)
        a11, a12, a22 = hess_central2(values, h)
        hvals = np.sqrt(1.0 + g1 * g1 + g2 * g2)
        w1 = g1 / hvals
        w2 = g2 / hvals
        vvals = div_central2(w1, w2, h)
        dw = [*grad_central2(w1, h), *grad_central2(w2, h)] if with_dw else []
    return GeometryArrays(g1, g2, hvals, w1, w2, vvals, a11, a12, a22, *dw)


def geometry_bundle(
    u: ScalarField | np.ndarray,
    method: DiffMethod = DiffMethod.SPECTRAL,
    with_dw: bool = True,
):
    """Compute H, w, v and the Hessian of u (plus Dw when requested).

    ``u`` is one field, giving a :class:`GeometryBundle`, or a (P, n, n)
    array of P fields on one grid, giving :class:`GeometryArrays` whose rows
    equal the one-field bundles bit for bit.
    """
    if isinstance(u, np.ndarray):
        return _geometry_arrays(u, method, with_dw)
    grid = u.grid
    a = GeometryArrays(*(None if x is None else x[0]
                         for x in _geometry_arrays(u.values[None], method, with_dw)))
    return GeometryBundle(
        grid=grid,
        method=method,
        grad=VectorField(grid, a.g1, a.g2),
        H=ScalarField(grid, a.H),
        w=VectorField(grid, a.w1, a.w2),
        v=ScalarField(grid, a.v),
        hess=SymTensorField(grid, a.a11, a.a12, a.a22),
        dw11=a.dw11,
        dw12=a.dw12,
        dw21=a.dw21,
        dw22=a.dw22,
    )


def _need_dw(b: GeometryBundle, who: str):
    if not b.has_dw:
        raise ValueError(f"{who} needs a bundle built with with_dw=True")


def mcf_operator(b: GeometryBundle) -> ScalarField:
    """Mean curvature flow velocity H * v."""
    return ScalarField(b.grid, b.H.values * b.v.values)


def strat_correction(b: GeometryBundle) -> ScalarField:
    """(1/2) w^T D^2u w, the drift shift between the two Ito forms."""
    w1, w2 = b.w.x1, b.w.x2
    hs = b.hess
    return ScalarField(
        b.grid,
        0.5 * (w1 * w1 * hs.a11 + 2.0 * w1 * w2 * hs.a12 + w2 * w2 * hs.a22),
    )


def anisotropic_operator(b: GeometryBundle) -> ScalarField:
    """(Id - w tensor w) : D^2 u = Lap u - w^T D^2u w, equal to H*v."""
    hs = b.hess
    lap = hs.a11 + hs.a22
    return ScalarField(b.grid, lap - 2.0 * strat_correction(b).values)


def gaussian_curvature(b: GeometryBundle) -> ScalarField:
    """det(D^2 u) / H^4."""
    hs = b.hess
    det = hs.a11 * hs.a22 - hs.a12 * hs.a12
    h2 = b.H.values * b.H.values
    return ScalarField(b.grid, det / (h2 * h2))


def det_dw(b: GeometryBundle) -> ScalarField:
    """det(Dw): the Gaussian curvature computed through the tilt map."""
    _need_dw(b, "det_dw")
    return ScalarField(b.grid, b.dw11 * b.dw22 - b.dw12 * b.dw21)


def gauss_bonnet_residual(b: GeometryBundle) -> float:
    """integral of det(Dw) * H over the torus; zero in the continuum."""
    _need_dw(b, "gauss_bonnet_residual")
    return integrate(ScalarField(b.grid, det_dw(b).values * b.H.values))


def h_profile(z1: np.ndarray, z2: np.ndarray):
    """The vector profile h(z) = (1 - sqrt(1 - |z|^2)) / (2 |z|^2) * z.

    Defined for |z| < 1 with planar divergence (1/2)(1 - |z|^2)^{-1/2}; the
    cofactor flux doubles it so the flux profile has divergence exactly
    (1 - |z|^2)^{-1/2}. Near z = 0 the closed form is evaluated by its Taylor
    expansion h(z) = z * (1/4 + |z|^2/16 + |z|^4/32), which also supplies the
    limit value h -> z/4.
    """
    s = z1 * z1 + z2 * z2
    if np.any(s >= 1.0):
        raise ValueError("h_profile needs |z| < 1")
    small = s < _H_PROFILE_TAYLOR_CUT**2
    coef = np.empty_like(s)
    ssafe = np.where(small, 1.0, s)
    coef = (1.0 - np.sqrt(1.0 - s)) / (2.0 * ssafe)
    taylor = 0.25 + s / 16.0 + s * s / 32.0
    coef = np.where(small, taylor, coef)
    return coef * z1, coef * z2


def profile_divergence_residual(r_max: float, m: int = 2001) -> float:
    """Finite-difference check of div 2h(z) = (1 - |z|^2)^{-1/2} on |z| <= r_max.

    The doubled profile is radial, 2h(z) = g(r) z/r with g(r) = 2 r coef(r^2),
    so its planar divergence is g'(r) + g(r)/r. g' is taken by central
    differences on a uniform radial grid of m points, and the returned value
    is the max-norm mismatch against (1 - r^2)^{-1/2}, which shrinks at
    second order in the grid spacing.
    """
    if not 0.0 < r_max < 1.0:
        raise ValueError("profile_divergence_residual needs 0 < r_max < 1")
    if m < 16:
        raise ValueError("profile_divergence_residual needs m >= 16")
    r = np.linspace(r_max / m, r_max, m)
    dr = r[1] - r[0]
    g1, _ = h_profile(r, np.zeros_like(r))
    g = 2.0 * g1
    dg = np.empty_like(g)
    dg[1:-1] = (g[2:] - g[:-2]) / (2.0 * dr)
    dg[0] = dg[1]
    dg[-1] = dg[-2]
    resid = dg + g / r - (1.0 - r * r) ** -0.5
    return float(np.max(np.abs(resid[1:-1])))


def cofactor_flux_residual(b: GeometryBundle) -> float:
    """Max-norm residual of div(cof(Dw)^T 2h(w)) = det(Dw) * H.

    For any smooth map w into the unit disc, div(cof(Dw)^T a(w)) equals
    det(Dw) * (div a)(w); the doubled profile a = 2h has div a = H, so the
    flux divergence must match det(Dw) * H pointwise. The left side is a pure
    divergence, which gives an independent route to the vanishing of the
    Gauss-Bonnet integrand's mean; the pointwise residual decays under
    refinement at the order of the differentiation method.
    """
    _need_dw(b, "cofactor_flux_residual")
    h1, h2 = h_profile(b.w.x1, b.w.x2)
    # cof(Dw)^T = [[dw22, -dw12], [-dw21, dw11]], applied to 2h(w)
    p1 = 2.0 * (b.dw22 * h1 - b.dw12 * h2)
    p2 = 2.0 * (-b.dw21 * h1 + b.dw11 * h2)
    if b.method is DiffMethod.SPECTRAL:
        div_p = div_spectral(p1, p2, get_workspace(b.grid.n))
    else:
        div_p = div_central2(p1, p2, b.grid.h)
    target = det_dw(b).values * b.H.values
    return float(np.max(np.abs(div_p - target)))
