"""Graph geometry of u: area density, tilt, curvature, and exact identities.

For a graph x3 = u(x1, x2) over the torus the basic quantities are

    H = sqrt(1 + |grad u|^2)        (area density, H >= 1)
    w = grad u / H                  (tilt vector, |w| < 1 pointwise)
    v = div w                       (mean curvature of the graph)

Every member of a :class:`GeometryArrays` pass is derived from a single
gradient evaluation with one differentiation method, so the members are
mutually consistent. The identity functions read one pass and return arrays
or floats; :func:`cofactor_flux_residual`, which differentiates again, takes
the method and builds its own pass, so mixing methods is impossible there too.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grid import (
    DiffMethod,
    ScalarField,
    div_central2,
    divergence,
    get_workspace,
    grad_central2,
    grad_hess_spectral_hat,
    hess_central2,
)

__all__ = [
    "GeometryArrays",
    "geometry_bundle",
    "mcf_operator",
    "anisotropic_operator",
    "strat_correction",
    "gaussian_curvature",
    "det_dw",
    "gauss_bonnet_residual",
    "h_profile",
    "cofactor_flux_residual",
]

# Below this tilt magnitude h_profile switches to its Taylor form; the closed
# form loses digits to cancellation as |z| -> 0.
_H_PROFILE_TAYLOR_CUT = 1e-4


class GeometryArrays(NamedTuple):
    """The members of one geometry pass, as bare arrays.

    g = grad u, w = g / H, a = D^2 u (a12 = a21) and dwij = d w_i / d x_j.
    Each member has the shape of the input: (n, n) for one field, (P, n, n)
    for a batch.
    """

    g1: np.ndarray
    g2: np.ndarray
    H: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    v: np.ndarray
    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray
    dw11: np.ndarray
    dw12: np.ndarray
    dw21: np.ndarray
    dw22: np.ndarray


def geometry_bundle(
    u: ScalarField | np.ndarray, method: DiffMethod = DiffMethod.SPECTRAL
) -> GeometryArrays:
    """Compute grad u, H, w, v, the Hessian of u and Dw in one pass.

    ``u`` is a (P, n, n) array of P fields on one grid, or one field; for a
    field the members are the (n, n) row of the batch of one, so they equal
    the batch rows bit for bit.
    """
    if isinstance(u, ScalarField):
        return GeometryArrays(*(x[0] for x in geometry_bundle(u.values[None], method)))
    n = u.shape[-1]
    spectral = method is DiffMethod.SPECTRAL
    if spectral:
        ws = get_workspace(n)
        d = grad_hess_spectral_hat(ws.forward(u), ws)
        grad = d[:2]
        a11, a12, a22 = d[2:]
    else:
        h = 1.0 / n
        grad = np.stack(grad_central2(u, h))
        a11, a12, a22 = hess_central2(u, h)
    g1, g2 = grad
    hvals = np.sqrt(1.0 + g1 * g1 + g2 * g2)
    w = grad / hvals
    w1, w2 = w
    if spectral:
        w1h, w2h = ws.forward(w)
        vvals, *dw = ws.inverse(np.stack([
            ws.ik1 * w1h + ws.ik2 * w2h,
            ws.ik1 * w1h, ws.ik2 * w1h, ws.ik1 * w2h, ws.ik2 * w2h,
        ]))
    else:
        vvals = div_central2(w1, w2, h)
        dw = [*grad_central2(w1, h), *grad_central2(w2, h)]
    return GeometryArrays(g1, g2, hvals, w1, w2, vvals, a11, a12, a22, *dw)


def mcf_operator(b: GeometryArrays) -> np.ndarray:
    """Mean curvature flow velocity H * v."""
    return b.H * b.v


def strat_correction(b: GeometryArrays) -> np.ndarray:
    """(1/2) w^T D^2u w, the drift shift between the two Ito forms."""
    w1, w2 = b.w1, b.w2
    return 0.5 * (w1 * w1 * b.a11 + 2.0 * w1 * w2 * b.a12 + w2 * w2 * b.a22)


def anisotropic_operator(b: GeometryArrays) -> np.ndarray:
    """(Id - w tensor w) : D^2 u = Lap u - w^T D^2u w, equal to H*v."""
    return b.a11 + b.a22 - 2.0 * strat_correction(b)


def gaussian_curvature(b: GeometryArrays) -> np.ndarray:
    """det(D^2 u) / H^4."""
    det = b.a11 * b.a22 - b.a12 * b.a12
    h2 = b.H * b.H
    return det / (h2 * h2)


def det_dw(b: GeometryArrays) -> np.ndarray:
    """det(Dw): the Gaussian curvature computed through the tilt map."""
    return b.dw11 * b.dw22 - b.dw12 * b.dw21


def gauss_bonnet_residual(b: GeometryArrays) -> float:
    """integral of det(Dw) * H over the torus for one field; zero in the continuum."""
    h = 1.0 / b.H.shape[-1]
    return float(h * h * np.sum(det_dw(b) * b.H))


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
    ssafe = np.where(small, 1.0, s)
    coef = (1.0 - np.sqrt(1.0 - s)) / (2.0 * ssafe)
    taylor = 0.25 + s / 16.0 + s * s / 32.0
    coef = np.where(small, taylor, coef)
    return coef * z1, coef * z2


def cofactor_flux_residual(u: ScalarField, method: DiffMethod = DiffMethod.SPECTRAL) -> float:
    """Max-norm residual of div(cof(Dw)^T 2h(w)) = det(Dw) * H.

    For any smooth map w into the unit disc, div(cof(Dw)^T a(w)) equals
    det(Dw) * (div a)(w); the doubled profile a = 2h has div a = H, so the
    flux divergence must match det(Dw) * H pointwise. The left side is a pure
    divergence, which gives an independent route to the vanishing of the
    Gauss-Bonnet integrand's mean; the pointwise residual decays under
    refinement at the order of the differentiation method, which serves both
    the geometry pass of u and the flux divergence.
    """
    b = geometry_bundle(u, method)
    h1, h2 = h_profile(b.w1, b.w2)
    # cof(Dw)^T = [[dw22, -dw12], [-dw21, dw11]], applied to 2h(w)
    p1 = 2.0 * (b.dw22 * h1 - b.dw12 * h2)
    p2 = 2.0 * (-b.dw21 * h1 + b.dw11 * h2)
    div_p = divergence(np.stack([p1, p2]), method)
    return float(np.max(np.abs(div_p - det_dw(b) * b.H)))
