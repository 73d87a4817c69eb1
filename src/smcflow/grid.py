"""Periodic fields on the unit torus and the discrete operators acting on them.

Everything lives on a uniform n-by-n grid with nodes at (i/n, j/n). Two
derivative routes are provided so that results can be cross-checked against
an independent discretization:

* ``SPECTRAL``: FFT differentiation; exact on resolved trigonometric modes.
* ``CENTRAL2``: second-order centered differences with periodic wrap.

Quadrature uses ``np.sum``, which reduces in a fixed pairwise order, so
integrals are bit-reproducible for a fixed grid regardless of thread count.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "DiffMethod",
    "GridSpec",
    "ScalarField",
    "VectorField",
    "SymTensorField",
    "SpectralWorkspace",
    "get_workspace",
    "gradient",
    "divergence",
    "laplacian",
    "hessian",
    "implicit_solve",
    "apply_linear",
    "integrate",
    "inner",
    "l2_norm_sq",
    "linf_norm",
]


class DiffMethod(Enum):
    SPECTRAL = "spectral"
    CENTRAL2 = "central2"


@dataclass(frozen=True)
class GridSpec:
    """Uniform n-by-n periodic grid; node (i, j) samples x = (i/n, j/n)."""

    n: int

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"grid size n={self.n} too small, need n >= 8")
        if self.n % 2 != 0:
            raise ValueError(f"grid size n={self.n} must be even")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def nodes(self):
        """Return coordinate meshes X1, X2 with shape (n, n), axis 0 is x1."""
        x = np.arange(self.n) / self.n
        return np.meshgrid(x, x, indexing="ij")


def _as_values(values, n):
    a = np.asarray(values, dtype=np.float64)
    if a.shape != (n, n):
        raise ValueError(f"field values must have shape {(n, n)}, got {a.shape}")
    return a


@dataclass
class ScalarField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_values(self.values, self.grid.n)

    @classmethod
    def constant(cls, grid: GridSpec, c: float) -> "ScalarField":
        return cls(grid, np.full((grid.n, grid.n), float(c)))

    @classmethod
    def from_function(cls, grid: GridSpec, f) -> "ScalarField":
        x1, x2 = grid.nodes()
        return cls(grid, np.asarray(f(x1, x2), dtype=np.float64))


@dataclass
class VectorField:
    grid: GridSpec
    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        self.x1 = _as_values(self.x1, self.grid.n)
        self.x2 = _as_values(self.x2, self.grid.n)


@dataclass
class SymTensorField:
    """Symmetric 2x2 tensor field; components a11, a12 (= a21), a22."""

    grid: GridSpec
    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray

    def __post_init__(self):
        self.a11 = _as_values(self.a11, self.grid.n)
        self.a12 = _as_values(self.a12, self.grid.n)
        self.a22 = _as_values(self.a22, self.grid.n)

    def linf(self) -> float:
        """Largest entry magnitude over the grid (off-diagonals included)."""
        return float(
            max(
                np.max(np.abs(self.a11)),
                np.max(np.abs(self.a12)),
                np.max(np.abs(self.a22)),
            )
        )


class SpectralWorkspace:
    """Precomputed wavenumber tables and operator symbols for one grid size.

    Tables are built for the real FFT layout (shape (n, n//2 + 1)). First
    derivatives zero the Nyquist wavenumber so that differentiation of real
    fields stays skew-adjoint; pure second derivatives keep the full
    wavenumber range. All attributes are read-only after construction, so a
    workspace may be shared across threads.
    """

    def __init__(self, n: int):
        self.n = n
        k1 = np.fft.fftfreq(n, d=1.0 / n)        # 0..n/2-1, -n/2..-1
        k2 = np.fft.rfftfreq(n, d=1.0 / n)       # 0..n/2
        d1 = k1.copy()
        d1[n // 2] = 0.0                          # Nyquist dropped for odd ops
        d2 = k2.copy()
        d2[-1] = 0.0

        two_pi = 2.0 * np.pi
        self.ik1 = (1j * two_pi) * d1[:, None]
        self.ik2 = (1j * two_pi) * d2[None, :]
        self.sym_xx = -(two_pi**2) * (k1**2)[:, None] * np.ones((1, n // 2 + 1))
        self.sym_yy = -(two_pi**2) * np.ones((n, 1)) * (k2**2)[None, :]
        self.sym_xy = -(two_pi**2) * d1[:, None] * d2[None, :]
        # Laplacian symbol lambda(k) = -4 pi^2 |k|^2, the sum of the two
        # diagonal second-derivative symbols.
        self.lap_sym = self.sym_xx + self.sym_yy
        # (5, 1, n, n//2 + 1) symbols of d1, d2, d11, d12, d22 for a batch
        self.grad_hess_syms = np.stack(
            np.broadcast_arrays(self.ik1, self.ik2, self.sym_xx, self.sym_xy, self.sym_yy)
        ).astype(complex)[:, None]
        self._poly_cache: dict[int, np.ndarray] = {}

    def forward(self, values: np.ndarray) -> np.ndarray:
        return np.fft.rfft2(values)

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        return np.fft.irfft2(coeffs, s=(self.n, self.n))

    def polyharmonic_sym(self, big_k: int) -> np.ndarray:
        """Symbol of Delta^(2K); an even power of lambda(k), hence >= 0."""
        sym = self._poly_cache.get(big_k)
        if sym is None:
            sym = self.lap_sym ** (2 * big_k)
            self._poly_cache[big_k] = sym
        return sym

    def linear_sym(self, c: float, eta: float, big_k: int) -> np.ndarray:
        """Symbol of A = c Delta - eta Delta^(2K)."""
        sym = c * self.lap_sym
        if eta != 0.0:
            sym = sym - eta * self.polyharmonic_sym(big_k)
        return sym


@lru_cache(maxsize=None)
def get_workspace(n: int) -> SpectralWorkspace:
    return SpectralWorkspace(n)


def _require_finite(values: np.ndarray, what: str):
    if not np.isfinite(values).all():
        raise ValueError(f"{what} contains non-finite entries")


# ---------------------------------------------------------------------------
# array kernels (used directly by the steppers; public ops wrap them). They
# act on the last two axes, so a leading batch axis rides along.

def grad_spectral(values, ws):
    uh = ws.forward(values)
    return ws.inverse(ws.ik1 * uh), ws.inverse(ws.ik2 * uh)


def grad_spectral_hat(uh, ws):
    return ws.inverse(np.stack([ws.ik1 * uh, ws.ik2 * uh]))


def grad_hess_spectral_hat(uh, ws):
    """(g1, g2, a11, a12, a22) of a (P, n, n//2 + 1) batch, one inverse call."""
    return ws.inverse(ws.grad_hess_syms * uh)


def hess_linf_rows(a11, a12, a22):
    """Largest Hessian entry magnitude of each row of a (P, n, n) batch."""
    def row_max(a):
        return np.abs(a).max(axis=(1, 2))

    return np.maximum(np.maximum(row_max(a11), row_max(a12)), row_max(a22))


def div_spectral(f1, f2, ws):
    f1h, f2h = ws.forward(np.stack([f1, f2]))
    return ws.inverse(ws.ik1 * f1h + ws.ik2 * f2h)


def hess_spectral_hat(uh, ws):
    return (
        ws.inverse(ws.sym_xx * uh),
        ws.inverse(ws.sym_xy * uh),
        ws.inverse(ws.sym_yy * uh),
    )


def grad_central2(values, h):
    g1 = (np.roll(values, -1, axis=-2) - np.roll(values, 1, axis=-2)) / (2.0 * h)
    g2 = (np.roll(values, -1, axis=-1) - np.roll(values, 1, axis=-1)) / (2.0 * h)
    return g1, g2


def div_central2(f1, f2, h):
    d1 = (np.roll(f1, -1, axis=-2) - np.roll(f1, 1, axis=-2)) / (2.0 * h)
    d2 = (np.roll(f2, -1, axis=-1) - np.roll(f2, 1, axis=-1)) / (2.0 * h)
    return d1 + d2


def hess_central2(values, h):
    up1 = np.roll(values, -1, axis=-2)
    um1 = np.roll(values, 1, axis=-2)
    a11 = (up1 - 2.0 * values + um1) / (h * h)
    a22 = (
        np.roll(values, -1, axis=-1) - 2.0 * values + np.roll(values, 1, axis=-1)
    ) / (h * h)
    a12 = (
        np.roll(up1, -1, axis=-1)
        - np.roll(up1, 1, axis=-1)
        - np.roll(um1, -1, axis=-1)
        + np.roll(um1, 1, axis=-1)
    ) / (4.0 * h * h)
    return a11, a12, a22


# ---------------------------------------------------------------------------
# public operators

def gradient(u: ScalarField, method: DiffMethod = DiffMethod.SPECTRAL) -> VectorField:
    """Periodic gradient of u; axis 0 differentiates in x1."""
    _require_finite(u.values, "gradient input")
    if method is DiffMethod.SPECTRAL:
        g1, g2 = grad_spectral(u.values, get_workspace(u.grid.n))
    else:
        g1, g2 = grad_central2(u.values, u.grid.h)
    return VectorField(u.grid, g1, g2)


def divergence(f: VectorField, method: DiffMethod = DiffMethod.SPECTRAL) -> ScalarField:
    _require_finite(f.x1, "divergence input")
    _require_finite(f.x2, "divergence input")
    if method is DiffMethod.SPECTRAL:
        d = div_spectral(f.x1, f.x2, get_workspace(f.grid.n))
    else:
        d = div_central2(f.x1, f.x2, f.grid.h)
    return ScalarField(f.grid, d)


def laplacian(u: ScalarField, method: DiffMethod = DiffMethod.SPECTRAL) -> ScalarField:
    """Laplacian; by construction equal to the trace of hessian(u, method)."""
    _require_finite(u.values, "laplacian input")
    if method is DiffMethod.SPECTRAL:
        ws = get_workspace(u.grid.n)
        out = ws.inverse(ws.lap_sym * ws.forward(u.values))
    else:
        a11, _, a22 = hess_central2(u.values, u.grid.h)
        out = a11 + a22
    return ScalarField(u.grid, out)


def hessian(u: ScalarField, method: DiffMethod = DiffMethod.SPECTRAL) -> SymTensorField:
    _require_finite(u.values, "hessian input")
    if method is DiffMethod.SPECTRAL:
        ws = get_workspace(u.grid.n)
        a11, a12, a22 = hess_spectral_hat(ws.forward(u.values), ws)
    else:
        a11, a12, a22 = hess_central2(u.values, u.grid.h)
    return SymTensorField(u.grid, a11, a12, a22)


def implicit_solve(
    rhs: ScalarField, dt: float, eps: float, eta: float, big_k: int
) -> ScalarField:
    """Solve (Id - dt * A) u = rhs with A = (1 + eps) Delta - eta Delta^(2K).

    The solve is diagonal in Fourier space. The symbol of A is nonpositive
    whenever 1 + eps >= 0 and eta >= 0, so the solve contracts every nonzero
    mode and passes the mean through unchanged. ``eps`` may be negative (down
    to -1), which scales the Laplacian down, e.g. to Delta/2 at eps = -1/2.
    """
    if dt <= 0.0:
        raise ValueError("implicit_solve needs dt > 0")
    if eps <= -1.0:
        raise ValueError("implicit_solve needs 1 + eps > 0")
    if eta < 0.0:
        raise ValueError("implicit_solve needs eta >= 0")
    if big_k < 1 or big_k != int(big_k):
        raise ValueError("implicit_solve needs integer big_k >= 1")
    _require_finite(rhs.values, "implicit_solve rhs")
    ws = get_workspace(rhs.grid.n)
    denom = 1.0 - dt * ws.linear_sym(1.0 + eps, eta, big_k)
    return ScalarField(rhs.grid, ws.inverse(ws.forward(rhs.values) / denom))


def apply_linear(u: ScalarField, eps: float, eta: float, big_k: int) -> ScalarField:
    """Forward application of A = (1 + eps) Delta - eta Delta^(2K)."""
    ws = get_workspace(u.grid.n)
    sym = ws.linear_sym(1.0 + eps, eta, big_k)
    return ScalarField(u.grid, ws.inverse(sym * ws.forward(u.values)))


def integrate(u: ScalarField) -> float:
    """h^2 * sum of node values; exact for trig modes below Nyquist."""
    h = u.grid.h
    return float(h * h * np.sum(u.values))


def inner(u: ScalarField, v: ScalarField) -> float:
    if u.grid.n != v.grid.n:
        raise ValueError("inner product needs matching grids")
    h = u.grid.h
    return float(h * h * np.sum(u.values * v.values))


def l2_norm_sq(u) -> float:
    """Squared L2 norm; accepts a ScalarField or a VectorField."""
    if isinstance(u, VectorField):
        h = u.grid.h
        return float(h * h * (np.sum(u.x1 * u.x1) + np.sum(u.x2 * u.x2)))
    h = u.grid.h
    return float(h * h * np.sum(u.values * u.values))


def linf_norm(u: ScalarField) -> float:
    return float(np.max(np.abs(u.values)))
