"""Periodic fields on the unit torus and the discrete operators acting on them.

Everything lives on a uniform n-by-n grid with nodes at (i/n, j/n). Two
derivative routes are provided so that results can be cross-checked against
an independent discretization:

* ``SPECTRAL``: FFT differentiation; exact on resolved trigonometric modes.
* ``CENTRAL2``: second-order centered differences with periodic wrap.

Quadrature uses ``np.sum``, which reduces in a fixed pairwise order, so
integrals are bit-reproducible for a fixed grid regardless of thread count.

Every transform goes through :meth:`SpectralWorkspace.forward` and
:meth:`SpectralWorkspace.inverse`, which call numpy's pocketfft kernels
directly: the same kernels, factors and output layout as ``np.fft.rfft2``
and ``np.fft.irfft2``, without their per-call argument handling.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

__all__ = [
    "DiffMethod",
    "GridSpec",
    "ScalarField",
    "SpectralWorkspace",
    "get_workspace",
    "gradient",
    "divergence",
    "laplacian",
    "hessian",
    "integrate",
    "l2_norm_sq",
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


@dataclass
class ScalarField:
    """One field on a grid; vectors and tensors are stacked bare arrays."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (n, n):
            raise ValueError(f"field values must have shape {(n, n)}, got {self.values.shape}")

    @classmethod
    def constant(cls, grid: GridSpec, c: float) -> "ScalarField":
        return cls(grid, np.full((grid.n, grid.n), float(c)))


# gufunc axes of a 1-D transform along the second to last axis: input,
# scale factor, output
_SECOND_LAST = [(-2,), (), (-2,)]


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
        # (5, 1, n, n//2 + 1) symbols of d1, d2, d11, d12, d22 for a batch;
        # the first two are the gradient's
        self.grad_hess_syms = np.stack(
            np.broadcast_arrays(self.ik1, self.ik2, self.sym_xx, self.sym_xy, self.sym_yy)
        ).astype(complex)[:, None]

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Real 2-D transform over the last two axes; equals np.fft.rfft2 bitwise.

        A real transform along the last axis, then a complex one along the
        second to last, both unscaled, into arrays laid out as numpy's own.
        """
        half = np.empty_like(
            values, shape=(*values.shape[:-1], self.n // 2 + 1), dtype=np.complex128
        )
        _pocketfft.rfft_n_even(values, 1, out=half)
        return _pocketfft.fft(half, 1, axes=_SECOND_LAST, out=np.empty_like(half))

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of forward onto n x n points; equals np.fft.irfft2(s=(n, n)) bitwise.

        The complex inverse along the second to last axis, then the real
        inverse along the last, each scaled by 1 / n.
        """
        scale = 1.0 / self.n
        full = _pocketfft.ifft(
            coeffs, scale, axes=_SECOND_LAST,
            out=np.empty_like(coeffs, dtype=np.complex128),
        )
        out = np.empty_like(full, shape=(*full.shape[:-1], self.n), dtype=np.float64)
        return _pocketfft.irfft(full, scale, out=out)

    def linear_sym(self, c: float, eta: float, big_k: int) -> np.ndarray:
        """Symbol of A = c Delta - eta Delta^(2K).

        Delta^(2K) has the symbol lambda(k)^(2K), an even power, hence >= 0.
        A K whose power overflows at this n is refused: the symbol would hold
        -inf, which zeroes every non-mean mode in one implicit step and turns
        the drift of a flat field into NaN (-inf * 0).
        """
        sym = c * self.lap_sym
        if eta != 0.0:
            with np.errstate(over="ignore"):
                sym = sym - eta * self.lap_sym ** (2 * big_k)
            if not np.isfinite(sym).all():
                raise ValueError(
                    f"eta * Delta^(2K) overflows at n = {self.n}: K = {big_k} is too "
                    f"large for eta = {eta}"
                )
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

def grad_spectral_hat(uh, ws):
    """(g1, g2) of a (P, n, n//2 + 1) batch as one (2, P, n, n) array."""
    return ws.inverse(ws.grad_hess_syms[:2] * uh)


def grad_hess_spectral_hat(uh, ws):
    """(g1, g2, a11, a12, a22) of a (P, n, n//2 + 1) batch, one inverse call."""
    return ws.inverse(ws.grad_hess_syms * uh)


def hess_linf_rows(a11, a12, a22):
    """Largest Hessian entry magnitude of each row of a (P, n, n) batch."""
    def row_max(a):
        return np.abs(a).max(axis=(1, 2))

    return np.maximum(np.maximum(row_max(a11), row_max(a12)), row_max(a22))


def div_spectral(f, ws):
    """Divergence of a vector field stacked as f[0], f[1]; one forward call."""
    f1h, f2h = ws.forward(f)
    return ws.inverse(ws.ik1 * f1h + ws.ik2 * f2h)


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

def gradient(u: ScalarField, method: DiffMethod = DiffMethod.SPECTRAL) -> np.ndarray:
    """Periodic gradient of u, stacked as (2, n, n); row 0 differentiates in x1."""
    _require_finite(u.values, "gradient input")
    if method is DiffMethod.SPECTRAL:
        ws = get_workspace(u.grid.n)
        return grad_spectral_hat(ws.forward(u.values), ws)[:, 0]
    return np.stack(grad_central2(u.values, u.grid.h))


def divergence(f: np.ndarray, method: DiffMethod = DiffMethod.SPECTRAL) -> np.ndarray:
    """Divergence of a vector field stacked as (2, n, n), the layout of gradient."""
    n = f.shape[-1]
    if f.shape != (2, n, n):
        raise ValueError(f"divergence needs a (2, n, n) stack, got shape {f.shape}")
    _require_finite(f, "divergence input")
    if method is DiffMethod.SPECTRAL:
        return div_spectral(f, get_workspace(n))
    return div_central2(f[0], f[1], 1.0 / n)


def laplacian(u: ScalarField, method: DiffMethod = DiffMethod.SPECTRAL) -> np.ndarray:
    """Laplacian of u; equal to the trace of hessian(u, method) up to rounding
    (bitwise for central2).
    """
    _require_finite(u.values, "laplacian input")
    if method is DiffMethod.SPECTRAL:
        ws = get_workspace(u.grid.n)
        return ws.inverse(ws.lap_sym * ws.forward(u.values))
    a11, _, a22 = hess_central2(u.values, u.grid.h)
    return a11 + a22


def hessian(u: ScalarField, method: DiffMethod = DiffMethod.SPECTRAL) -> np.ndarray:
    """Hessian of u stacked as (3, n, n): a11, a12 (= a21), a22."""
    _require_finite(u.values, "hessian input")
    if method is DiffMethod.SPECTRAL:
        ws = get_workspace(u.grid.n)
        return grad_hess_spectral_hat(ws.forward(u.values), ws)[2:, 0]
    return np.stack(hess_central2(u.values, u.grid.h))


def integrate(u: ScalarField) -> float:
    """h^2 * sum of node values; exact for trig modes below Nyquist."""
    h = u.grid.h
    return float(h * h * np.sum(u.values))


def l2_norm_sq(u: ScalarField) -> float:
    """Squared L2 norm of a field."""
    h = u.grid.h
    return float(h * h * np.sum(u.values * u.values))
