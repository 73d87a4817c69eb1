"""Model forms, drift/diffusion assembly, and time steppers.

The driving noise is a single scalar Brownian motion; each model form fixes a
drift and the diffusion coefficient field sqrt(rho) * H(grad u):

* ``stratonovich_mcf``   du = H v dt + sqrt(rho) H o dW  (Heun stepping)
* ``ito_mcf``            du = (Lap u / 2 + H v / 2) dt + H dW
* ``ito_anisotropic``    du = (Lap u - w^T D^2u w / 2) dt + H dW
* ``regularized``        adds eps * Lap u - eta * Delta^(2K) u
* ``regularized_truncated`` additionally clips the Hessian entrywise
* ``rho_variant``        du = (rho/2 Lap u + (1 - rho/2) H v) dt + sqrt(rho) H dW

Every form splits its drift into a linear part A = c * Lap - eta * Delta^(2K)
(c the form's Laplacian prefactor, 0 for stratonovich_mcf) and the explicit
curvature terms, which :func:`explicit_terms` evaluates together with the
noise coefficient. The Ito stepper is IMEX: A is treated implicitly through
a diagonal Fourier solve and the curvature terms stay explicit. For a
constant initial field every stepper reproduces u(t) = c + sqrt(rho) W(t)
to rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .grid import (
    GridSpec,
    ScalarField,
    div_spectral,
    get_workspace,
    grad_hess_spectral_hat,
    grad_spectral_hat,
    hess_linf_rows,
)
# unused here, but perfbench/spans.py wraps the name dynamics.geometry_bundle
from .geometry import geometry_bundle  # noqa: F401
from .noise import NoisePath

__all__ = [
    "FormKind",
    "FORM_READS",
    "ModelForm",
    "NonFiniteFieldError",
    "PathState",
    "PathBatch",
    "StepAudit",
    "explicit_terms",
    "drift",
    "truncate_hessian_arrays",
    "EmImexStepper",
    "HeunStratStepper",
    "PicardReport",
    "mild_picard_iterate",
    "default_dt",
    "linear_dt_bound",
]


class FormKind(Enum):
    STRATONOVICH_MCF = "stratonovich_mcf"
    ITO_MCF = "ito_mcf"
    ITO_ANISOTROPIC = "ito_anisotropic"
    REGULARIZED = "regularized"
    REGULARIZED_TRUNCATED = "regularized_truncated"
    RHO_VARIANT = "rho_variant"


_ANISO_KINDS = (FormKind.ITO_ANISOTROPIC, FormKind.REGULARIZED, FormKind.REGULARIZED_TRUNCATED)

# The parameters each form reads; a form refuses every other one set away
# from its ModelForm default, so no value is silently ignored.
FORM_READS = {
    FormKind.STRATONOVICH_MCF: frozenset(),
    FormKind.ITO_MCF: frozenset(),
    FormKind.ITO_ANISOTROPIC: frozenset(),
    FormKind.REGULARIZED: frozenset({"eps", "eta", "big_k"}),
    FormKind.REGULARIZED_TRUNCATED: frozenset({"eps", "eta", "big_k", "r_trunc"}),
    FormKind.RHO_VARIANT: frozenset({"rho"}),
}


@dataclass(frozen=True)
class ModelForm:
    """A model form plus the parameters it reads (FORM_READS); each error names its field."""

    kind: FormKind
    eps: float = 0.0
    eta: float = 0.0
    big_k: int = 3
    r_trunc: float = float("inf")
    rho: float = 1.0

    def __post_init__(self):
        k = self.kind
        reads = FORM_READS[k]
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name not in reads and value != f.default:
                raise ValueError(f"{k.value} does not read {f.name}; got {f.name} = {value}")
        if "eps" in reads:
            if not 0.0 < self.eps <= 1.0:
                raise ValueError(f"{k.value} needs eps in (0, 1], got {self.eps}")
            if not 0.0 <= self.eta <= 1.0:
                raise ValueError(f"{k.value} needs eta in [0, 1], got {self.eta}")
            if self.big_k < 1 or self.big_k != int(self.big_k):
                raise ValueError(f"{k.value} needs integer big_k >= 1, got {self.big_k}")
        if "r_trunc" in reads and not self.r_trunc > 0.0:
            raise ValueError(f"truncation radius must be positive, got r_trunc = {self.r_trunc}")
        if "rho" in reads and not 0.0 < self.rho < 2.0:
            raise ValueError(f"rho must lie in (0, 2), got {self.rho}")

    @property
    def lap_coef(self) -> float:
        """Laplacian prefactor of the linear part A."""
        if self.kind is FormKind.STRATONOVICH_MCF:
            return 0.0
        if self.kind is FormKind.ITO_MCF:
            return 0.5
        if self.kind is FormKind.RHO_VARIANT:
            return 0.5 * self.rho
        return 1.0 + self.eps  # the anisotropic family; eps = 0.0 unless read

    @property
    def hv_coef(self) -> float:
        """Prefactor of the explicit H v term; 0 for the anisotropic family."""
        return 0.0 if self.kind in _ANISO_KINDS else 1.0 - self.lap_coef


class NonFiniteFieldError(RuntimeError):
    """A step produced NaN/inf; carries where and when it first appeared.

    ``rows`` maps every failing row of the stepped batch (row 0 for a single
    path) to the grid index of its first non-finite entry in C order;
    ``index`` is that of the first failing row.
    """

    def __init__(self, step: int, rows: dict[int, tuple[int, int]]):
        self.step = step
        self.rows = rows
        self.index = next(iter(rows.values()))
        super().__init__(
            f"non-finite field entry at grid index {self.index} after step {step}"
        )


def linear_dt_bound(form: ModelForm, n: int) -> float:
    """Largest dt at which the form's stepper damps every mode of its linearization.

    At a flat graph H v linearizes to the discrete Laplacian of the
    first-derivative symbols (Nyquist dropped), with rate lambda_D(k) >= 0,
    and the explicit drift to hv_coef * H v; the anisotropic term is
    quadratic and drops out. With s(k) <= 0 the symbol of the implicit
    linear part A, mode k then obeys
    u+ = (1 - dt hv_coef lambda_D) / (1 - dt s) u under em_imex and
    u+ = (1 - z + z^2 / 2) u with z = dt lambda_D under Heun (where A = 0).
    Either factor stays in [-1, 1] exactly while
    dt * (hv_coef lambda_D + s) <= 2 for every k, so the bound is 2 over the
    largest such rate: finite for stratonovich_mcf and for rho_variant with
    rho < 1, inf for every other form. It is necessary, not sufficient: away
    from a flat graph the nonlinear terms can still blow a run up.
    """
    ws = get_workspace(n)
    # -lambda_D: the Laplacian symbol less the Nyquist entries of ik1, ik2
    lap_d = ws.sym_xx * (ws.ik1 != 0.0) + ws.sym_yy * (ws.ik2 != 0.0)
    rate = ws.linear_sym(form.lap_coef, form.eta, form.big_k) - form.hv_coef * lap_d
    top = float(rate.max())
    return 2.0 / top if top > 0.0 else math.inf


def default_dt(form: ModelForm, n: int) -> float:
    """Step a form takes when no dt is given.

    stratonovich_mcf (Heun) takes 0.05 h^2 and every other form (em_imex)
    the explicit-stability proxy 0.25 h^2, each capped at half of
    linear_dt_bound. Only rho_variant with rho < 1 meets that cap: 0.05 h^2
    is below half the Heun bound at every n.
    """
    proxy = (0.05 if form.kind is FormKind.STRATONOVICH_MCF else 0.25) / (n * n)
    return min(proxy, 0.5 * linear_dt_bound(form, n))


# ---------------------------------------------------------------------------
# pointwise pieces

def _theta_times_a(a: np.ndarray, r: float) -> np.ndarray:
    """Entrywise a -> theta_R(|a|) * a with a quintic smoothstep bridge.

    theta is 1 on [0, R/2], 0 on [R, inf), and 1 - s(2|a|/R - 1) in between
    with s(x) = 6x^5 - 15x^4 + 10x^3, so the clipped entry is a C^1 function
    of the input. Entries at or below R/2 are passed through bit-identically.
    """
    aa = np.abs(a)
    x = 2.0 * aa / r - 1.0
    x = np.clip(x, 0.0, 1.0)
    s = ((6.0 * x - 15.0) * x + 10.0) * x * x * x
    return np.where(aa <= 0.5 * r, a, np.where(aa >= r, 0.0, (1.0 - s) * a))


def truncate_hessian_arrays(a11, a12, a22, r: float):
    """Apply theta_R entrywise to the three Hessian components.

    The caller decides whether the cutoff acts at all; explicit_terms calls
    this only once some row exceeds R/2. A batch is clipped as a whole;
    rows within R/2 pass the clip unchanged, so each row still equals its
    one-path result.
    """
    if not r > 0.0:
        raise ValueError("truncation radius must be positive")
    return _theta_times_a(a11, r), _theta_times_a(a12, r), _theta_times_a(a22, r)


def explicit_terms(uh: np.ndarray, form: ModelForm, ws):
    """Explicit drift, noise coefficient and Hessian sup of a batch of fields.

    ``uh`` is the (P, n, n//2 + 1) transform of P fields. Returns the
    explicit drift N (the drift minus A u): -w^T Theta_R(D^2u) w / 2 for the
    anisotropic family, hv_coef * H v otherwise; the noise coefficient
    g = sqrt(rho) H; and each row's ||D^2 u||_inf before the cutoff (None
    outside the anisotropic family). The cutoff runs only once some row
    exceeds R/2; a NaN row maximum fails that test and takes the full clip.
    """
    aniso = form.kind in _ANISO_KINDS
    hess_linf = None
    if aniso:
        d = grad_hess_spectral_hat(uh, ws)
        grad = d[:2]
        a11, a12, a22 = d[2:]
        hess_linf = hess_linf_rows(a11, a12, a22)
        r = form.r_trunc
        if form.kind is FormKind.REGULARIZED_TRUNCATED and not hess_linf.max() <= 0.5 * r:
            a11, a12, a22 = truncate_hessian_arrays(a11, a12, a22, r)
    else:
        grad = grad_spectral_hat(uh, ws)
    g1, g2 = grad
    hval = np.sqrt(1.0 + g1 * g1 + g2 * g2)
    w = grad / hval
    if aniso:
        w1, w2 = w
        n_explicit = -0.5 * (w1 * w1 * a11 + 2.0 * w1 * w2 * a12 + w2 * w2 * a22)
    else:
        hv = hval * div_spectral(w, ws)
        # unit prefactors skip their multiply, which would not change a bit
        n_explicit = hv if form.hv_coef == 1.0 else form.hv_coef * hv
    g = hval if form.rho == 1.0 else np.sqrt(form.rho) * hval
    return n_explicit, g, hess_linf


def drift(u: ScalarField, form: ModelForm) -> ScalarField:
    """Full drift field of the given form: A u plus the explicit terms."""
    ws = get_workspace(u.grid.n)
    uh = ws.forward(u.values[None])
    n_explicit, _, _ = explicit_terms(uh, form, ws)
    lin = ws.inverse(ws.linear_sym(form.lap_coef, form.eta, form.big_k) * uh)
    return ScalarField(u.grid, lin[0] + n_explicit[0])


# ---------------------------------------------------------------------------
# path state and steppers

@dataclass
class PathState:
    """One path's field, step and noise path; a stepper input only.

    A stepper steps it as the batch of one and returns a PathBatch.
    """

    u: ScalarField
    step: int
    noise: NoisePath


@dataclass
class PathBatch:
    """P paths at one common step, stepped together; row p is path p.

    ``u`` is (P, n, n) and ``increments`` (P, m) holds each row's Brownian
    increments on the stepper's time grid. Rows never interact, so each row
    evolves bit for bit as it would alone. The real-space array is the whole
    state: steppers recompute spectral data from it every step, so a path
    checkpointed to disk and resumed reproduces the uninterrupted trajectory
    bit for bit.
    """

    u: np.ndarray
    step: int
    increments: np.ndarray


@dataclass
class StepAudit:
    """Per-step mass bookkeeping emitted by the steppers, one entry per batch row.

    Mass entries are spatial integrals; `drift_mass` excludes the implicit
    linear part, whose integral vanishes identically (zero symbol at k = 0).
    """

    dw: np.ndarray
    mass_before: np.ndarray
    mass_after: np.ndarray
    drift_mass: np.ndarray
    noise_mass: np.ndarray
    g_mass: np.ndarray
    hess_linf: np.ndarray | None = None

    @property
    def mass_residual(self) -> np.ndarray:
        return self.mass_after - (self.mass_before + self.drift_mass + self.noise_mass)


def _check_finite(values: np.ndarray, step: int):
    """Raise for every row of the (P, n, n) batch holding a NaN/inf entry."""
    finite = np.isfinite(values)
    if not finite.all():
        rows = {}
        for p in np.flatnonzero(~finite.all(axis=(1, 2))):
            i, j = np.argwhere(~finite[p])[0]
            rows[int(p)] = (int(i), int(j))
        raise NonFiniteFieldError(step, rows)


def _as_batch(state: PathState | PathBatch) -> PathBatch:
    """A batch as it is; a PathState as the batch of one at its step."""
    if isinstance(state, PathBatch):
        return state
    return PathBatch(state.u.values[None], state.step, state.noise.increments[None])


def _advanced(batch: PathBatch, u_plus, dt, n_explicit, g, dw, hess_linf=None):
    """The stepped batch and its audit.

    ``n_explicit`` and ``g`` are the explicit drift and the noise coefficient
    the step applied to ``batch.u``; the implicit linear part integrates to
    zero, so the mass bookkeeping needs nothing else.
    """
    u = batch.u
    inv_n2 = 1.0 / (u.shape[-1] ** 2)
    g_mass = np.sum(g, axis=(1, 2)) * inv_n2
    audit = StepAudit(
        dw=dw,
        mass_before=np.sum(u, axis=(1, 2)) * inv_n2,
        mass_after=np.sum(u_plus, axis=(1, 2)) * inv_n2,
        drift_mass=dt * np.sum(n_explicit, axis=(1, 2)) * inv_n2,
        noise_mass=g_mass * dw,
        g_mass=g_mass,
        hess_linf=hess_linf,
    )
    return PathBatch(u_plus, batch.step + 1, batch.increments), audit


class EmImexStepper:
    """Euler-Maruyama step with the stiff linear part implicit.

    u+ solves (Id - dt A) u+ = u + dt N(u) + g(u) dW, where A collects the
    form's Laplacian prefactor and polyharmonic term and N(u) is the explicit
    remainder (curvature terms only). Rejects Stratonovich forms: pairing the
    Stratonovich drift with an Ito scheme silently changes the equation.
    """

    def __init__(self, grid: GridSpec, form: ModelForm, dt: float):
        if form.kind is FormKind.STRATONOVICH_MCF:
            raise ValueError(
                "stratonovich_mcf drift cannot be stepped by the Ito scheme; use heun_strat"
            )
        if dt <= 0.0:
            raise ValueError("stepper needs dt > 0")
        self.grid = grid
        self.form = form
        self.dt = dt
        self.ws = get_workspace(grid.n)
        self.denom = 1.0 - dt * self.ws.linear_sym(form.lap_coef, form.eta, form.big_k)

    def step(self, state):
        """Advance every row of a PathBatch by one step.

        Returns the stepped PathBatch and its StepAudit; a PathState is
        stepped as the batch of one. Raises NonFiniteFieldError naming every
        row that blew up.
        """
        ws = self.ws
        batch = _as_batch(state)
        u = batch.u
        n_expl, g, hess_linf = explicit_terms(ws.forward(u), self.form, ws)
        dw = batch.increments[:, batch.step]
        rhs = u + self.dt * n_expl + g * dw[:, None, None]
        u_plus = ws.inverse(ws.forward(rhs) / self.denom)
        _check_finite(u_plus, batch.step + 1)
        return _advanced(batch, u_plus, self.dt, n_expl, g, dw, hess_linf)


class HeunStratStepper:
    """Predictor-corrector (Heun) step for the Stratonovich form.

    Fully explicit; the usual midpoint trapezoid in both drift and noise
    makes it consistent with the Stratonovich calculus. Linear stability at
    a flat graph needs dt * 8 pi^2 (n/2 - 1)^2 <= 2 (linear_dt_bound: 5.17e-4
    at n = 16; the first-derivative symbols drop the Nyquist mode, so this
    is above h^2 / pi^2). default_dt takes 0.05 h^2, under half the bound;
    the 0.25 h^2 proxy of the em_imex forms would blow Heun up. The noise
    enters only through the path's increments, so a zero path steps the
    deterministic flow.
    """

    def __init__(self, grid: GridSpec, form: ModelForm, dt: float):
        if form.kind is not FormKind.STRATONOVICH_MCF:
            raise ValueError(
                f"heun_strat steps the stratonovich_mcf form only, got {form.kind.value}"
            )
        if dt <= 0.0:
            raise ValueError("stepper needs dt > 0")
        self.grid = grid
        self.form = form
        self.dt = dt
        self.ws = get_workspace(grid.n)

    def step(self, state):
        """Advance every row of a PathBatch by one step, as :meth:`EmImexStepper.step`.

        A row failing in the predictor or the corrector is reported by
        NonFiniteFieldError.
        """
        ws = self.ws
        batch = _as_batch(state)
        u = batch.u
        dw = batch.increments[:, batch.step]
        dw3 = dw[:, None, None]
        hv0, g0, _ = explicit_terms(ws.forward(u), self.form, ws)
        pred = u + self.dt * hv0 + g0 * dw3
        _check_finite(pred, batch.step + 1)
        hv1, g1, _ = explicit_terms(ws.forward(pred), self.form, ws)
        drift_avg = 0.5 * (hv0 + hv1)
        g_avg = 0.5 * (g0 + g1)
        u_plus = u + self.dt * drift_avg + g_avg * dw3
        _check_finite(u_plus, batch.step + 1)
        return _advanced(batch, u_plus, self.dt, drift_avg, g_avg, dw)


# ---------------------------------------------------------------------------
# mild-solution fixed point

# The mild map holds two trajectory buffers, the current iterate and the
# next, and the real semigroup factors S(j dt): one field per time level
# each, about 2.5 complex trajectories, and the only memory that grows with
# m. PICARD_BLOCK_CELLS bounds the rest. Source levels are evaluated
# PICARD_BLOCK_CELLS // n^2 at a time (2 at n = 32, 16 KiB per real
# (rows, n, n) field) with their gradient, Hessian and transform
# temporaries, and each source reaches the later levels through a Duhamel
# scratch of eight such blocks of levels.
PICARD_BLOCK_CELLS = 1 << 11


@dataclass
class PicardReport:
    diffs: list[float]
    ratios: list[float]
    diverged: bool
    trajectory: list[ScalarField]


def mild_picard_iterate(
    u0: ScalarField,
    noise: NoisePath,
    form: ModelForm,
    horizon: float,
    iterations: int = 6,
) -> PicardReport:
    """Picard iteration for the mild formulation of the truncated equation.

    With S(t) the (spectrally exact) semigroup of the linear part, iterate

        u_{k+1}(t) = S(t) u0
                     - 1/2 sum_{s<t} S(t-s) [w^T Theta_R(D^2 u_k) w](s) dt
                     + sum_{s<t} S(t-s) H(grad u_k(s)) dW(s)

    with left-endpoint sums on the noise grid. Returns the sup-in-time L2
    differences d_k between successive iterates and their ratios; ratios
    below one exhibit the contraction, and they shrink with the horizon.

    Memory: two trajectory buffers of m + 1 Fourier states, swapped after
    each pass, and the real semigroup factors, about 2.5 complex
    trajectories; the sources and the Duhamel scratch are bounded by
    PICARD_BLOCK_CELLS. Every block size gives the same bits.
    """
    if form.kind is not FormKind.REGULARIZED_TRUNCATED:
        raise ValueError("mild iteration is defined for the regularized_truncated form")
    if iterations < 2:
        raise ValueError("need at least two iterations to report a ratio")
    grid = u0.grid
    ws = get_workspace(grid.n)
    dt = noise.dt
    m = int(round(horizon / dt))
    if m < 1 or abs(m * dt - horizon) > 1e-9 * max(horizon, dt):
        raise ValueError("horizon must be a positive multiple of the noise dt")
    if m > noise.n_steps:
        raise ValueError("noise path too short for the requested horizon")

    lin_sym = ws.linear_sym(form.lap_coef, form.eta, form.big_k)
    # semigroup factors S(j dt) for lags 0..m (lag 0 is the identity)
    semi = np.empty((m + 1,) + lin_sym.shape)
    semi[0] = 1.0
    step_factor = np.exp(dt * lin_sym)
    for j in range(1, m + 1):
        np.multiply(semi[j - 1], step_factor, out=semi[j])

    u0_hat = ws.forward(u0.values)
    inv_n = 1.0 / grid.n
    h2 = inv_n * inv_n
    rows = max(1, PICARD_BLOCK_CELLS // (grid.n * grid.n))
    dw = noise.increments[:m, None, None]
    # a source's terms S((j - s) dt) c_s, span target levels at a time
    span = 8 * rows
    scratch = np.empty((min(span, m),) + u0_hat.shape, dtype=complex)

    traj = semi * u0_hat  # S(t) u0 as starting guess
    nxt = np.empty_like(traj)
    diffs: list[float] = []
    for _ in range(iterations):
        # the mild map of traj into nxt: level j sums S(j dt) u0, then
        # S((j - s) dt) c_s for s = 0, 1, ..., j - 1, with the sources c_s
        # formed one block at a time
        nxt[0] = u0_hat
        np.multiply(semi[1:], u0_hat, out=nxt[1:])
        for lo in range(0, m, rows):
            hi = min(m, lo + rows)
            n_explicit, g, _ = explicit_terms(traj[lo:hi], form, ws)
            n_hat, g_hat = ws.forward(np.stack([n_explicit, g]))
            c = dt * n_hat + dw[lo:hi] * g_hat
            for s in range(lo, hi):
                for a in range(s + 1, m + 1, span):
                    b = min(m + 1, a + span)
                    nxt[a:b] += np.multiply(semi[a - s : b - s], c[s - lo], out=scratch[: b - a])
        sup = 0.0
        for lo in range(0, m + 1, rows):
            d = ws.inverse(nxt[lo : lo + rows] - traj[lo : lo + rows])
            # running max in level order; max() passes over a NaN distance
            for dj in np.sqrt(h2 * np.sum(d * d, axis=(1, 2))):
                sup = max(sup, float(dj))
        diffs.append(sup)
        traj, nxt = nxt, traj
    # free the spare buffer and the factors before the trajectory is built
    del nxt, semi, scratch
    ratios = [diffs[i + 1] / diffs[i] if diffs[i] > 0.0 else 0.0 for i in range(len(diffs) - 1)]
    run = 0
    diverged = False
    for r in ratios:
        run = run + 1 if r > 1.0 else 0
        if run >= 3:
            diverged = True
            break
    trajectory = [
        ScalarField(grid, values)
        for lo in range(0, m + 1, rows)
        for values in ws.inverse(traj[lo : lo + rows])
    ]
    return PicardReport(diffs=diffs, ratios=ratios, diverged=diverged, trajectory=trajectory)
