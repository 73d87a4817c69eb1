"""Energy records, martingale statistics, and inequality verdicts.

Everything here is diagnostic: per-sample scalar summaries of a field
trajectory (EnergyRecord), per-path martingale bookkeeping assembled from
stepper audits, and the ensemble-level checks (mean-zero, quadratic
variation, gradient-energy and area inequalities) with explicit
3-standard-error bands plus a time-discretization allowance.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import StepAudit
from .geometry import geometry_bundle
from .grid import DiffMethod, ScalarField, hess_linf_rows

__all__ = [
    "EnergyRecord",
    "RECORD_FIELDS",
    "record",
    "record_path_sample",
    "MartingaleSample",
    "MartingaleTracker",
    "MartingaleReport",
    "martingale_test",
    "GradientInequalityReport",
    "gradient_inequality_check",
    "AreaInequalityReport",
    "area_inequality_check",
    "kendall_tau",
    "mass_evolution_residual",
    "continuum_mass_residual",
    "integrated_area_process",
    "DEFAULT_C_DT",
]

# Allowance coefficient for time-discretization bias in inequality verdicts:
# the verdict band is [.. <= 3*SE + DEFAULT_C_DT * dt]. Calibrated once from a
# dt-refinement pilot (see tests); generous relative to the observed bias.
DEFAULT_C_DT = 50.0

RECORD_FIELDS = (
    "t",
    "grad_energy",
    "area",
    "mc_dissipation",
    "laplace_dissipation",
    "mass",
    "gauss_bonnet",
    "hess_linf",
    "u_min",
    "u_max",
)


@dataclass(frozen=True)
class EnergyRecord:
    """One row of monitor output; field order matches the CSV schema."""

    t: float
    grad_energy: float
    area: float
    mc_dissipation: float
    laplace_dissipation: float
    mass: float
    gauss_bonnet: float
    hess_linf: float
    u_min: float
    u_max: float

    def as_row(self) -> tuple[float, ...]:
        return (
            self.t,
            self.grad_energy,
            self.area,
            self.mc_dissipation,
            self.laplace_dissipation,
            self.mass,
            self.gauss_bonnet,
            self.hess_linf,
            self.u_min,
            self.u_max,
        )


def record(u: ScalarField, t: float, method: DiffMethod = DiffMethod.SPECTRAL) -> EnergyRecord:
    return record_path_sample(u, t, method)[0]


def record_path_sample(
    u: ScalarField | np.ndarray, t: float, method: DiffMethod = DiffMethod.SPECTRAL
):
    """EnergyRecord, the drift-mass rate <H v, 1> and <v, Lap u>, one bundle.

    <v, Lap u> is the rate at which an eps Lap u drift term removes area,
    d int H = -eps <v, Lap u> dt + ...; see :class:`AreaInequalityReport`.
    ``u`` is one field, or a (P, n, n) array of P fields at time t; then the
    three results hold one entry per row (a list of records and two arrays),
    each equal to the one-field result bit for bit.
    """
    if isinstance(u, ScalarField):
        recs, hv, v_lap = record_path_sample(u.values[None], t, method)
        return recs[0], float(hv[0]), float(v_lap[0])
    b = geometry_bundle(u, method, with_dw=True)
    h = 1.0 / u.shape[-1]
    hh = h * h

    def integral(x):
        return hh * np.sum(x, axis=(1, 2))

    lap = b.a11 + b.a22
    columns = (
        integral(b.g1 * b.g1 + b.g2 * b.g2),
        integral(b.H),
        integral(b.v**2 * b.H),
        integral(lap * lap),
        integral(u),
        integral((b.dw11 * b.dw22 - b.dw12 * b.dw21) * b.H),
        hess_linf_rows(b.a11, b.a12, b.a22),
        u.min(axis=(1, 2)),
        u.max(axis=(1, 2)),
    )
    recs = [EnergyRecord(t, *row) for row in zip(*(c.tolist() for c in columns))]
    return recs, integral(b.H * b.v), integral(b.v * lap)


# ---------------------------------------------------------------------------
# martingale bookkeeping

@dataclass(frozen=True)
class MartingaleSample:
    """Snapshot of one path's accumulators at a sample step.

    m        direct sum  sum_j <g_j, phi> dW_j
    m_def    <u(t) - u0, phi> minus the scheme's own drift integral
    qhat     sum_j dt <g_j, phi>^2   (quadratic-variation estimate)
    a_int    sum_j dt <g_j, phi>     (cross-variation reference)
    w        W(t)

    A tracker fed batch audits fills the five sums with one value per row.
    """

    step: int
    t: float
    m: float
    m_def: float
    qhat: float
    a_int: float
    w: float

    def row(self, i: int) -> "MartingaleSample":
        """Row i of a batch sample."""
        return MartingaleSample(
            self.step, self.t, float(self.m[i]), float(self.m_def[i]),
            float(self.qhat[i]), float(self.a_int[i]), float(self.w[i]),
        )


class MartingaleTracker:
    """Accumulates the martingale identities along one path.

    With phi omitted the test function is 1 and everything reduces to the
    audit's mass bookkeeping: the implicit linear part integrates to zero
    exactly, so m_def only needs the explicit drift masses. For a general
    smooth phi the tracker needs audits produced with want_fields=True plus
    the stepper (for its implicit operator split) and the initial field.

    With phi omitted it also accepts batch audits; every accumulator then
    holds one value per row, and :meth:`select` drops rows leaving the batch.
    """

    def __init__(
        self,
        dt: float,
        sample_steps: Sequence[int],
        phi: ScalarField | None = None,
        stepper=None,
        u0: ScalarField | None = None,
    ):
        self.dt = dt
        self.sample_steps = frozenset(int(s) for s in sample_steps)
        self.phi = phi
        if phi is not None:
            if stepper is None or u0 is None:
                raise ValueError("a general phi needs the stepper and the initial field")
            self.ws = stepper.ws
            # the implicit part A u+ that em_imex audits leave out of
            # n_explicit; heun_strat (lap_coef 0) has none
            form = stepper.form
            self.lin_sym = None
            if form.lap_coef != 0.0:
                self.lin_sym = self.ws.linear_sym(form.lap_coef, form.eta_eff, form.big_k)
            self.h2 = 1.0 / phi.grid.n**2
            self.phi_vals = phi.values
            self.mass0 = self.h2 * float(np.sum(u0.values * self.phi_vals))
        else:
            self.mass0 = None
        self.m = 0.0
        self.drift_int = 0.0
        self.qhat = 0.0
        self.a_int = 0.0
        self.w = 0.0
        self.step = 0
        self.samples: list[MartingaleSample] = []

    def _phi_pieces(self, audit: StepAudit) -> tuple[float, float, float]:
        """(<g,phi>, drift increment, <u_plus,phi>) for a general phi."""
        if audit.g is None or audit.n_explicit is None or audit.u_plus is None:
            raise ValueError("general-phi tracking needs audits with want_fields=True")
        gphi = self.h2 * float(np.sum(audit.g * self.phi_vals))
        drift_inc = self.dt * self.h2 * float(np.sum(audit.n_explicit * self.phi_vals))
        if self.lin_sym is not None:
            if audit.u_plus_hat is None:
                raise ValueError("implicit-split audits must carry u_plus_hat")
            au = self.ws.inverse(self.lin_sym * audit.u_plus_hat)
            drift_inc += self.dt * self.h2 * float(np.sum(au * self.phi_vals))
        mass_after = self.h2 * float(np.sum(audit.u_plus * self.phi_vals))
        return gphi, drift_inc, mass_after

    def update(self, audit: StepAudit) -> MartingaleSample | None:
        """Fold in one step; returns the sample taken at this step, if any."""
        if self.phi is None:
            if self.mass0 is None:
                self.mass0 = audit.mass_before
            gphi = audit.g_mass
            drift_inc = audit.drift_mass
            mass_after = audit.mass_after
        else:
            gphi, drift_inc, mass_after = self._phi_pieces(audit)
        # rebinding, not +=, so that batch samples never alias the sums
        self.m = self.m + gphi * audit.dw
        self.drift_int = self.drift_int + drift_inc
        self.qhat = self.qhat + self.dt * gphi * gphi
        self.a_int = self.a_int + self.dt * gphi
        self.w = self.w + audit.dw
        self.step += 1
        if self.step not in self.sample_steps:
            return None
        m_def = (mass_after - self.mass0) - self.drift_int
        sample = MartingaleSample(
            step=self.step,
            t=self.step * self.dt,
            m=self.m,
            m_def=m_def,
            qhat=self.qhat,
            a_int=self.a_int,
            w=self.w,
        )
        self.samples.append(sample)
        return sample

    def select(self, rows: np.ndarray):
        """Keep the per-row accumulators of the given batch rows only."""
        for name in ("m", "drift_int", "qhat", "a_int", "w", "mass0"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                setattr(self, name, value[rows])


@dataclass
class MartingaleReport:
    """Ensemble statistics of M(t) at each sample time."""

    times: np.ndarray
    n_paths: int
    n_censored: int
    mean_m: np.ndarray
    se_m: np.ndarray
    var_m: np.ndarray
    qhat_mean: np.ndarray
    var_ratio: np.ndarray          # Var M / mean Qhat
    cross_mean: np.ndarray         # mean of M W - a_int
    cross_se: np.ndarray
    mean_ok: np.ndarray            # |mean M| <= 3 SE
    cross_ok: np.ndarray
    assembly_gap: float            # max |m - m_def| over paths and times

    @property
    def ok(self) -> bool:
        return bool(np.all(self.mean_ok) and np.all(self.cross_ok))


def martingale_test(
    per_path_samples: Sequence[Sequence[MartingaleSample]], n_censored: int = 0
) -> MartingaleReport:
    if not per_path_samples:
        raise ValueError("no paths supplied")
    n_times = len(per_path_samples[0])
    if any(len(s) != n_times for s in per_path_samples):
        raise ValueError("paths carry different sample-time sets")
    if n_times == 0:
        raise ValueError("paths carry no martingale samples")
    p = len(per_path_samples)
    m = np.array([[s.m for s in path] for path in per_path_samples])
    m_def = np.array([[s.m_def for s in path] for path in per_path_samples])
    qhat = np.array([[s.qhat for s in path] for path in per_path_samples])
    a_int = np.array([[s.a_int for s in path] for path in per_path_samples])
    w = np.array([[s.w for s in path] for path in per_path_samples])
    times = np.array([s.t for s in per_path_samples[0]])

    mean_m = m.mean(axis=0)
    var_m = m.var(axis=0, ddof=1)
    se_m = np.sqrt(var_m / p)
    qhat_mean = qhat.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        var_ratio = np.where(qhat_mean > 0.0, var_m / qhat_mean, np.nan)
    cross = m * w - a_int
    cross_mean = cross.mean(axis=0)
    cross_se = cross.std(axis=0, ddof=1) / np.sqrt(p)
    return MartingaleReport(
        times=times,
        n_paths=p,
        n_censored=n_censored,
        mean_m=mean_m,
        se_m=se_m,
        var_m=var_m,
        qhat_mean=qhat_mean,
        var_ratio=var_ratio,
        cross_mean=cross_mean,
        cross_se=cross_se,
        mean_ok=np.abs(mean_m) <= 3.0 * se_m,
        cross_ok=np.abs(cross_mean) <= 3.0 * cross_se,
        assembly_gap=float(np.max(np.abs(m - m_def))),
    )


# ---------------------------------------------------------------------------
# inequality checks

def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid along the last axis, zero at the first node."""
    dt = np.diff(t)
    inc = 0.5 * dt * (y[..., 1:] + y[..., :-1])
    out = np.zeros_like(y)
    out[..., 1:] = np.cumsum(inc, axis=-1)
    return out


@dataclass
class GradientInequalityReport:
    times: np.ndarray
    mean_x: np.ndarray       # mean of ge(t) + 2 eps int ||Lap u||^2 - ge(0)
    se_x: np.ndarray
    allowance: float         # c * dt
    margins: np.ndarray      # (3 SE + allowance) - mean_x, nonnegative iff ok
    verdict: str             # "pass" | "fail" | "insufficient sample"

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"


def gradient_inequality_check(
    records_per_path: Sequence[Sequence[EnergyRecord]],
    eps: float,
    dt: float,
    c_dt: float = DEFAULT_C_DT,
    min_paths: int = 50,
) -> GradientInequalityReport:
    """Ensemble check of E ge(t) + 2 eps E int_0^t ||Lap u||^2 <= E ge(0).

    Evaluated as the paired per-path statistic X_i(t) = ge_i(t)
    + 2 eps I_i(t) - ge_i(0) with I the trapezoid cumulative integral of the
    recorded Laplacian dissipation; passes when mean X <= 3 SE(X) + c dt at
    every recorded time.
    """
    p = len(records_per_path)
    times = np.array([r.t for r in records_per_path[0]])
    ge = np.array([[r.grad_energy for r in path] for path in records_per_path])
    lap = np.array([[r.laplace_dissipation for r in path] for path in records_per_path])
    x = ge + 2.0 * eps * _cumtrapz(lap, times) - ge[:, :1]
    mean_x = x.mean(axis=0)
    se_x = x.std(axis=0, ddof=1) / np.sqrt(p) if p > 1 else np.zeros_like(mean_x)
    allowance = c_dt * dt
    margins = 3.0 * se_x + allowance - mean_x
    if p < min_paths:
        verdict = "insufficient sample"
    else:
        verdict = "pass" if bool(np.all(margins >= 0.0)) else "fail"
    return GradientInequalityReport(
        times=times, mean_x=mean_x, se_x=se_x, allowance=allowance,
        margins=margins, verdict=verdict,
    )


@dataclass
class AreaInequalityReport:
    """Surface-area budget of one ensemble and its exact decomposition.

    For the regularized form at eta = 0 (the Ito form of
    du = (H v + eps Lap u) dt + H o dW) the area obeys

        d int H = -int H v^2 dt - eps <v, Lap u> dt - <H v, dW>,

    the noise's second-order term being int K dA = 0 (Gauss-Bonnet), and
    <v, Lap u> = int (|D^2u|^2 - |D^2u grad u|^2 / H^2) / H >= 0. Taking
    expectations over [0, T],

        E area(T) - E area(0) + E D + eps E iint <v, Lap u> = 0,

    with D = iint v^2 H the monitored dissipation. ``closure_mean`` is the
    left side as measured (zero up to sampling and time-discretization
    error). As eps -> 0 the eps share of the area loss passes to D, so the
    excess grows toward its eps = 0 value; it is bounded uniformly in eps,
    not monotone in eps.
    """

    ratio: float             # [E sup_t area + 1/2 E iint v^2 H] / E area(0)
    excess: float            # ratio - 1
    sup_mean: float
    dissipation_mean: float  # E D
    area0_mean: float
    n_paths: int
    area_end_mean: float     # E area(T), T the last record time
    eps_share_mean: float    # eps E iint <v, Lap u>; 0 when eps = 0
    eps_share_min: float     # smallest per-path eps share
    closure_mean: float      # E [area(T) - area(0) + D + eps share]
    closure_se: float        # standard error of closure_mean

    @property
    def bounded(self) -> bool:
        return np.isfinite(self.ratio)


def area_inequality_check(
    records_per_path: Sequence[Sequence[EnergyRecord]],
    v_lap_per_path: Sequence[Sequence[float]] | None = None,
    eps: float = 0.0,
) -> AreaInequalityReport:
    """Surface-area budget ratio for one ensemble, plus its decomposition.

    sup_t is taken over the recording grid (a lower bound to the true sup);
    the dissipation integral is the trapezoid of the recorded |v|^2 H series,
    and the eps share the same trapezoid of the recorded <v, Lap u> series
    (one row per path, aligned with the records) times eps.
    """
    p = len(records_per_path)
    times = np.array([r.t for r in records_per_path[0]])
    area = np.array([[r.area for r in path] for path in records_per_path])
    diss = np.array([[r.mc_dissipation for r in path] for path in records_per_path])
    sup_mean = float(area.max(axis=1).mean())
    diss_tot = _cumtrapz(diss, times)[:, -1]
    dissipation_mean = float(diss_tot.mean())
    area0_mean = float(area[:, 0].mean())
    ratio = (sup_mean + 0.5 * dissipation_mean) / area0_mean
    if v_lap_per_path is None:
        if eps != 0.0:
            raise ValueError("an eps share needs the recorded <v, Lap u> series")
        share = np.zeros(p)
    else:
        v_lap = np.array(v_lap_per_path, dtype=float)
        if v_lap.shape != area.shape:
            raise ValueError("<v, Lap u> series must align with the records")
        share = eps * _cumtrapz(v_lap, times)[:, -1]
    closure = area[:, -1] - area[:, 0] + diss_tot + share
    closure_se = float(closure.std(ddof=1) / np.sqrt(p)) if p > 1 else 0.0
    return AreaInequalityReport(
        ratio=ratio,
        excess=ratio - 1.0,
        sup_mean=sup_mean,
        dissipation_mean=dissipation_mean,
        area0_mean=area0_mean,
        n_paths=p,
        area_end_mean=float(area[:, -1].mean()),
        eps_share_mean=float(share.mean()),
        eps_share_min=float(share.min()),
        closure_mean=float(closure.mean()),
        closure_se=closure_se,
    )


def kendall_tau(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Kendall rank correlation (tau-a), O(n^2), no tie correction."""
    n = len(xs)
    if n != len(ys) or n < 2:
        raise ValueError("need two equally long sequences of length >= 2")
    conc = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            s = np.sign(xs[j] - xs[i]) * np.sign(ys[j] - ys[i])
            conc += int(s)
    return 2.0 * conc / (n * (n - 1))


# ---------------------------------------------------------------------------
# mass bookkeeping

def mass_evolution_residual(audits: Sequence[StepAudit]) -> np.ndarray:
    """Per-step residual of the scheme-consistent spatial-mean identity.

    r_j = mass_after - mass_before - drift_mass - noise_mass, with the drift
    integral split exactly as the stepper applied it (the implicit part has
    zero mean by its symbol). Rounding-level for a correct stepper.
    """
    return np.array([a.mass_residual for a in audits])


def continuum_mass_residual(
    records: Sequence[EnergyRecord],
    hv_mass: Sequence[float],
    w_at_records: Sequence[float],
    drift_mean_coef: float = 0.5,
) -> np.ndarray:
    """Mass-evolution residual against the continuum identity.

    Uses left-endpoint sums of c <H v, 1> dt + <H, 1> dW on the recording
    grid, so the result is a genuine O(dt) discretization residual rather
    than the scheme-exact bookkeeping. c defaults to 1/2: each Ito drift's
    spatial mean reduces to <H v, 1>/2 because the Laplacian-type parts
    integrate to zero and <w . D2u w, 1> = -<H v, 1>.
    """
    k = len(records)
    if len(hv_mass) != k or len(w_at_records) != k:
        raise ValueError("records, hv_mass, and w_at_records must align")
    mass = np.array([r.mass for r in records])
    area = np.array([r.area for r in records])
    t = np.array([r.t for r in records])
    hv = np.asarray(hv_mass, dtype=float)
    w = np.asarray(w_at_records, dtype=float)
    res = np.zeros(k)
    acc = 0.0
    for j in range(1, k):
        acc += drift_mean_coef * hv[j - 1] * (t[j] - t[j - 1]) + area[j - 1] * (w[j] - w[j - 1])
        res[j] = mass[j] - mass[0] - acc
    return res


def integrated_area_process(records: Sequence[EnergyRecord], theta: float = 0.5) -> np.ndarray:
    """Cumulative trapezoid of area(t)^(1+theta) over the recording grid."""
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
    t = np.array([r.t for r in records])
    a = np.array([r.area for r in records]) ** (1.0 + theta)
    return _cumtrapz(a, t)
