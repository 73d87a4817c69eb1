"""Single-path runs, Monte Carlo ensembles, and shared-noise parameter sweeps.

Paths advance together: each is one row of a (P, n, n) batch that the
steppers and monitors process in one pass per step, and a single run is the
batch of one. Rows never interact, and the batched transforms and
reductions equal the one-row ones bit for bit, so every path of an ensemble
equals its one-path run. Every ensemble result is a pure function of
(config, base_seed): per-path noise comes from a counter-derived seed, and
all reductions run in path-index order.

Ensembles and explicit noise-path runs split their P paths into W
contiguous slices in path order, W = the usable core count clamped to
[1, P] (see worker_count). The calling process runs slice 0 and one forked
child runs each other slice and pipes its pickled results back; they are
joined in path order. Since rows never interact, every bit is the same at
every W. A process that runs other threads never forks.
"""
from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Callable, Iterable, Sequence

import numpy as np

from .dynamics import (
    FORM_READS,
    EmImexStepper,
    FormKind,
    HeunStratStepper,
    ModelForm,
    NonFiniteFieldError,
    PathBatch,
)
from .grid import GridSpec, ScalarField, get_workspace, l2_norm_sq
from .monitors import (
    EnergyRecord,
    MartingaleReport,
    MartingaleSample,
    MartingaleTracker,
    area_inequality_check,
    martingale_test,
    record_path_sample,
)
from .noise import NoisePath, path_seed

__all__ = [
    "ModelConfig",
    "PathResult",
    "EnsembleReport",
    "SweepPlan",
    "EtaSweepReport",
    "EpsilonSweepReport",
    "TruncationReport",
    "make_stepper",
    "run_path",
    "run_paths",
    "run_ensemble",
    "worker_count",
    "sweep_eta",
    "sweep_epsilon",
    "sweep_R",
]

# An ensemble batch holds at most BATCH_CELLS // n^2 rows (256 KiB per
# (rows, n, n) field). Ensemble throughput at n = 16, 32 and 64 peaked near
# this size on a 2-vCPU box with numpy 2.4.6; larger batches fall out of
# cache, and the cap keeps memory bounded at large n.
BATCH_CELLS = 1 << 15


@dataclass(frozen=True)
class ModelConfig:
    """Everything needed to advance one path, minus the initial field."""

    form: ModelForm
    n: int
    dt: float
    n_steps: int
    record_stride: int = 10
    martingale_steps: tuple[int, ...] = ()
    stop_at_tau_r: bool = False

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if any(s < 1 or s > self.n_steps for s in self.martingale_steps):
            raise ValueError("martingale sample steps must lie in [1, n_steps]")
        if self.stop_at_tau_r and "r_trunc" not in FORM_READS[self.form.kind]:
            raise ValueError(
                f"stop_at_tau_r needs form = regularized_truncated, got {self.form.kind.value}"
            )
        # refuses a K whose polyharmonic symbol overflows at n, also on a
        # sweep's eta values, before any stepper or worker starts
        get_workspace(self.n).linear_sym(self.form.lap_coef, self.form.eta, self.form.big_k)
        if self.stop_at_tau_r and self.martingale_steps:
            # The ensemble martingale test needs the same sample steps on
            # every path; a one-path run would not, so this check could move
            # into run_ensemble if such a run ever needs both options.
            raise ValueError(
                "stop_at_tau_r cannot be combined with martingale_steps: a path "
                "stopped at tau_R misses its later martingale samples, and the "
                "ensemble martingale test needs the same sample steps on every path"
            )

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.n)

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt


def make_stepper(cfg: ModelConfig):
    """The form picks the scheme: Heun for the Stratonovich form, em_imex otherwise."""
    strat = cfg.form.kind is FormKind.STRATONOVICH_MCF
    cls = HeunStratStepper if strat else EmImexStepper
    return cls(cfg.grid, cfg.form, cfg.dt)


@dataclass
class PathResult:
    """One path's run; its batch row appends to it and completes it on leaving."""

    seed: int                      # seed of the driving noise path
    records: list[EnergyRecord] = field(default_factory=list)
    record_steps: list[int] = field(default_factory=list)
    # <v, Lap u> at the record times; a list until the row leaves its batch
    v_lap: np.ndarray = field(default_factory=list)
    terminal: ScalarField | None = None
    steps_done: int = 0
    max_mass_residual: float = 0.0
    censored: bool = False
    blowup_step: int | None = None
    blowup_index: tuple[int, int] | None = None  # first non-finite grid entry
    tau_r_time: float | None = None
    martingale_samples: list[MartingaleSample] = field(default_factory=list)

    @property
    def tau_r_triggered(self) -> bool:
        return self.tau_r_time is not None


def run_path(
    cfg: ModelConfig,
    u0: ScalarField,
    noise: NoisePath,
    stepper=None,
    start_step: int = 0,
    checkpoint_every: int | None = None,
    checkpoint_cb: Callable[[ScalarField, int], None] | None = None,
) -> PathResult:
    """Advance one path driven by noise up to cfg.n_steps, recording monitors.

    A deterministic run passes a zero path, NoisePath(seed, dt, 0,
    np.zeros(n_steps)). start_step > 0 resumes from a checkpointed field (u0
    is then the state at that step); a run ends at cfg.n_steps, so a shorter
    one sets a smaller n_steps on a noise path of any length that covers it.
    checkpoint_cb(field, step) is invoked every checkpoint_every completed
    steps. The path runs as the batch of one of the ensemble loop.
    """
    _check_noise(cfg, noise)
    if stepper is None:
        stepper = make_stepper(cfg)
    if not 0 <= start_step <= cfg.n_steps:
        raise ValueError("start_step outside [0, n_steps]")
    (result,) = _run_batch(
        cfg, stepper, u0.values[None], [noise], start_step, checkpoint_every, checkpoint_cb
    )
    return result


def _check_noise(cfg: ModelConfig, noise: NoisePath):
    if abs(noise.dt - cfg.dt) > 1e-15 * max(cfg.dt, 1.0):
        raise ValueError("noise path dt does not match the config dt")
    if noise.n_steps < cfg.n_steps:
        raise ValueError("noise path shorter than the run")


def run_paths(
    cfg: ModelConfig,
    u0: ScalarField | Callable[[int], ScalarField],
    noises: Iterable[NoisePath],
) -> list[PathResult]:
    """Run one path per noise path; path i starts from u0, or from u0(i).

    Every noise path is checked before any path runs. The paths advance in
    worker slices (see worker_count), each in batches of at most
    BATCH_CELLS // n^2 rows, and each result equals run_path(cfg, u0, noise)
    bit for bit.
    """
    noises = list(noises)
    for nz in noises:
        _check_noise(cfg, nz)
    return _run_slices(cfg, u0, len(noises), noises.__getitem__)


def worker_count() -> int:
    """Worker processes for run_paths and run_ensemble.

    Every core this process may run on, or 1 without os.fork or while other
    threads run: a child forked while another thread holds a lock can
    deadlock.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_slices(
    cfg: ModelConfig,
    u0: ScalarField | Callable[[int], ScalarField],
    n_paths: int,
    noise_of: Callable[[int], NoisePath],
) -> list[PathResult]:
    """Run paths 0..n_paths-1, path i driven by noise_of(i), in path order.

    Slice w of W holds paths [P*w//W, P*(w+1)//W). Slices 1..W-1 run in
    forked children, started before this process runs slice 0, so each
    slice draws its own noise in its own process. Every child is reaped on
    every exit; on a failure the remaining ones are killed first.
    """
    workers = min(worker_count(), n_paths)
    if workers <= 1:
        return _run_slice(cfg, u0, 0, n_paths, noise_of)
    bounds = [n_paths * w // workers for w in range(workers + 1)]
    children: dict[int, tuple[int, BinaryIO]] = {}
    try:
        for w in range(1, workers):
            children[w] = _fork_slice(cfg, u0, bounds[w], bounds[w + 1], noise_of)
        results = _run_slice(cfg, u0, bounds[0], bounds[1], noise_of)
        for w in range(1, workers):
            pid, pipe = children[w]
            try:
                ok, payload = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                ok, payload = None, None
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del children[w]
            if ok is None:
                raise RuntimeError(
                    f"the worker for paths [{bounds[w]}, {bounds[w + 1]}) ended without "
                    f"a result (exit code {os.waitstatus_to_exitcode(status)})"
                )
            if not ok:
                exc, child_tb = payload
                raise exc from RuntimeError(
                    f"in the worker for paths [{bounds[w]}, {bounds[w + 1]}):\n{child_tb}"
                )
            results += payload
        return results
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_slice(cfg, u0, lo, hi, noise_of) -> tuple[int, BinaryIO]:
    """Fork a child that runs paths [lo, hi) and pickles the outcome into a pipe.

    The outcome is (True, results) or (False, (exception, traceback text)).
    The child leaves by os._exit, so it never returns into the caller.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    code = 1
    try:
        os.close(read_fd)
        try:
            outcome = (True, _run_slice(cfg, u0, lo, hi, noise_of))
        except BaseException as e:  # re-raised in the parent
            import traceback  # only a failing child needs it

            outcome = (False, (_portable(e), traceback.format_exc()))
        with open(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe)
        code = 0
    finally:
        os._exit(code)


def _portable(exc: BaseException) -> BaseException:
    """exc if it survives a pickle round trip, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _run_slice(cfg, u0, lo, hi, noise_of) -> list[PathResult]:
    """Paths lo..hi-1 in batches of at most BATCH_CELLS // n^2 rows."""
    stepper = make_stepper(cfg)
    rows = max(1, BATCH_CELLS // (cfg.n * cfg.n))
    results: list[PathResult] = []
    for first in range(lo, hi, rows):
        paths = range(first, min(first + rows, hi))
        noises = [noise_of(i) for i in paths]
        u = np.stack([(u0(i) if callable(u0) else u0).values for i in paths])
        results += _run_batch(cfg, stepper, u, noises)
    return results


def _run_batch(
    cfg: ModelConfig,
    stepper,
    u0: np.ndarray,
    noises: Sequence[NoisePath],
    start_step: int = 0,
    checkpoint_every: int | None = None,
    checkpoint_cb: Callable[[ScalarField, int], None] | None = None,
) -> list[PathResult]:
    """Advance the rows of u0 (P, n, n) in lockstep, row p driven by noises[p].

    A row leaves the batch when it turns non-finite (censored with the step
    and grid index of the blow-up) or, under stop_at_tau_r, once its tau_R
    has latched; the other rows go on unchanged. checkpoint_cb receives the
    field of row 0 and its step, so it serves one-path runs.
    """
    trunc = cfg.form.kind is FormKind.REGULARIZED_TRUNCATED
    r_half = 0.5 * cfg.form.r_trunc
    results = [PathResult(nz.seed) for nz in noises]
    live = results  # the result of each batch row
    tau_hit = np.zeros(len(noises), dtype=bool)
    max_res = np.zeros(len(noises))
    tracker = (
        MartingaleTracker(cfg.dt, cfg.martingale_steps) if cfg.martingale_steps else None
    )
    dt = noises[0].dt  # record and tau_R times are step * dt
    increments = np.stack([nz.increments[: cfg.n_steps] for nz in noises])
    batch = PathBatch(u0, start_step, increments)

    def take_record():
        recs, vl = record_path_sample(batch.u, batch.step * dt)
        for res, rec, v in zip(live, recs, vl):
            res.records.append(rec)
            res.record_steps.append(batch.step)
            res.v_lap.append(v)
        return recs

    def latch(hit: np.ndarray):
        """Latch tau_R at the current time for rows whose ||D^2 u||_inf hit R/2."""
        nonlocal tau_hit
        for r in np.flatnonzero(hit & ~tau_hit):
            live[r].tau_r_time = batch.step * dt
        tau_hit = tau_hit | hit

    def finish(leaving: dict):
        """Complete the results of the given batch rows and drop them from the batch.

        ``leaving`` maps a row to its blow-up (step, grid index), or to None.
        """
        nonlocal batch, live, tau_hit, max_res
        for r, blowup in leaving.items():
            res = live[r]
            # a copy, so a kept terminal does not pin the whole batch array
            res.terminal = ScalarField(cfg.grid, batch.u[r].copy())
            res.steps_done = batch.step
            res.max_mass_residual = float(max_res[r])
            res.v_lap = np.array(res.v_lap)
            if blowup is not None:
                res.censored = True
                res.blowup_step, res.blowup_index = blowup
        # a mask, not np.setdiff1d, whose np.unique imports all of numpy.ma
        kept = np.ones(len(live), dtype=bool)
        kept[list(leaving)] = False
        keep = np.flatnonzero(kept)
        batch = replace(batch, u=batch.u[keep], increments=batch.increments[keep])
        live = [live[r] for r in keep]
        tau_hit, max_res = tau_hit[keep], max_res[keep]
        if tracker is not None:
            tracker.select(keep)

    recs = take_record()
    if trunc:
        latch(np.array([rec.hess_linf for rec in recs]) >= r_half)

    while live and batch.step < cfg.n_steps:
        if cfg.stop_at_tau_r and tau_hit.any():
            finish({r: None for r in np.flatnonzero(tau_hit)})
            continue
        try:
            new_batch, audit = stepper.step(batch)
        except NonFiniteFieldError as e:
            finish({r: (e.step, idx) for r, idx in e.rows.items()})
            continue
        if trunc:
            latch(audit.hess_linf >= r_half)
        batch = new_batch
        max_res = np.maximum(max_res, np.abs(audit.mass_residual))
        if tracker is not None:
            sample = tracker.update(audit)
            if sample is not None:
                for r, res in enumerate(live):
                    res.martingale_samples.append(sample.row(r))
        if batch.step % cfg.record_stride == 0 or batch.step == cfg.n_steps:
            take_record()
        if (
            checkpoint_cb is not None
            and checkpoint_every
            and (batch.step - start_step) % checkpoint_every == 0
        ):
            checkpoint_cb(ScalarField(cfg.grid, batch.u[0]), batch.step)

    finish({r: None for r in range(len(live))})
    return results


@dataclass
class EnsembleReport:
    """The path results in path order; the counts are derived from them."""

    results: list[PathResult]
    wall_clock: float  # seconds, the martingale test included
    martingale: MartingaleReport | None = None

    @property
    def n_paths(self) -> int:
        return len(self.results)

    @property
    def n_censored(self) -> int:
        return sum(1 for r in self.results if r.censored)

    @property
    def total_steps(self) -> int:
        return sum(r.steps_done for r in self.results)

    @property
    def censor_rate(self) -> float:
        return self.n_censored / self.n_paths

    @property
    def ok(self) -> bool:
        return self.censor_rate <= 0.01

    def uncensored(self) -> list[PathResult]:
        return [r for r in self.results if not r.censored]

    def records_matrix(self, field_name: str) -> np.ndarray:
        """(paths, record_times) array of one EnergyRecord field, uncensored."""
        rows = [
            [getattr(rec, field_name) for rec in r.records] for r in self.uncensored()
        ]
        return np.array(rows)

    @property
    def record_times(self) -> np.ndarray:
        return np.array([rec.t for rec in self.uncensored()[0].records])

    @property
    def max_mass_residual(self) -> float:
        return max(r.max_mass_residual for r in self.results)


def run_ensemble(
    cfg: ModelConfig,
    u0: ScalarField | Callable[[int], ScalarField],
    n_paths: int,
    base_seed: int,
) -> EnsembleReport:
    """Monte Carlo ensemble with per-path derived seeds and ordered reduction.

    The paths advance in worker slices and batches as in run_paths, each
    slice drawing only its own paths' noise; each path's result equals its
    one-path run_path bit for bit.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    t0 = time.perf_counter()
    results = _run_slices(
        cfg, u0, n_paths,
        lambda i: NoisePath.generate(path_seed(base_seed, i), cfg.dt, cfg.n_steps),
    )

    mart = None
    if cfg.martingale_steps:
        samples = [r.martingale_samples for r in results if not r.censored]
        if samples:
            mart = martingale_test(samples, n_censored=n_paths - len(samples))
    return EnsembleReport(results, time.perf_counter() - t0, mart)


# ---------------------------------------------------------------------------
# parameter sweeps (common random numbers along the swept axis)

# sweep axis -> the ModelForm field its values replace
SWEEP_FIELDS = {"eta": "eta", "epsilon": "eps", "R": "r_trunc"}
SWEEP_AXES = tuple(SWEEP_FIELDS)


@dataclass(frozen=True)
class SweepPlan:
    """One sweep axis and its values; validated on construction.

    A plan whose form does not read its axis (FORM_READS) is refused.
    ``configs`` holds one config per value, so an out-of-range value fails
    here, before any ensemble runs.
    """

    axis: str
    values: tuple
    base_config: ModelConfig
    n_paths: int
    base_seed: int
    configs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}; pick one of {SWEEP_AXES}")
        vals = list(self.values)
        if len(vals) < 2:
            raise ValueError("a sweep needs at least two values")
        up = all(b > a for a, b in zip(vals, vals[1:]))
        down = all(b < a for a, b in zip(vals, vals[1:]))
        if not (up or down):
            raise ValueError("sweep values must be strictly monotone")
        if self.axis == "R" and not up:
            raise ValueError("R sweeps must increase")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        base = self.base_config
        name = SWEEP_FIELDS[self.axis]
        if name not in FORM_READS[base.form.kind]:
            readers = " or ".join(k.value for k in FormKind if name in FORM_READS[k])
            raise ValueError(f"{self.axis} sweeps need form = {readers}")
        configs = tuple(replace(base, form=replace(base.form, **{name: v})) for v in vals)
        object.__setattr__(self, "configs", configs)


def _run_sweep(plan: SweepPlan, u0: ScalarField, axis: str) -> list[EnsembleReport]:
    """One ensemble per sweep value, every one on the plan's path seeds."""
    if plan.axis != axis:
        raise ValueError(f"plan axis must be {axis!r}")
    return [run_ensemble(cfg, u0, plan.n_paths, plan.base_seed) for cfg in plan.configs]


def _mean_successive_l2_diffs(reports: Sequence[EnsembleReport]) -> np.ndarray:
    """Mean over paths of ||u_j - u_{j+1}||_L2 for consecutive sweep values."""
    out = []
    for ra, rb in zip(reports, reports[1:]):
        diffs = [
            np.sqrt(
                l2_norm_sq(ScalarField(a.terminal.grid, a.terminal.values - b.terminal.values))
            )
            for a, b in zip(ra.results, rb.results)
        ]
        out.append(float(np.mean(diffs)))
    return np.array(out)


@dataclass
class EtaSweepReport:
    etas: tuple
    mean_diffs: np.ndarray
    cauchy: bool
    reports: list[EnsembleReport]


def sweep_eta(plan: SweepPlan, u0: ScalarField) -> EtaSweepReport:
    """Shared-noise sweep of the polyharmonic coefficient toward 0."""
    reports = _run_sweep(plan, u0, "eta")
    diffs = _mean_successive_l2_diffs(reports)
    cauchy = bool(np.all(np.diff(diffs) < 0.0))
    return EtaSweepReport(etas=tuple(plan.values), mean_diffs=diffs, cauchy=cauchy, reports=reports)


@dataclass
class EpsilonSweepReport:
    """Vanishing-viscosity sweep results, one entry per eps.

    The area-budget terms are relative to E area(0) and satisfy
    area_excess = sup_term + half_dissipation and, up to sampling and
    time-discretization error, area_change + 2 half_dissipation + eps_share
    = closure = 0 (the identity in :class:`AreaInequalityReport`).
    """

    eps_values: tuple
    area_excess: np.ndarray
    grad_margin: np.ndarray     # E ge(T) - (E ge(0) + 3 SE), negative = bound holds
    grad_uniform: bool
    mean_diffs: np.ndarray
    reports: list[EnsembleReport]
    area0: np.ndarray           # E area(0)
    sup_term: np.ndarray        # E sup_t area / E area(0) - 1
    half_dissipation: np.ndarray  # 1/2 E iint v^2 H / E area(0)
    eps_share: np.ndarray       # eps E iint <v, Lap u> / E area(0)
    eps_share_min: np.ndarray   # smallest per-path eps share / E area(0)
    area_change: np.ndarray     # (E area(T) - E area(0)) / E area(0)
    closure: np.ndarray         # area_change + 2 half_dissipation + eps_share
    closure_se: np.ndarray      # standard error of closure


def sweep_epsilon(plan: SweepPlan, u0: ScalarField) -> EpsilonSweepReport:
    """Shared-noise vanishing-viscosity sweep with area-budget decomposition.

    At eta = 0 each ensemble's area obeys
    E area(T) - E area(0) + E iint v^2 H + eps E iint <v, Lap u> = 0,
    so as eps -> 0 the eps share of the area loss moves into the monitored
    dissipation and the area-budget excess rises; what the limit needs is a
    bound uniform in eps, not a trend. The report carries every term of that
    identity per eps, with the dissipation and the eps share integrated by
    the same trapezoid over the recording grid.
    """
    reports = _run_sweep(plan, u0, "epsilon")
    budgets = []
    margins = []
    for eps, rep in zip(plan.values, reports):
        kept = rep.uncensored()
        budgets.append(
            area_inequality_check([r.records for r in kept], [r.v_lap for r in kept], eps)
        )
        ge = rep.records_matrix("grad_energy")
        gap = ge[:, -1] - ge[:, 0]
        se = gap.std(ddof=1) / np.sqrt(len(gap)) if len(gap) > 1 else 0.0
        margins.append(float(gap.mean() - 3.0 * se))
    diffs = _mean_successive_l2_diffs(reports)
    margins = np.array(margins)
    area0 = np.array([b.area0_mean for b in budgets])

    def rel(fn):
        return np.array([fn(b) for b in budgets]) / area0

    return EpsilonSweepReport(
        eps_values=tuple(plan.values),
        area_excess=np.array([b.excess for b in budgets]),
        grad_margin=margins,
        grad_uniform=bool(np.all(margins <= 0.0)),
        mean_diffs=diffs,
        reports=reports,
        area0=area0,
        sup_term=rel(lambda b: b.sup_mean - b.area0_mean),
        half_dissipation=rel(lambda b: 0.5 * b.dissipation_mean),
        eps_share=rel(lambda b: b.eps_share_mean),
        eps_share_min=rel(lambda b: b.eps_share_min),
        area_change=rel(lambda b: b.area_end_mean - b.area0_mean),
        closure=rel(lambda b: b.closure_mean),
        closure_se=rel(lambda b: b.closure_se),
    )


@dataclass
class TruncationReport:
    r_values: tuple
    trigger_fraction: np.ndarray
    fraction_nonincreasing: bool
    final_fraction_zero: bool
    untriggered_bit_identical: bool
    reports: list[EnsembleReport]


def sweep_R(plan: SweepPlan, u0: ScalarField) -> TruncationReport:
    """Increasing truncation radii: triggers must die out and become inert."""
    reports = _run_sweep(plan, u0, "R")
    fractions = np.array([
        sum(1 for p in rep.results if p.tau_r_triggered) / plan.n_paths for rep in reports
    ])
    identical = True
    for ra, rb in zip(reports, reports[1:]):
        for pa, pb in zip(ra.results, rb.results):
            if pa.tau_r_triggered or pb.tau_r_triggered:
                continue
            if not np.array_equal(pa.terminal.values, pb.terminal.values):
                identical = False
    return TruncationReport(
        r_values=tuple(plan.values),
        trigger_fraction=fractions,
        fraction_nonincreasing=bool(np.all(np.diff(fractions) <= 0.0)),
        final_fraction_zero=bool(fractions[-1] == 0.0),
        untriggered_bit_identical=identical,
        reports=reports,
    )
