"""Command-line surface: run, ensemble, sweep, verify, resume.

Exit codes: 0 success, 1 validation failure (bad config/arguments or a
failed verify), 2 runtime abort (non-finite field, excessive censoring),
3 I/O failure (unreadable/corrupt snapshot or filesystem error).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    ConfigError,
    build_initial,
    config_from_file,
    ignored_keys,
    n_steps_of,
    to_model_config,
    with_config_keys,
)
from .grid import GridSpec
from .harness import (
    SWEEP_AXES,
    SweepPlan,
    run_ensemble,
    run_path,
    sweep_R,
    sweep_epsilon,
    sweep_eta,
)
from .monitors import EnergyRecord, RECORD_FIELDS
from .noise import NoisePath
from .snapshot import read_snapshot, write_series, write_snapshot, write_table

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _step_count(text: str) -> int:
    """argparse type for step-count flags: an integer N >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="smcflow", description="stochastic mean curvature flow laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="advance a single path and write series + snapshot")
    run.add_argument("config", help="path to a key = value config file")
    run.add_argument("--output-dir", default=None, help="override config output_dir")
    run.add_argument(
        "--stop-after-steps",
        type=_step_count,
        default=None,
        help="stop early after this many steps (writes checkpoint.snap)",
    )
    run.add_argument(
        "--checkpoint-every",
        type=_step_count,
        default=None,
        help="write checkpoint.snap every N steps",
    )
    run.set_defaults(func=_cmd_run)

    ens = sub.add_parser("ensemble", help="run a Monte Carlo ensemble")
    ens.add_argument("config")
    ens.add_argument("--output-dir", default=None)
    ens.set_defaults(func=_cmd_ensemble)

    sw = sub.add_parser("sweep", help="shared-noise parameter sweep")
    sw.add_argument("config")
    sw.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sw.add_argument(
        "--values", required=True, help="comma-separated values along the axis"
    )
    sw.add_argument("--output-dir", default=None)
    sw.set_defaults(func=_cmd_sweep)

    sub.add_parser("verify", help="run the built-in invariant suite").set_defaults(
        func=_cmd_verify
    )

    res = sub.add_parser("resume", help="continue a run from checkpoint.snap")
    res.add_argument("config")
    res.add_argument("--checkpoint", required=True, help="snapshot to resume from")
    res.add_argument("--output-dir", default=None)
    res.set_defaults(func=_cmd_resume)
    return p


def _load_config(path):
    """config_from_file, plus one stderr note naming the model keys the form ignores."""
    cfg = config_from_file(path)
    unread = ignored_keys(cfg)
    if unread:
        print(f"note: {cfg.form} does not read {', '.join(unread)}; ignored", file=sys.stderr)
    return cfg


def _outdir(cfg, override) -> Path:
    out = Path(override) if override else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    out = _outdir(cfg, args.output_dir)
    u0 = build_initial(cfg.initial_condition, GridSpec(cfg.n))
    return _advance(cfg, u0, 0, out, args.stop_after_steps, args.checkpoint_every)


def _cmd_resume(args) -> int:
    cfg = _load_config(args.config)
    field, t, seed, step = read_snapshot(args.checkpoint)
    if seed != cfg.base_seed:
        raise ConfigError(
            f"checkpoint seed {seed} does not match config base_seed {cfg.base_seed}"
        )
    if field.grid.n != cfg.n:
        raise ConfigError(
            f"checkpoint resolution n={field.grid.n} does not match config n={cfg.n}"
        )
    total = n_steps_of(cfg)
    if step > total:
        raise ConfigError(f"checkpoint step {step} beyond configured n_steps {total}")
    if not abs(t - step * cfg.dt) <= 1e-12 * step * cfg.dt:  # also refuses NaN
        raise ConfigError(
            f"checkpoint time t = {t!r} at step {step} does not match the config's "
            f"step * dt = {step * cfg.dt!r} (dt = {cfg.dt!r}); was dt changed?"
        )
    return _advance(cfg, field, int(step), _outdir(cfg, args.output_dir), resume=True)


def _advance(cfg, u, start, out, stop=None, every=None, resume=False) -> int:
    """The body of run and resume: one path from the field u at step start.

    The noise path covers the whole run; a run stopped after `stop` steps is
    the run of min(stop, n_steps) steps on it, so a resume continues it.
    """
    total = n_steps_of(cfg)
    mc = to_model_config(cfg, n_steps=min(stop or total, total))
    noise = NoisePath.generate(cfg.base_seed, cfg.dt, total)
    ckpt_path = out / "checkpoint.snap"

    def checkpoint(field, step):
        write_snapshot(ckpt_path, field, step * cfg.dt, cfg.base_seed, step)

    result = run_path(mc, u, noise, start_step=start, checkpoint_every=every,
                      checkpoint_cb=checkpoint)
    if result.censored:
        print(f"aborted: non-finite field at step {result.blowup_step}, "
              f"grid index {result.blowup_index}", file=sys.stderr)
        return EXIT_RUNTIME
    done = result.steps_done
    write_series(out / ("series_resume.csv" if resume else "series.csv"), result.records)
    snap = out / ("final.snap" if done == total else "checkpoint.snap")
    write_snapshot(snap, result.terminal, done * cfg.dt, cfg.base_seed, done)
    if resume:
        print(f"resumed from step {start}: {done - start} further steps")
    elif done < total:
        print(f"stopped at step {done}; checkpoint at {snap}")
    else:
        print(f"run complete: {done} steps -> {snap}")
    return EXIT_OK


def _mean_records(report) -> list[EnergyRecord]:
    times = report.record_times
    cols = {name: report.records_matrix(name).mean(axis=0) for name in RECORD_FIELDS[1:]}
    out = []
    for i, t in enumerate(times):
        out.append(EnergyRecord(t=float(t), **{k: float(v[i]) for k, v in cols.items()}))
    return out


def _cmd_ensemble(args) -> int:
    cfg = _load_config(args.config)
    out = _outdir(cfg, args.output_dir)
    mc = to_model_config(cfg)
    u0 = build_initial(cfg.initial_condition, mc.grid)
    report = run_ensemble(mc, u0, cfg.n_paths, cfg.base_seed)
    if not report.ok:
        print(
            f"aborted: {report.n_censored}/{report.n_paths} paths censored "
            f"(rate {report.censor_rate:.2%} > 1%)",
            file=sys.stderr,
        )
        return EXIT_RUNTIME
    write_series(out / "ensemble.csv", _mean_records(report))
    print(
        f"ensemble complete: {report.n_paths} paths, {report.n_censored} censored, "
        f"{report.total_steps} steps, {report.wall_clock:.2f}s"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    try:
        values = tuple(float(v) for v in args.values.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse sweep values {args.values!r}")
    mc = to_model_config(cfg)
    # the plan checks the form and builds every sweep config, so a bad
    # value or a form that ignores the axis fails before any run
    try:
        plan = SweepPlan(args.axis, values, mc, cfg.n_paths, cfg.base_seed)
    except ValueError as e:
        raise ConfigError(
            f"cannot sweep {args.axis} over {args.values!r}: {with_config_keys(str(e))}"
        ) from None
    out = _outdir(cfg, args.output_dir)
    u0 = build_initial(cfg.initial_condition, mc.grid)

    # the first value has no predecessor to differ from
    nan = float("nan")
    if args.axis == "eta":
        rep = sweep_eta(plan, u0)
        header = "index,eta,mean_diff_from_prev"
        rows = zip(rep.etas, (nan, *rep.mean_diffs))
        print(f"eta sweep Cauchy trend: {'ok' if rep.cauchy else 'NOT DECREASING'}")
    elif args.axis == "epsilon":
        rep = sweep_epsilon(plan, u0)
        header = "index,eps,area_excess,grad_margin,mean_diff_from_prev"
        rows = zip(rep.eps_values, rep.area_excess, rep.grad_margin, (nan, *rep.mean_diffs))
        print(f"epsilon sweep gradient bound uniform: {rep.grad_uniform}")
        # the budget identity counts neither the -eta Delta^(2K) u drift nor
        # the Hessian clip, so its closure means nothing once either acts
        broken = []
        if mc.form.eta != 0.0:
            broken.append(f"eta = {mc.form.eta:g}")
        runs = [p for r in rep.reports for p in r.results]
        triggered = sum(p.tau_r_triggered for p in runs)
        if triggered:
            broken.append(f"tau_R triggered in {triggered} of {len(runs)} path runs")
        print("epsilon sweep area budget / E area(0): eps, sup term, 1/2 dissipation, "
              "eps share, area change" + ("" if broken else ", closure +- SE"))
        for i, eps in enumerate(rep.eps_values):
            closure = "" if broken else (
                f" {rep.closure[i]:+.2e} +- {rep.closure_se[i]:.2e}")
            print(f"  {eps:g} {rep.sup_term[i]:+.4f} {rep.half_dissipation[i]:.4f} "
                  f"{rep.eps_share[i]:.4f} {rep.area_change[i]:+.4f}{closure}")
        if broken:
            print("note: closure omitted; the area-budget identity holds only at "
                  "eta = 0 with tau_R untriggered, here " + " and ".join(broken),
                  file=sys.stderr)
    else:
        rep = sweep_R(plan, u0)
        header = "index,R,trigger_fraction"
        rows = zip(rep.r_values, rep.trigger_fraction)
        print(
            f"R sweep: fractions nonincreasing={rep.fraction_nonincreasing}, "
            f"inert at largest R={rep.untriggered_bit_identical}"
        )
    write_table(out / "sweep.csv", header, [(i, *row) for i, row in enumerate(rows)])
    return EXIT_OK


def _cmd_verify(_args) -> int:
    from .selfcheck import run_all

    results = run_all()
    failed = 0
    for name, ok, detail in results:
        tag = "ok" if ok else "FAIL"
        print(f"[{tag:>4}] {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed}/{len(results)} checks failed", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:  # SnapshotError among them
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
