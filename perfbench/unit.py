"""One benchmark unit: a fresh process that runs one workload once.

Invoked by run.py as

    python3 perfbench/unit.py --workload W --seed S --trace 0|1 --work DIR --out FILE

with PYTHONPATH pointing at the checkout's src/. It builds the workload's
inputs from the seed, runs it, checks the outputs and writes a JSON record
with its timings, checks, statistical verdicts and output digest to FILE.
With --trace 1 the smcflow calls are wrapped by spans.Tracer and the record
also carries the per-layer metrics; the spans go to FILE with suffix .npz.

Timing points (all time.perf_counter, which is CLOCK_MONOTONIC on Linux and
so comparable with the parent's spawn time):
  first_step    entry of the first stepper step (end of set-up)
  window_start  entry of the workload function (after imports and inputs)
  window_end    return of the workload function; output checks come after
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from smcflow import cli, config, dynamics, harness, monitors, noise, snapshot
from smcflow.grid import GridSpec
from spans import Tracer

# Stated sizes. Changing any of them changes the outputs, so the stored
# digests in digests.json must be regenerated with them.
ENSEMBLE = {"n": 32, "dt": 1e-4, "n_steps": 1000, "n_paths": 6,
            "record_stride": 10, "martingale_steps": (250, 500, 1000)}
CONSISTENCY = {"n": 16, "dt": 1e-4, "n_steps": 200, "n_paths": 6,
               "picard_n": 32, "picard_horizons": (0.01, 0.005)}
LONG_PATH = {"n": 64, "dt": 1e-4, "n_steps": 4096, "checkpoint_every": 960,
             "record_stride": 64, "R": 1e6}
SIZES = {"ensemble_n32": ENSEMBLE, "consistency_n16": CONSISTENCY,
         "long_path_n64": LONG_PATH}

MASS_RESIDUAL_BOUND = 1e-10  # the criterion-7 bound


def _modes(rng, a, b):
    p1, p2 = (round(rng.uniform(0.0, 2.0 * math.pi), 6) for _ in range(2))
    return f"modes:[(1,0,{a},{p1!r}),(0,1,{b},{p2!r})]"


def make_inputs(workload: str, seed: int) -> dict:
    """Config texts and seeds for one workload; a pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    base_seed = rng.randrange(1 << 31)
    if workload == "ensemble_n32":
        s = ENSEMBLE
        return {"config": (
            f"form = regularized\nn = {s['n']}\ndt = {s['dt']!r}\n"
            f"T = {s['n_steps'] * s['dt']!r}\neps = 0.1\neta = 0.0\nbigK = 3\n"
            f"n_paths = {s['n_paths']}\nbase_seed = {base_seed}\n"
            f"record_stride = {s['record_stride']}\n"
            f"initial_condition = {_modes(rng, 0.5, 0.3)}\n")}
    if workload == "consistency_n16":
        s = CONSISTENCY
        common = (f"n = {s['n']}\ndt = {s['dt']!r}\nT = {s['n_steps'] * s['dt']!r}\n"
                  f"n_paths = {s['n_paths']}\nbase_seed = {base_seed}\n"
                  f"record_stride = {s['n_steps']}\n"
                  f"initial_condition = {_modes(rng, 0.3, 0.2)}\n")
        return {"ito": "form = ito_mcf\n" + common,
                "strat": "form = stratonovich_mcf\n" + common,
                "picard_ic": _modes(rng, 0.5, 0.3),
                "picard_seed": rng.randrange(1 << 31)}
    s = LONG_PATH
    return {"config": (
        f"form = regularized_truncated\nn = {s['n']}\ndt = {s['dt']!r}\n"
        f"T = {s['n_steps'] * s['dt']!r}\neps = 0.1\neta = 0.0\nbigK = 3\n"
        f"R = {s['R']!r}\nbase_seed = {base_seed}\n"
        f"record_stride = {s['record_stride']}\n"
        f"initial_condition = {_modes(rng, 0.5, 0.3)}\n")}


class Outcome:
    """Output checks (each one operation), verdicts and the output digest."""

    def __init__(self):
        self.checks: list[tuple[str, bool]] = []
        self.verdicts: dict = {}
        self.path_steps = 0
        self._sha = hashlib.sha256()

    def check(self, name: str, ok):
        self.checks.append((name, bool(ok)))

    def digest(self, *chunks):
        for c in chunks:
            self._sha.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())

    def add_path(self, name: str, res):
        """Count a path as one operation and fold its outputs into the digest."""
        self.check(f"{name} not censored", not res.censored)
        self.path_steps += res.steps_done
        self.digest(res.terminal.values, np.array([r.as_row() for r in res.records]))

    @property
    def hexdigest(self) -> str:
        return self._sha.hexdigest()


# ---------------------------------------------------------------------------
# workloads: run_* is the timed part, check_* inspects its outputs afterwards

def run_ensemble_n32(inp, work):
    cfg = config.parse_config(inp["config"])
    mc = config.to_model_config(cfg, martingale_steps=ENSEMBLE["martingale_steps"])
    u0 = config.build_initial(cfg.initial_condition, mc.grid)
    rep = harness.run_ensemble(mc, u0, cfg.n_paths, cfg.base_seed)
    grad = monitors.gradient_inequality_check(
        [r.records for r in rep.uncensored()], eps=mc.form.eps, dt=mc.dt, min_paths=2)
    return rep, grad


def check_ensemble_n32(out, work, res):
    rep, grad = res
    for i, r in enumerate(rep.results):
        out.add_path(f"path {i}", r)
    out.check("per-step mass residual <= 1e-10", rep.max_mass_residual <= MASS_RESIDUAL_BOUND)
    mart = rep.martingale
    out.digest(np.array([[(s.m, s.m_def, s.qhat, s.a_int, s.w) for s in r.martingale_samples]
                         for r in rep.results]))
    out.verdicts = {
        "criterion05_gradient_inequality": grad.verdict,
        "criterion05_min_margin": float(grad.margins.min()),
        "criterion06_mean_ok": bool(np.all(mart.mean_ok)),
        "criterion06_cross_ok": bool(np.all(mart.cross_ok)),
        "criterion06_var_ratio": [float(v) for v in mart.var_ratio],
        "max_mass_residual": rep.max_mass_residual,
    }


def run_consistency_n16(inp, work):
    s = CONSISTENCY
    parsed = {k: config.parse_config(inp[k]) for k in ("ito", "strat")}
    coarse_cfg = {k: config.to_model_config(p) for k, p in parsed.items()}
    levels = []
    for scale in (1, 2):
        cfgs = {k: replace(c, dt=c.dt / scale, n_steps=c.n_steps * scale,
                           record_stride=c.n_steps * scale) for k, c in coarse_cfg.items()}
        levels.append((cfgs, {k: harness.make_stepper(c) for k, c in cfgs.items()}))
    u0 = config.build_initial(parsed["ito"].initial_condition, coarse_cfg["ito"].grid)
    paths = []
    for i in range(s["n_paths"]):
        seed = noise.path_seed(parsed["ito"].base_seed, i)
        coarse = noise.NoisePath.generate(seed, s["dt"], s["n_steps"])
        fine = coarse.refine()
        runs = [harness.run_path(cfgs[k], u0, noise=nz, stepper=steppers[k])
                for (cfgs, steppers), nz in zip(levels, (coarse, fine)) for k in ("ito", "strat")]
        paths.append((coarse, fine, runs))
    u0p = config.build_initial(inp["picard_ic"], GridSpec(s["picard_n"]))
    form = dynamics.ModelForm(dynamics.FormKind.REGULARIZED_TRUNCATED, eps=0.1, r_trunc=1e6)
    picard = []
    for h in s["picard_horizons"]:
        nz = noise.NoisePath.generate(inp["picard_seed"], s["dt"], round(h / s["dt"]))
        picard.append(dynamics.mild_picard_iterate(u0p, nz, form, horizon=h, iterations=6))
    return paths, picard


def check_consistency_n16(out, work, res):
    paths, picard = res
    pairs_ok = True
    worst = 0.0
    for i, (coarse, fine, runs) in enumerate(paths):
        for tag, r in zip(("ito coarse", "strat coarse", "ito fine", "strat fine"), runs):
            out.add_path(f"path {i} {tag}", r)
            worst = max(worst, r.max_mass_residual)
        summed = fine.increments[0::2] + fine.increments[1::2]
        pairs_ok &= summed.tobytes() == coarse.increments.tobytes()
    out.check("per-step mass residual <= 1e-10", worst <= MASS_RESIDUAL_BOUND)
    out.check("refined pair sums equal coarse increments bitwise", pairs_ok)
    for h, rep in zip(CONSISTENCY["picard_horizons"], picard):
        out.check(f"picard horizon {h} not diverged", not rep.diverged)
        out.digest(np.array(rep.diffs), rep.trajectory[-1].values)
    gaps = {}
    for lev, cols in (("coarse", (0, 1)), ("fine", (2, 3))):
        for field in ("mass", "grad_energy"):
            a, b = (np.array([getattr(p[2][c].records[-1], field) for p in paths]) for c in cols)
            cse = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            gaps[f"{lev}_{field}"] = {"gap": float(abs(b.mean() - a.mean())), "3cSE": 3.0 * cse}
    out.verdicts = {
        "criterion10_gaps": gaps,
        "criterion10_within_3cSE": all(g["gap"] <= g["3cSE"] for g in gaps.values()),
        "criterion10_fine_below_coarse": all(
            gaps[f"fine_{f}"]["gap"] < gaps[f"coarse_{f}"]["gap"] for f in ("mass", "grad_energy")),
        "criterion11_max_ratios": [max(rep.ratios) for rep in picard],
        "max_mass_residual": worst,
    }


def run_long_path_n64(inp, work):
    cfg_file = work / "long.cfg"
    cfg_file.write_text(inp["config"], encoding="utf-8")
    full, resumed = work / "full", work / "resumed"
    exits = [cli.main(["run", str(cfg_file), "--output-dir", str(full),
                       "--checkpoint-every", str(LONG_PATH["checkpoint_every"])])]
    exits.append(cli.main(["resume", str(cfg_file), "--checkpoint", str(full / "checkpoint.snap"),
                           "--output-dir", str(resumed)]))
    return exits


def check_long_path_n64(out, work, exits):
    s = LONG_PATH
    full, resumed = work / "full", work / "resumed"
    for cmd, code in zip(("run", "resume"), exits):
        out.check(f"cli {cmd} exit 0 (got {code})", code == 0)
    if any(exits):
        return
    ckpt_step = snapshot.read_snapshot(full / "checkpoint.snap")[3]
    out.path_steps = s["n_steps"] + (s["n_steps"] - ckpt_step)
    out.check("resumed final.snap payload CRC equals uninterrupted",
              snapshot.snapshot_payload_crc(resumed / "final.snap")
              == snapshot.snapshot_payload_crc(full / "final.snap"))
    text = (full / "series.csv").read_text(encoding="utf-8")
    recs = snapshot.read_series(full / "series.csv")
    tail = snapshot.read_series(resumed / "series_resume.csv")
    out.check("series.csv reparses to the same records",
              snapshot.format_series(recs) == text
              and [r.as_row() for r in recs[-len(tail):]] == [r.as_row() for r in tail])
    hess_max = max(r.hess_linf for r in recs + tail)
    out.check("tau_R not triggered at the inert R", hess_max < 0.5 * s["R"])
    for f in (full / "final.snap", full / "checkpoint.snap", full / "series.csv",
              resumed / "final.snap", resumed / "series_resume.csv"):
        out.digest(f.read_bytes())
    out.verdicts = {"resume_from_step": ckpt_step, "max_recorded_hess_linf": hess_max}


WORKLOADS = {
    "ensemble_n32": (run_ensemble_n32, check_ensemble_n32),
    "consistency_n16": (run_consistency_n16, check_consistency_n16),
    "long_path_n64": (run_long_path_n64, check_long_path_n64),
}


class FirstStep:
    """Stamps the entry of the first stepper step, then restores the steppers."""

    CLASSES = (dynamics.EmImexStepper, dynamics.HeunStratStepper)

    def __init__(self):
        self.t = None
        self._saved = [(cls, cls.__dict__["step"]) for cls in self.CLASSES]
        for cls, orig in self._saved:
            cls.step = self._hook(orig)

    def _hook(self, orig):
        def step(stepper, *args, **kwargs):
            if self.t is None:
                self.t = time.perf_counter()
            self.restore()
            return orig(stepper, *args, **kwargs)
        return step

    def restore(self):
        for cls, orig in self._saved:
            cls.step = orig


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    run, check = WORKLOADS[args.workload]
    inp = make_inputs(args.workload, args.seed)
    args.work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    first = FirstStep()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        res = run(inp, args.work)
    finally:
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        first.restore()
        if tracer is not None:
            tracer.uninstall()

    if first.t is None:  # no step ran; set-up then ends where the workload starts
        first.t = t0
    out = Outcome()
    check(out, args.work, res)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "first_step": first.t,
        "window_start": t0,
        "window_s": t1 - t0,
        "wall_s": t1 - first.t,
        "cpu_s": cpu1 - cpu0,
        "path_steps": out.path_steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": out.checks,
        "verdicts": out.verdicts,
        "digest": out.hexdigest,
        "numpy": np.__version__,
        "size": SIZES[args.workload],
    }
    if tracer is not None:
        layers = tracer.layer_metrics(t1 - t0, out.path_steps)
        layers["harness.cpu_s"] = record["cpu_s"]
        record["layers"] = layers
        tracer.save(args.out.with_suffix(".npz"), t0)
    args.out.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
