"""Per-layer size sweep: microseconds per call of single layer operations.

Invoked by run.py in traced runs as

    python3 perfbench/sweep.py --seed S --work DIR --out FILE

with PYTHONPATH pointing at the checkout's src/. Each figure is the median
over REPEATS timed batches of one call, with the batch sized to last about
BATCH_S, so per-call Python overhead and numpy work are both included. No
workload runs at n = 256; the sweep is where that size is measured.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from smcflow.dynamics import (EmImexStepper, FormKind, HeunStratStepper, ModelForm,
                              PathState)
from smcflow.grid import GridSpec, ScalarField, SpectralWorkspace
from smcflow.monitors import MartingaleTracker, record_path_sample
from smcflow.noise import NoisePath
from smcflow.snapshot import write_series, write_snapshot

REPEATS = 5
BATCH_S = 0.03
NOISE_STEPS = 4096


def per_call_us(fn) -> float:
    fn()
    reps = 1
    while True:  # size the batch
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= BATCH_S:
            break
        reps *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples) * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"sweep:{args.seed}")
    seed = rng.randrange(1 << 31)
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)

    def field(n):
        x1, x2 = GridSpec(n).nodes()
        two_pi = 2.0 * math.pi
        return ScalarField(GridSpec(n), 0.5 * np.cos(two_pi * x1 + p1)
                           + 0.3 * np.cos(two_pi * x2 + p2))

    def state(n, dt):
        return PathState(u=field(n), step=0, noise=NoisePath.generate(seed, dt, 1))

    m = {}
    for n in (16, 32, 64, 128, 256):
        ws, u = SpectralWorkspace(n), field(n).values
        m[f"grid.fft_us_n{n}"] = per_call_us(lambda: ws.inverse(ws.forward(u)))
    form = ModelForm(FormKind.REGULARIZED, eps=0.1)
    for n in (32, 64, 256):
        st, stepper = state(n, 1e-4), EmImexStepper(GridSpec(n), form, 1e-4)
        m[f"dynamics.step_us_em_imex_n{n}"] = per_call_us(lambda: stepper.step(st))
    for n in (16, 64):
        # dt only scales the increments; one step from a smooth field stays finite
        st = state(n, 1e-6)
        stepper = HeunStratStepper(GridSpec(n), ModelForm(FormKind.STRATONOVICH_MCF), 1e-6)
        m[f"dynamics.step_us_heun_n{n}"] = per_call_us(lambda: stepper.step(st))
    for n in (32, 64, 256):
        u = field(n)
        m[f"monitors.record_us_n{n}"] = per_call_us(lambda: record_path_sample(u, 0.0))
    _, audit = EmImexStepper(GridSpec(32), form, 1e-4).step(state(32, 1e-4))
    tracker = MartingaleTracker(1e-4, ())
    m["monitors.tracker_update_us"] = per_call_us(lambda: tracker.update(audit))
    m["noise.generate_us_per_step"] = per_call_us(
        lambda: NoisePath.generate(seed, 1e-4, NOISE_STEPS)) / NOISE_STEPS
    for n in (64, 256):
        u, path = field(n), args.work / f"sweep_n{n}.snap"
        m[f"snapshot.write_us_n{n}"] = per_call_us(lambda: write_snapshot(path, u, 0.0, seed, 0))
    records = [record_path_sample(field(32), 0.01 * k)[0] for k in range(101)]
    m["snapshot.series_write_us"] = per_call_us(
        lambda: write_series(args.work / "sweep_series.csv", records))
    args.out.write_text(json.dumps(m), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
