"""Span tracer for the benchmark's traced runs.

The tracer wraps public smcflow functions where the program looks them up
(on the class for methods, in the calling module for names imported with
``from ... import``), records one span per call in memory and derives busy
time, self time and counts per layer afterwards. Nothing inside the program
is edited; uninstall() puts every original object back.

A span is (name, start, end, parent span, path id). The path id is the
ordinal of the enclosing ``run_path`` call, -1 outside any path.
"""
from __future__ import annotations

import functools
import os
import time

import numpy as np

from smcflow import cli, config, dynamics, grid, harness, monitors, noise

LAYERS = ("grid", "dynamics", "geometry", "monitors", "noise", "harness",
          "snapshot", "config", "cli")


def _fft_bytes(c, args, result):
    c["grid.fft_bytes_computed"] += args[1].nbytes + result.nbytes


def _noise_drawn(c, args, result):
    drawn = result.n_steps << noise.REFINE_DEPTH
    c["noise.normals_drawn"] += drawn
    held = 8 * drawn + result.increments.nbytes + result.w.nbytes
    c["noise.peak_bytes_computed"] = max(c["noise.peak_bytes_computed"], held)


def _file_bytes(key):
    def meter(c, args, result):
        c[key] += os.path.getsize(args[0])
    return meter


# (span name, owner, attribute, meter or None). Owners are the objects the
# program resolves the name on at call time, so every call path is covered:
# geometry_bundle is imported into both dynamics and monitors, run_path is
# called through harness (ensembles) and through cli (run/resume).
TARGETS = (
    ("grid.fft", grid.SpectralWorkspace, "forward", _fft_bytes),
    ("grid.fft", grid.SpectralWorkspace, "inverse", _fft_bytes),
    ("dynamics.step", dynamics.EmImexStepper, "step", None),
    ("dynamics.step", dynamics.HeunStratStepper, "step", None),
    ("dynamics.truncate", dynamics, "truncate_hessian_arrays", None),
    ("dynamics.picard", dynamics, "mild_picard_iterate", None),
    ("geometry.bundle", dynamics, "geometry_bundle", None),
    ("geometry.bundle", monitors, "geometry_bundle", None),
    ("monitors.record", harness, "record_path_sample", None),
    ("monitors.tracker", monitors.MartingaleTracker, "update", None),
    ("monitors.gate", harness, "martingale_test", None),
    ("monitors.gate", monitors, "martingale_test", None),
    ("monitors.gate", monitors, "gradient_inequality_check", None),
    ("noise.generate", noise.NoisePath, "generate", _noise_drawn),
    ("noise.refine", noise.NoisePath, "refine", None),
    ("harness.run_path", harness, "run_path", None),
    ("harness.run_path", cli, "run_path", None),
    ("harness.ensemble", harness, "run_ensemble", None),
    ("snapshot.write", cli, "write_snapshot", _file_bytes("snapshot.write_bytes")),
    ("snapshot.read", cli, "read_snapshot", None),
    ("snapshot.series", cli, "write_series", _file_bytes("snapshot.series_bytes")),
    ("config.parse", config, "parse_config", None),
    ("config.initial", config, "build_initial", None),
    ("config.initial", cli, "build_initial", None),
    ("cli.main", cli, "main", None),
)
NAMES = tuple(sorted({t[0] for t in TARGETS}))
COUNTERS = ("grid.fft_bytes_computed", "noise.normals_drawn",
            "noise.peak_bytes_computed", "snapshot.write_bytes",
            "snapshot.series_bytes")


class Tracer:
    """Records spans between install() and uninstall()."""

    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.path = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._path_id = -1
        self._next_path = 0
        self._saved = []

    def _wrap(self, name, fn, meter):
        name_id = NAMES.index(name)
        new_path = name == "harness.run_path"
        names, starts, ends, parents, paths = (
            self.name, self.start, self.end, self.parent, self.path)
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            outer_path = self._path_id
            if new_path:
                self._path_id = self._next_path
                self._next_path += 1
            paths.append(self._path_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                self._path_id = outer_path
            if meter is not None:
                meter(counters, args, result)
            return result

        return traced

    def install(self):
        for name, owner, attr, meter in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, meter))
            else:
                new = self._wrap(name, raw, meter)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def arrays(self):
        return {
            "names": np.array(NAMES),
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "path": np.array(self.path, dtype=np.int32),
        }

    def save(self, path, window_start):
        """Write the spans as .npz, times relative to the traced window."""
        a = self.arrays()
        a["start"] -= window_start
        a["end"] -= window_start
        with open(path, "wb") as f:
            np.savez(f, **a)

    def layer_metrics(self, window_s: float, path_steps: int) -> dict:
        """Per-layer counts, busy and self times from the recorded spans.

        A span's self time is its duration minus the durations of its direct
        children, so the layers' self times plus the window time that no
        top-level span covers (trace.other_s) add up to the window.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        self_t = dur - child
        k = len(NAMES)
        calls = np.bincount(a["name"], minlength=k)
        busy = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_t, minlength=k)
        by = {nm: (int(calls[i]), float(busy[i]), float(own[i])) for i, nm in enumerate(NAMES)}
        c = self.counters

        m = {
            "grid.fft_calls": by["grid.fft"][0],
            "grid.fft_s": by["grid.fft"][1],
            "grid.fft_per_step": by["grid.fft"][0] / path_steps,
            "grid.fft_bytes_computed": c["grid.fft_bytes_computed"],
            "dynamics.step_calls": by["dynamics.step"][0],
            "dynamics.step_s": by["dynamics.step"][1],
            "dynamics.step_self_s": by["dynamics.step"][2],
            "dynamics.truncate_s": by["dynamics.truncate"][1],
            "dynamics.picard_s": by["dynamics.picard"][1],
            "geometry.bundle_calls": by["geometry.bundle"][0],
            "geometry.bundle_s": by["geometry.bundle"][1],
            "monitors.record_calls": by["monitors.record"][0],
            "monitors.record_s": by["monitors.record"][1],
            "monitors.record_self_s": by["monitors.record"][2],
            "monitors.tracker_updates": by["monitors.tracker"][0],
            "monitors.tracker_s": by["monitors.tracker"][1],
            "monitors.gate_s": by["monitors.gate"][1],
            "noise.generate_calls": by["noise.generate"][0],
            "noise.generate_s": by["noise.generate"][1],
            "noise.refine_s": by["noise.refine"][1],
            "noise.normals_drawn": c["noise.normals_drawn"],
            "noise.increments_used": path_steps,
            "noise.use_ratio": path_steps / c["noise.normals_drawn"],
            "noise.peak_bytes_computed": c["noise.peak_bytes_computed"],
            "harness.run_path_calls": by["harness.run_path"][0],
            "harness.run_path_self_s": by["harness.run_path"][2],
            "harness.ensemble_s": by["harness.ensemble"][1],
            "snapshot.writes": by["snapshot.write"][0],
            "snapshot.write_bytes": c["snapshot.write_bytes"],
            "snapshot.write_s": by["snapshot.write"][1],
            "snapshot.reads": by["snapshot.read"][0],
            "snapshot.read_s": by["snapshot.read"][1],
            "snapshot.series_bytes": c["snapshot.series_bytes"],
            "snapshot.series_s": by["snapshot.series"][1],
            "config.parse_s": by["config.parse"][1],
            "config.initial_s": by["config.initial"][1],
            "cli.main_calls": by["cli.main"][0],
            "cli.main_s": by["cli.main"][1],
        }
        steps = np.sort(dur[a["name"] == NAMES.index("dynamics.step")]) * 1e6
        m["dynamics.step_us_p50"] = float(np.percentile(steps, 50)) if steps.size else 0.0
        m["dynamics.step_us_p99"] = float(np.percentile(steps, 99)) if steps.size else 0.0
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v[2] for nm, v in by.items() if nm.split(".")[0] == layer)
        m["trace.other_s"] = window_s - float(dur[~nested].sum())
        m["trace.wall_s"] = window_s
        return m
