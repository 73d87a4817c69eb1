"""smcflow benchmark: one command, three gate-shaped workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout (the program is imported from ./src). Each
unit of work is one fresh child process (perfbench/unit.py) that runs the
workload once, closed loop: one process, no extra threads, SMCFLOW_WORKERS
unset, BLAS thread variables set to 1. Units run back to back for --seconds
(at least one); every metric is the median over the units of the run.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json. --trace 1
first runs the per-layer size sweep (perfbench/sweep.py), then alternates
untraced and traced units and prints the per-layer metrics; the spans of
the last traced unit are written beside the results file.

Every run checks the workload's outputs, counts each path, CLI call and
output check as one operation, and prints the human-readable summary
followed by one JSON line {correct, attempted, failed, metrics}. A results
file with provenance goes to .perfbench_out/. A child that crashes or
times out ends the run with exit code 1 and no result line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("ensemble_n32", "consistency_n16", "long_path_n64")
DEFAULT_SEED = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SMCFLOW_WORKERS", None)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv, env) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{argv[0]} exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def run_unit(args, trace: int, k: int, env) -> dict:
    out = OUT / "work" / f"unit{k}.json"
    t_spawn = time.perf_counter()
    run_child([str(HERE / "unit.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(trace), "--work", str(OUT / "work" / f"unit{k}"),
               "--out", str(out)], env)
    rec = json.loads(out.read_text(encoding="utf-8"))
    rec["setup_s"] = rec["first_step"] - t_spawn
    rec["spans_file"] = str(out.with_suffix(".npz"))
    shutil.rmtree(OUT / "work" / f"unit{k}", ignore_errors=True)
    return rec


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unavailable (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha or f"unresolved ({ref})"


def provenance(args, env, units) -> dict:
    cpu = platform.processor() or platform.machine()
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(idx / f) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": units[0]["numpy"],
        "SMCFLOW_WORKERS": "unset in children (1 worker)",
        "thread_env": {v: env[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "size": units[0]["size"],
        "seconds": args.seconds,
        "units": len(units),
    }


def run_checks(args, untraced, traced) -> list:
    """Run-level checks on top of each unit's own output checks."""
    checks = []
    digests = {u["digest"] for u in untraced + traced}
    label = "traced and untraced units" if traced else "units"
    checks.append((f"one digest across {len(untraced) + len(traced)} {label}", len(digests) == 1))
    if args.seed == DEFAULT_SEED:
        stored = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        checks.append((f"digest equals the stored seed-{DEFAULT_SEED} digest",
                       digests == {stored.get(args.workload)}))
    for u in traced:
        m = u["layers"]
        total = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["trace.other_s"]
        checks.append(("layer self times + trace.other_s == trace.wall_s",
                       abs(total - m["trace.wall_s"]) <= 1e-9 * m["trace.wall_s"]))
    return checks


def measure(args, env):
    OUT.mkdir(exist_ok=True)
    shutil.rmtree(OUT / "work", ignore_errors=True)
    (OUT / "work").mkdir()
    where = run_child(["-c", "import smcflow; print(smcflow.__file__)"], env).stdout.strip()
    if not Path(where).resolve().is_relative_to(ROOT / "src"):
        raise ChildFailed(f"smcflow imported from {where}, not from this checkout")

    untraced, traced, sweep = [], [], {}
    t_begin = time.perf_counter()
    if args.trace:
        sweep_out = OUT / "work" / "sweep.json"
        run_child([str(HERE / "sweep.py"), "--seed", str(args.seed),
                   "--work", str(OUT / "work" / "sweep"), "--out", str(sweep_out)], env)
        sweep = json.loads(sweep_out.read_text(encoding="utf-8"))
    kinds = (0, 1) if args.trace else (0,)
    while True:
        t_round = time.perf_counter()
        for trace in kinds:
            (traced if trace else untraced).append(
                run_unit(args, trace, len(untraced) + len(traced), env))
        now = time.perf_counter()
        if now - t_begin + (now - t_round) > args.seconds:
            break
    return untraced, traced, sweep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "smcflow" / "__init__.py").is_file():
        print(f"error: no smcflow sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = child_env()
    try:
        untraced, traced, sweep = measure(args, env)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    units = untraced + traced
    checks = [tuple(c) for u in units for c in u["checks"]] + run_checks(args, untraced, traced)
    failed = sum(1 for _, ok in checks if not ok)
    def median(key, of):
        return statistics.median(key(u) for u in of)

    if args.trace:
        declared = bench["per_layer"]
        values = {k: median(lambda u: u["layers"][k], traced) for k in traced[0]["layers"]}
        values.update(sweep)
        values["trace.overhead_frac"] = (median(lambda u: u["window_s"], traced)
                                         / median(lambda u: u["window_s"], untraced) - 1.0)
    else:
        declared = bench["end_to_end"]
        values = {
            "wall_s": median(lambda u: u["wall_s"], untraced),
            "path_steps_per_s": median(lambda u: u["path_steps"] / u["wall_s"], untraced),
            "setup_s": median(lambda u: u["setup_s"], untraced),
            "peak_rss_mb": median(lambda u: u["peak_rss_mb"], untraced),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed_frac = failed / len(checks)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = {
        "provenance": provenance(args, env, units),
        "metrics": metrics,
        "failed_frac": failed_frac,
        "attempted": len(checks),
        "failed": failed,
        "failed_checks": [name for name, ok in checks if not ok],
        "digest": units[0]["digest"],
        "verdicts": units[0]["verdicts"],
        "units": [{k: u[k] for k in ("setup_s", "wall_s", "window_s", "cpu_s", "path_steps",
                                     "peak_rss_mb", "traced", "digest")} for u in units],
    }
    if traced:
        spans = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
        shutil.move(traced[-1]["spans_file"], spans)
        results["spans_file"] = spans.name
    (OUT / f"{tag}.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    shutil.rmtree(OUT / "work", ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(untraced)} untraced + {len(traced)} traced")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {failed_frac:.6g} ratio ({failed}/{len(checks)} operations)")
    for name in results["failed_checks"]:
        print(f"  FAILED: {name}")
    print(f"  digest {results['digest']}")
    for name, v in results["verdicts"].items():
        print(f"  verdict {name}: {json.dumps(v)}")
    print(f"  results -> {(OUT / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
