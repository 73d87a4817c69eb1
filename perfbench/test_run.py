"""Tests of the benchmark itself: python3 -m pytest perfbench

Each invocation runs the real command with --seconds 1, so one unit.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json")
                       .read_text(encoding="utf-8"))
    return result, saved


def test_two_invocations_agree_on_keys_and_digests():
    runs = [invoke("ensemble_n32", 1, 0) for _ in range(2)]
    names = [m["name"] for m in BENCH["end_to_end"]]
    for result, saved in runs:
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == names
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert runs[0][1]["digest"] == runs[1][1]["digest"]


def test_traced_run_reports_every_layer_metric():
    result, saved = invoke("long_path_n64", 2, 1)
    assert result["correct"], saved["failed_checks"]
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert {u["digest"] for u in saved["units"]} == {saved["digest"]}
    assert {u["traced"] for u in saved["units"]} == {False, True}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble_n32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
