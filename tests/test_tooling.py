"""The benchmark's span tracer still finds every program name it wraps.

``perfbench/spans.py`` looks its targets up by name in the smcflow modules
and classes; a rename or deletion there would otherwise surface only in the
minutes-long ``pytest perfbench`` run.
"""
import importlib.util
from pathlib import Path

from smcflow.dynamics import EmImexStepper, HeunStratStepper

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    spans = load_spans()
    originals = [owner.__dict__[attr] for _, owner, attr, _ in spans.TARGETS]
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for _, owner, attr, _ in spans.TARGETS] == originals
    # the benchmark's first-step hook reads each stepper's own step
    assert "step" in EmImexStepper.__dict__
    assert "step" in HeunStratStepper.__dict__
