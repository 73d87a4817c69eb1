"""Checks on the code itself rather than on its results.

``perfbench/spans.py`` looks its targets up by name in the smcflow modules
and classes; a rename or deletion there would otherwise surface only in the
minutes-long ``pytest perfbench`` run. An import nothing references is
caught by an AST scan of the package and the tests, and the option surface
of the stepping, monitoring, geometry and grid entry points is pinned by
name. Another scan keeps every FFT inside ``grid.py``, behind the two
workspace methods that the tracer counts and ``tests/test_grid.py`` pins to
``np.fft`` bit for bit. A third keeps every ``os.fork`` inside
``harness.py``, whose worker slices reap and test every child. A fourth
keeps ``numpy.ma`` out of the package: numpy's ``np.unique``-based set
routines import it (~1 MB resident) on their first call, so none is used.
A fifth keeps ``PathState``, the one-path stepper input, inside
``dynamics.py`` and the one test of its adapter: every run and every other
test advances a batch.
"""
import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

from smcflow.config import RunConfig
from smcflow.dynamics import (
    FORM_READS,
    EmImexStepper,
    HeunStratStepper,
    ModelForm,
    PathBatch,
    PicardReport,
    mild_picard_iterate,
)
from smcflow.geometry import cofactor_flux_residual, geometry_bundle
from smcflow.grid import divergence, gradient, hessian, laplacian
from smcflow.harness import (
    EnsembleReport,
    ModelConfig,
    PathResult,
    run_ensemble,
    run_path,
    run_paths,
)
from smcflow.monitors import MartingaleTracker, gradient_inequality_check, record_path_sample
from smcflow.noise import NoisePath

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def unused_imports(path):
    """Imported names that the module never references, as "file:line: name".

    A name counts as used when it appears as an identifier or in __all__;
    an import line marked "# noqa: F401" is exempt.
    """
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in used or name in exported or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            found.append(f"{path.relative_to(ROOT)}:{alias.lineno}: {name}")
    return found


def test_no_unused_imports():
    files = sorted([*(ROOT / "src" / "smcflow").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert files
    assert [hit for path in files for hit in unused_imports(path)] == []


def test_option_surface_is_pinned():
    # every option here has a caller outside the unit tests; a new knob
    # shows up as an edit to this list
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert [f.name for f in dataclasses.fields(ModelConfig)] == [
        "form", "n", "dt", "n_steps", "record_stride", "martingale_steps", "stop_at_tau_r",
    ]
    # a path is driven by its initial field and an explicit noise path only;
    # a deterministic run passes a zero path
    assert params(run_path) == [
        "cfg", "u0", "noise", "stepper", "start_step", "checkpoint_every", "checkpoint_cb",
    ]
    assert params(run_paths) == ["cfg", "u0", "noises"]
    assert params(run_ensemble) == ["cfg", "u0", "n_paths", "base_seed"]
    # what a run reports; the counts and tau_r_triggered are derived properties
    assert [f.name for f in dataclasses.fields(PathResult)] == [
        "seed", "records", "record_steps", "v_lap", "terminal", "steps_done",
        "max_mass_residual", "censored", "blowup_step", "blowup_index", "tau_r_time",
        "martingale_samples",
    ]
    assert [f.name for f in dataclasses.fields(EnsembleReport)] == [
        "results", "wall_clock", "martingale",
    ]
    assert params(EmImexStepper.__init__) == ["self", "grid", "form", "dt"]
    assert params(HeunStratStepper.__init__) == ["self", "grid", "form", "dt"]
    assert [f.name for f in dataclasses.fields(PathBatch)] == ["u", "step", "increments"]
    # the form parameters, and the ones each form reads and so may set
    assert [f.name for f in dataclasses.fields(ModelForm)] == [
        "kind", "eps", "eta", "big_k", "r_trunc", "rho",
    ]
    assert {k.value: sorted(reads) for k, reads in FORM_READS.items()} == {
        "stratonovich_mcf": [],
        "ito_mcf": [],
        "ito_anisotropic": [],
        "regularized": ["big_k", "eps", "eta"],
        "regularized_truncated": ["big_k", "eps", "eta", "r_trunc"],
        "rho_variant": ["rho"],
    }
    # the user-facing config keys
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "form", "n", "dt", "T", "eps", "eta", "bigK", "R", "rho", "n_paths",
        "base_seed", "record_stride", "initial_condition", "output_dir",
    ]
    assert params(EmImexStepper.step) == ["self", "state"]
    assert params(HeunStratStepper.step) == ["self", "state"]
    assert params(MartingaleTracker.__init__) == ["self", "dt", "sample_steps"]
    assert params(geometry_bundle) == ["u", "method"]
    assert params(cofactor_flux_residual) == ["u", "method"]
    for operator in (gradient, laplacian, hessian):
        assert params(operator) == ["u", "method"]
    assert params(divergence) == ["f", "method"]
    assert params(record_path_sample) == ["u", "t"]
    assert params(gradient_inequality_check) == ["records_per_path", "eps", "dt", "min_paths"]
    assert params(NoisePath.__init__) == ["self", "seed", "dt", "level", "increments"]
    # the mild map's memory layout is fixed inside it: no block or buffer knob
    assert params(mild_picard_iterate) == ["u0", "noise", "form", "horizon", "iterations"]
    assert [f.name for f in dataclasses.fields(PicardReport)] == [
        "diffs", "ratios", "diverged", "trajectory",
    ]


def fft_references(path):
    """Uses of numpy's fft module in a file, as "file:line: what"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "fft" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.fft") or (
                node.module == "numpy" and any(a.name == "fft" for a in node.names)
            )
        elif isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.fft") for a in node.names)
        else:
            continue
        if hit:
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_transforms_stay_in_grid():
    package = ROOT / "src" / "smcflow"
    assert fft_references(package / "grid.py")  # the scan sees grid's own use
    others = sorted(p for p in package.glob("*.py") if p.name != "grid.py")
    assert others
    assert [hit for path in others for hit in fft_references(path)] == []


def fork_sites(path):
    """Uses of os.fork* in a file, as "file:line: what"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (node.attr.startswith("fork") and isinstance(node.value, ast.Name)
                   and node.value.id == "os")
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "os" and any(
                a.name == "*" or a.name.startswith("fork") for a in node.names
            )
        else:
            continue
        if hit:
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_forks_stay_in_harness():
    # a second fork site shows up as an edit here
    package = ROOT / "src" / "smcflow"
    assert fork_sites(package / "harness.py")  # the scan sees harness's own fork
    others = sorted(p for p in package.glob("*.py") if p.name != "harness.py")
    assert others
    assert [hit for path in others for hit in fork_sites(path)] == []


# numpy's set routines that import all of numpy.ma on their first call, seen
# in a fresh interpreter with numpy 2.4.6: np.unique and np.unique_values read
# np.ma.is_masked when asked for no indices or counts, setdiff1d, intersect1d,
# union1d and setxor1d call them, and so does isin on its sort path.
# unique_counts, unique_inverse and unique_all import nothing.
MA_IMPORTERS = frozenset({
    "unique", "unique_values", "setdiff1d", "intersect1d", "union1d", "setxor1d", "isin",
})


def masked_array_uses(tree):
    """numpy.ma and the numpy routines that import it in a module, as (line, what)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                   and (node.attr == "ma" or node.attr in MA_IMPORTERS))
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.ma") or (
                node.module == "numpy"
                and any(a.name == "ma" or a.name in MA_IMPORTERS for a in node.names)
            )
        elif isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.ma") for a in node.names)
        else:
            continue
        if hit:
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_numpy_ma_in_the_package():
    # the scan sees every form of use
    sample = ast.parse(
        "import numpy.ma\nfrom numpy import ma\nfrom numpy import unique\n"
        "np.ma.is_masked(x)\nkeep = np.setdiff1d(a, b)\nf = numpy.isin\n"
        "np.unique_counts(a)\nnp.flatnonzero(a)\n"
    )
    assert sorted(line for line, _ in masked_array_uses(sample)) == [1, 2, 3, 4, 5, 6]
    files = sorted((ROOT / "src" / "smcflow").glob("*.py"))
    assert files
    hits = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in files
        for line, what in masked_array_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert hits == []


# the test that steps a PathState as the benchmark's size sweep does
ADAPTER_TEST = "test_a_path_state_steps_as_the_batch_of_one"


def path_state_names(path, skip=None):
    """Lines of a file that name PathState (definition, import or use), as "file:line".

    Lines inside the function named ``skip`` are left out.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == skip:
            skipped.update(range(node.lineno, node.end_lineno + 1))
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for node in ast.walk(tree)
        # Name.id, Attribute.attr, and ClassDef.name or an import's alias.name
        if "PathState" in (getattr(node, key, None) for key in ("id", "attr", "name"))
        and node.lineno not in skipped
    ]


def test_path_state_stays_in_dynamics():
    # the steppers still take a PathState from the benchmark's size sweep,
    # outside this scan; no other module or test builds or reads one, bar
    # the test of that adapter
    package = ROOT / "src" / "smcflow"
    assert path_state_names(package / "dynamics.py")  # the scan sees the class
    adapter = ROOT / "tests" / "test_dynamics.py"
    assert path_state_names(adapter)  # ... and the adapter test
    others = sorted(
        p for p in [*package.glob("*.py"), *(ROOT / "tests").glob("*.py")]
        if p.name != "dynamics.py"
    )
    assert adapter in others
    hits = [
        hit for path in others
        for hit in path_state_names(path, ADAPTER_TEST if path == adapter else None)
    ]
    assert hits == []
