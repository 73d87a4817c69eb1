"""Pinned sha256 digests of CLI outputs: the bit contract in tier-1.

Every file below is a pure function of the code, the config and the seed,
so a refactor that claims to keep outputs unchanged proves it here. The
digests were recorded with numpy 2.4.6 (x86-64 Linux, glibc libm). Another
numpy, libm or SIMD path can move a last bit of np.sin in the initial
condition and with it every digest: that is a finding to report, not a
reason to skip the test or re-record it. A change that moves bits on
purpose edits the named digests and says why.

All six forms share one config that sets every model key, so each form also
shows that the keys it does not read leave its outputs alone.
"""
import hashlib

import pytest

from smcflow import harness
from smcflow.cli import EXIT_OK, main

NUMPY_VERSION = "2.4.6"

CFG = """\
form = {form}
n = 16
T = {T}
eps = 0.1
eta = 1e-4
bigK = 3
R = 30.0
rho = 0.5
n_paths = 3
base_seed = 7
record_stride = 10
initial_condition = modes:[(1,0,0.5,0.0),(0,1,0.2,0.5)]
"""

FORMS = (
    "stratonovich_mcf", "ito_mcf", "ito_anisotropic",
    "regularized", "regularized_truncated", "rho_variant",
)

# dt is derived; these horizons keep every run at or under 100 steps
HORIZON = {form: 0.01 if form == "stratonovich_mcf" else 0.04 for form in FORMS}

SWEEPS = {
    "eta": ("regularized", "1e-3,1e-4,0"),
    "epsilon": ("regularized", "0.4,0.2,0.1"),
    "R": ("regularized_truncated", "20,40,1e6"),
}

GOLDEN = {
    "run/stratonovich_mcf/series.csv":
        "8d112f2444be4d4121a8b5ba4e0b971f53e89816e623063c2dadfbbe67ffc2bc",
    "run/stratonovich_mcf/final.snap":
        "a66c692ad97b9107e476beb02fb7a5af4c4d9d6cd7ae7c5d1a2299b351827a2e",
    "run/ito_mcf/series.csv":
        "2324bdd937591a2d88f790df7f0f3316a0269d0b1a3756a1849299ed55cfdcc2",
    "run/ito_mcf/final.snap":
        "046a22fe03247ed6d0f80e473e56cd9b63a8a6f3be9279862a58324858704668",
    "run/ito_anisotropic/series.csv":
        "5f08ef9b40844f394d37dcebc0ddfaea65263c572e1e5cd151cf406dd27f102b",
    "run/ito_anisotropic/final.snap":
        "053d887d0685a1d31da8c5a68710b32656a11f0da3c071156931ea0a4c763ce0",
    "run/regularized/series.csv":
        "7c2fce155e85a1ca2b5789e343751348b209260e2030000c0ef0a869905cbb00",
    "run/regularized/final.snap":
        "9f647453ed88c3906f38d5610a5db1c12c64c6c5924fdb2dba0817f05be79c2a",
    "run/regularized_truncated/series.csv":
        "9a56db28a4ce657e729ea501f6ad2e17faef85946feedbece018e19252e2be0d",
    "run/regularized_truncated/final.snap":
        "e50257a18f910690403d4e4c94a9d43c14adaaa0ce311e30e32ca74dcdc52a23",
    "run/rho_variant/series.csv":
        "214f00417298b55e858cc9e7bd6ec748d1eae5b85622c7dba36eb26163f0f143",
    "run/rho_variant/final.snap":
        "f46d80326a7ab079ec22c504b98b82049a469bc6ed024ec4c5388bc5d19571f0",
    "stop/checkpoint.snap":
        "68d5611092301a815f8edcb376f644fc697cf3ed521a9423b4facfa8e2321135",
    "resume/series_resume.csv":
        "654b0fc0da2406b42beaa3309c74e073ee8672423f18bba09c8b88f30b3178eb",
    "resume/final.snap":
        "e50257a18f910690403d4e4c94a9d43c14adaaa0ce311e30e32ca74dcdc52a23",
    "ensemble/stratonovich_mcf/ensemble.csv":
        "6a51366af505210b66d0ca496927a246c45f28664c727f9b25e13dbde6d6c810",
    "ensemble/ito_mcf/ensemble.csv":
        "37e699c91fe5be3e2c93fe9b98d35c769e4522f949e75f7c93b340707538f473",
    "ensemble/ito_anisotropic/ensemble.csv":
        "180a91d67c946c2b59dc7672452d3baac52f36b70f1a41c422551dcbafb22ba2",
    "ensemble/regularized/ensemble.csv":
        "23b37ff63647927bd54c0c654fc32e87bde62263820a8e307f5cf6333ee74e97",
    "ensemble/regularized_truncated/ensemble.csv":
        "d67a6e6be03b78fea0eef55c25f8b48003c3a6627ab8408d0975c957c14f848c",
    "ensemble/rho_variant/ensemble.csv":
        "6fa26c156e253009fa2abf7a3bba19bd29142bd3555a40065c15c95438cce186",
    "sweep/eta/sweep.csv":
        "645703094d9c81b2aa9c2822e072d44672f39c853582527db3735ed161fcf65f",
    "sweep/epsilon/sweep.csv":
        "58411edc32fa33837980b2ce279fe0b7719492ba75cb5b1ea7f5b17c0f2b641c",
    "sweep/R/sweep.csv":
        "0cf1901ca0dd47725fc839f091cab34f7ee5542a6b3984f9c464a420cda63205",
}


def write_cfg(tmp_path, form):
    path = tmp_path / f"{form}.cfg"
    path.write_text(CFG.format(form=form, T=HORIZON[form]), encoding="utf-8")
    return str(path)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(key, path):
    assert sha256(path) == GOLDEN[key], f"{key} moved (digests from numpy {NUMPY_VERSION})"


@pytest.mark.parametrize("form", FORMS)
def test_run(tmp_path, form):
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, form), "--output-dir", str(out)]) == EXIT_OK
    check(f"run/{form}/series.csv", out / "series.csv")
    check(f"run/{form}/final.snap", out / "final.snap")


def test_stop_and_resume(tmp_path):
    cfg = write_cfg(tmp_path, "regularized_truncated")
    out = tmp_path / "out"
    assert main(["run", cfg, "--output-dir", str(out), "--stop-after-steps", "17"]) == EXIT_OK
    check("stop/checkpoint.snap", out / "checkpoint.snap")
    assert main(["resume", cfg, "--checkpoint", str(out / "checkpoint.snap"),
                 "--output-dir", str(out)]) == EXIT_OK
    check("resume/series_resume.csv", out / "series_resume.csv")
    check("resume/final.snap", out / "final.snap")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("form", FORMS)
def test_ensemble(tmp_path, monkeypatch, form, workers):
    monkeypatch.setattr(harness, "worker_count", lambda: workers)
    out = tmp_path / "out"
    assert main(["ensemble", write_cfg(tmp_path, form), "--output-dir", str(out)]) == EXIT_OK
    check(f"ensemble/{form}/ensemble.csv", out / "ensemble.csv")


@pytest.mark.parametrize("axis", SWEEPS)
def test_sweep(tmp_path, axis):
    form, values = SWEEPS[axis]
    out = tmp_path / "out"
    argv = ["sweep", write_cfg(tmp_path, form), "--axis", axis, "--values", values,
            "--output-dir", str(out)]
    assert main(argv) == EXIT_OK
    check(f"sweep/{axis}/sweep.csv", out / "sweep.csv")
