"""End-to-end CLI tests: exit codes, determinism, checkpoint/resume."""
import zlib

import numpy as np
import pytest

from smcflow.cli import EXIT_IO, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from smcflow.snapshot import read_snapshot, snapshot_payload_crc

BASE_CFG = """\
form = ito_mcf
n = 16
dt = 0.001
T = 0.02
n_paths = 4
base_seed = 31
record_stride = 5
initial_condition = modes:[(1,0,0.2,0.0),(0,1,0.1,0.5)]
"""


def write_cfg(tmp_path, text=BASE_CFG, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestRunCommand:
    def test_run_writes_series_and_final_snapshot(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out_a"
        assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_OK
        assert (out / "series.csv").exists()
        field, t, seed, step = read_snapshot(out / "final.snap")
        assert (t, seed, step) == (0.02, 31, 20)
        assert field.grid.n == 16
        assert "run complete" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--output-dir", str(out_a)]) == EXIT_OK
        assert main(["run", cfg, "--output-dir", str(out_b)]) == EXIT_OK
        assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()
        assert (out_a / "final.snap").read_bytes() == (out_b / "final.snap").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_exits_runtime(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            BASE_CFG.replace(
                "initial_condition = modes:[(1,0,0.2,0.0),(0,1,0.1,0.5)]",
                "initial_condition = modes:[(1,0,1e160,0.0)]",
            ),
        )
        code = main(["run", cfg, "--output-dir", str(tmp_path / "boom")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert "step 1, grid index (0, 0)" in err


class TestResume:
    def test_interrupted_plus_resume_matches_uninterrupted(self, tmp_path):
        cfg = write_cfg(tmp_path)
        full = tmp_path / "full"
        split = tmp_path / "split"
        assert main(["run", cfg, "--output-dir", str(full)]) == EXIT_OK
        assert main(
            ["run", cfg, "--output-dir", str(split), "--stop-after-steps", "9"]
        ) == EXIT_OK
        ckpt = split / "checkpoint.snap"
        assert ckpt.exists()
        assert main(
            ["resume", cfg, "--checkpoint", str(ckpt), "--output-dir", str(split)]
        ) == EXIT_OK
        assert snapshot_payload_crc(split / "final.snap") == snapshot_payload_crc(
            full / "final.snap"
        )
        assert (split / "final.snap").read_bytes() == (full / "final.snap").read_bytes()

    def test_periodic_checkpoints_also_resume_exactly(self, tmp_path):
        cfg = write_cfg(tmp_path)
        full = tmp_path / "full"
        part = tmp_path / "part"
        assert main(["run", cfg, "--output-dir", str(full)]) == EXIT_OK
        assert main(
            [
                "run", cfg, "--output-dir", str(part),
                "--stop-after-steps", "12", "--checkpoint-every", "4",
            ]
        ) == EXIT_OK
        _, _, _, step = read_snapshot(part / "checkpoint.snap")
        assert step == 12
        assert main(
            ["resume", cfg, "--checkpoint", str(part / "checkpoint.snap"),
             "--output-dir", str(part)]
        ) == EXIT_OK
        assert (part / "final.snap").read_bytes() == (full / "final.snap").read_bytes()

    def test_corrupted_checkpoint_is_io_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(
            ["run", cfg, "--output-dir", str(out), "--stop-after-steps", "9"]
        ) == EXIT_OK
        ckpt = out / "checkpoint.snap"
        blob = bytearray(ckpt.read_bytes())
        blob[64] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
        code = main(["resume", cfg, "--checkpoint", str(ckpt), "--output-dir", str(out)])
        assert code == EXIT_IO
        assert "CRC" in capsys.readouterr().err

    def test_resolution_mismatch_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(
            ["run", cfg, "--output-dir", str(out), "--stop-after-steps", "9"]
        ) == EXIT_OK
        cfg32 = write_cfg(tmp_path, BASE_CFG.replace("n = 16", "n = 32"), name="n32.cfg")
        code = main(
            ["resume", cfg32, "--checkpoint", str(out / "checkpoint.snap"),
             "--output-dir", str(out)]
        )
        assert code == EXIT_VALIDATION
        assert "does not match config" in capsys.readouterr().err


    def test_changed_dt_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(
            ["run", cfg, "--output-dir", str(out), "--stop-after-steps", "9"]
        ) == EXIT_OK
        cfg_dt = write_cfg(
            tmp_path, BASE_CFG.replace("dt = 0.001", "dt = 0.002"), name="dt2.cfg"
        )
        code = main(
            ["resume", cfg_dt, "--checkpoint", str(out / "checkpoint.snap"),
             "--output-dir", str(out)]
        )
        assert code == EXIT_VALIDATION
        assert "was dt changed" in capsys.readouterr().err
        assert not (out / "final.snap").exists()


class TestEnsembleCommand:
    def test_worker_count_invariance(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        out_1, out_4 = tmp_path / "w1", tmp_path / "w4"
        monkeypatch.setenv("SMCFLOW_WORKERS", "1")
        assert main(["ensemble", cfg, "--output-dir", str(out_1)]) == EXIT_OK
        monkeypatch.setenv("SMCFLOW_WORKERS", "4")
        assert main(["ensemble", cfg, "--output-dir", str(out_4)]) == EXIT_OK
        assert (out_1 / "ensemble.csv").read_bytes() == (out_4 / "ensemble.csv").read_bytes()


class TestSweepCommand:
    def test_eta_sweep_writes_table(self, tmp_path, capsys):
        text = BASE_CFG.replace("form = ito_mcf", "form = regularized\neps = 0.1\nbigK = 3")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "sweep"
        code = main(
            ["sweep", cfg, "--axis", "eta", "--values", "0.001,0.0001,0.0",
             "--output-dir", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "index,eta,mean_diff_from_prev"
        assert len(lines) == 4
        assert "Cauchy trend" in capsys.readouterr().out

    def test_epsilon_sweep_writes_table_and_budget(self, tmp_path, capsys):
        text = BASE_CFG.replace("form = ito_mcf", "form = regularized\neps = 0.1\nbigK = 3")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "sweep"
        code = main(
            ["sweep", cfg, "--axis", "epsilon", "--values", "0.4,0.2",
             "--output-dir", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "index,eps,area_excess,grad_margin,mean_diff_from_prev"
        assert len(lines) == 3
        printed = capsys.readouterr().out
        assert "area budget" in printed
        assert "  0.4 " in printed and "  0.2 " in printed

    @pytest.mark.parametrize(
        "form, why",
        [
            ("form = regularized\neta = 0.001", "eta = 0.001"),
            ("form = regularized_truncated\nR = 10.0", "tau_R triggered in 40 of 40 path runs"),
        ],
    )
    def test_epsilon_sweep_omits_closure_where_identity_fails(
        self, tmp_path, capsys, form, why
    ):
        text = (
            f"{form}\neps = 0.4\nbigK = 3\nn = 16\ndt = 0.0002\nT = 0.06\n"
            "n_paths = 20\nbase_seed = 31\nrecord_stride = 10\n"
            "initial_condition = modes:[(1,0,0.2,0.0),(0,1,0.1,0.5)]\n"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "sweep"
        code = main(
            ["sweep", cfg, "--axis", "epsilon", "--values", "0.4,0.2",
             "--output-dir", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "index,eps,area_excess,grad_margin,mean_diff_from_prev"
        assert len(lines) == 3
        captured = capsys.readouterr()
        assert "area budget" in captured.out
        assert "closure" not in captured.out and "+-" not in captured.out
        note = captured.err.strip()
        assert note.startswith("note: closure omitted")
        assert note.endswith(why)
        assert len(note.splitlines()) == 1

    def test_axis_needs_matching_form(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)    # ito_mcf
        code = main(
            ["sweep", cfg, "--axis", "eta", "--values", "0.001,0.0",
             "--output-dir", str(tmp_path / "s")]
        )
        assert code == EXIT_VALIDATION
        assert "regularized" in capsys.readouterr().err

    def test_bad_values_are_validation_errors(self, tmp_path, capsys):
        text = BASE_CFG.replace("form = ito_mcf", "form = regularized\neps = 0.1")
        cfg = write_cfg(tmp_path, text)
        code = main(
            ["sweep", cfg, "--axis", "eta", "--values", "a,b",
             "--output-dir", str(tmp_path / "s")]
        )
        assert code == EXIT_VALIDATION
        assert "cannot parse sweep values" in capsys.readouterr().err


class TestVerifyCommand:
    def test_verify_passes_on_this_build(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all 12 checks passed" in out
        assert "FAIL" not in out


class TestErrorPaths:
    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "n = 16\nwhatsit = 3\n")
        assert main(["run", cfg]) == EXIT_VALIDATION
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.cfg")])
        assert code == EXIT_IO
        assert "I/O error" in capsys.readouterr().err

    def test_bad_arguments_are_validation_errors(self, capsys):
        assert main(["sweep"]) == EXIT_VALIDATION
        capsys.readouterr()
        assert main(["frobnicate"]) == EXIT_VALIDATION


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
