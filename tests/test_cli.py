"""End-to-end CLI tests: exit codes, determinism, checkpoint/resume."""
import re
import struct
import zlib

import pytest

from smcflow import harness
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

    def test_stratonovich_default_dt_stays_bounded(self, tmp_path):
        # with no dt, heun_strat used to derive 0.25 h^2, above its bound
        # h^2 / pi^2: this run ended with grad_energy 1.3e122
        cfg = write_cfg(tmp_path, (
            "form = stratonovich_mcf\nn = 16\nT = 0.2\n"
            "initial_condition = random_smooth:3,3\n"
        ))
        out = tmp_path / "strat"
        assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_OK
        rows = (out / "series.csv").read_text().splitlines()
        first, last = (float(r.split(",")[1]) for r in (rows[1], rows[-1]))
        assert first > 1e-3
        assert last < 1e-6

    def test_rho_variant_default_dt_stays_bounded(self, tmp_path):
        # with no dt, rho_variant at rho = 0.2 used to derive 0.25 h^2, above
        # its linear bound: this run ended with grad_energy 2.58
        cfg = write_cfg(tmp_path, (
            "form = rho_variant\nrho = 0.2\nn = 16\nT = 0.2\n"
            "initial_condition = random_smooth:3,3\n"
        ))
        out = tmp_path / "rho"
        assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_OK
        rows = (out / "series.csv").read_text().splitlines()
        first, last = (float(r.split(",")[1]) for r in (rows[1], rows[-1]))
        assert first > 1e-3
        assert last < 1e-8

    def test_dt_above_the_linear_bound_is_validation_error(self, tmp_path, capsys):
        # Heun at n = 16 is stable up to dt = 5.17e-4; dt = 5.5e-4 ended at
        # grad_energy 0.249 with exit 0
        cfg = write_cfg(tmp_path, (
            "form = stratonovich_mcf\nn = 16\ndt = 0.00055\nT = 0.22\n"
            "initial_condition = random_smooth:3,3\n"
        ))
        out = tmp_path / "strat"
        assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: dt = 0.00055 exceeds 0.000516945, the linear stability bound")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_keys_the_form_ignores_get_one_note(self, tmp_path, capsys):
        # ito_mcf reads no model key; these values used to pass silently,
        # and bigK = 2 used to exit 1
        plain, noted = tmp_path / "plain", tmp_path / "noted"
        assert main(["run", write_cfg(tmp_path), "--output-dir", str(plain)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        text = BASE_CFG + "rho = 0.5\neps = 0.9\nR = 3\nbigK = 2\n"
        assert main(["run", write_cfg(tmp_path, text), "--output-dir", str(noted)]) == EXIT_OK
        assert capsys.readouterr().err == "note: ito_mcf does not read eps, bigK, R, rho; ignored\n"
        for name in ("series.csv", "final.snap"):
            assert (noted / name).read_bytes() == (plain / name).read_bytes()

    @pytest.mark.parametrize("big_k", [41, 42])
    def test_overflowing_polyharmonic_symbol_is_validation_error(self, tmp_path, capsys, big_k):
        # eta Delta^(2K) overflows at n = 16 from K = 42 on; K = 200 used to warn,
        # zero every non-mean mode in the first step and exit 0
        cfg = write_cfg(tmp_path, (
            "form = regularized\nn = 16\nT = 0.01\neps = 0.1\neta = 1e-4\n"
            f"bigK = {big_k}\ninitial_condition = random_smooth:3,3\n"
        ))
        out = tmp_path / "out"
        code = main(["run", cfg, "--output-dir", str(out)])
        if big_k == 41:
            assert code == EXIT_OK
            return
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: eta * Delta^(2K) overflows at n = 16: K = 42 is too large for eta = 0.0001\n"
        )
        assert not out.exists()

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

    @pytest.mark.parametrize("stop", ["20", "21"])
    def test_stop_at_or_beyond_the_run_length_is_the_full_run(self, tmp_path, capsys, stop):
        # BASE_CFG runs 20 steps; a stop there or later ends nothing early
        cfg = write_cfg(tmp_path)
        full, stopped = tmp_path / "full", tmp_path / "stopped"
        assert main(["run", cfg, "--output-dir", str(full)]) == EXIT_OK
        capsys.readouterr()
        args = ["run", cfg, "--output-dir", str(stopped), "--stop-after-steps", stop]
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out.startswith("run complete: 20 steps")
        assert not (stopped / "checkpoint.snap").exists()
        for name in ("series.csv", "final.snap"):
            assert (stopped / name).read_bytes() == (full / name).read_bytes()

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

    def test_bad_grid_size_in_header_is_io_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        ckpt = tmp_path / "n6.snap"
        payload = bytes(6 * 6 * 8)
        ckpt.write_bytes(
            b"SMCF" + struct.pack("<HIdQQ", 1, 6, 0.009, 31, 9)
            + payload + struct.pack("<I", zlib.crc32(payload))
        )
        code = main(["resume", cfg, "--checkpoint", str(ckpt), "--output-dir", str(out)])
        assert code == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("I/O error:")
        assert "header field n" in err[0]

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

    def test_changed_base_seed_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(
            ["run", cfg, "--output-dir", str(out), "--stop-after-steps", "9"]
        ) == EXIT_OK
        cfg_seed = write_cfg(
            tmp_path, BASE_CFG.replace("base_seed = 31", "base_seed = 99"), name="seed99.cfg"
        )
        code = main(
            ["resume", cfg_seed, "--checkpoint", str(out / "checkpoint.snap"),
             "--output-dir", str(out)]
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "checkpoint seed 31 does not match config base_seed 99" in err
        assert not (out / "final.snap").exists()


class TestEnsembleCommand:
    def test_worker_count_invariance(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        out_1, out_4 = tmp_path / "w1", tmp_path / "w4"
        monkeypatch.setattr(harness, "worker_count", lambda: 1)
        assert main(["ensemble", cfg, "--output-dir", str(out_1)]) == EXIT_OK
        monkeypatch.setattr(harness, "worker_count", lambda: 4)
        assert main(["ensemble", cfg, "--output-dir", str(out_4)]) == EXIT_OK
        assert (out_1 / "ensemble.csv").read_bytes() == (out_4 / "ensemble.csv").read_bytes()


class TestSweepCommand:
    def test_worker_count_invariance(self, tmp_path, monkeypatch):
        text = BASE_CFG.replace("form = ito_mcf", "form = regularized\neps = 0.1\nbigK = 3")
        cfg = write_cfg(tmp_path, text)
        tables = []
        for workers in (1, 2):
            monkeypatch.setattr(harness, "worker_count", lambda: workers)
            out = tmp_path / f"w{workers}"
            argv = ["sweep", cfg, "--axis", "eta", "--values", "0.001,0.0001,0.0",
                    "--output-dir", str(out)]
            assert main(argv) == EXIT_OK
            tables.append((out / "sweep.csv").read_bytes())
        assert tables[0] == tables[1]

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

    @pytest.mark.parametrize("form, axis, needed", [
        ("ito_mcf", "eta", "eta sweeps need form = regularized or regularized_truncated"),
        ("regularized", "R", "R sweeps need form = regularized_truncated"),
    ])
    def test_form_that_ignores_the_axis_is_validation_error(
        self, tmp_path, capsys, monkeypatch, form, axis, needed
    ):
        # SweepPlan holds the rule; an R sweep of regularized used to be
        # refused only here, and an eta plan built in code not at all
        def no_ensemble(*args, **kwargs):
            raise AssertionError("an ensemble ran before the form was checked")

        monkeypatch.setattr(harness, "run_ensemble", no_ensemble)
        text = BASE_CFG.replace("form = ito_mcf", f"form = {form}\neps = 0.1")
        out = tmp_path / "s"
        code = main(["sweep", write_cfg(tmp_path, text), "--axis", axis,
                     "--values", "20,60", "--output-dir", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(needed)
        assert not out.exists()

    def test_axis_needs_matching_form(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)    # ito_mcf
        code = main(
            ["sweep", cfg, "--axis", "eta", "--values", "0.001,0.0",
             "--output-dir", str(tmp_path / "s")]
        )
        assert code == EXIT_VALIDATION
        assert "regularized" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "axis, values, message",
        [
            pytest.param("eta", "a,b", "cannot parse sweep values", id="unparsable"),
            pytest.param("eta", "0.1", "at least two values", id="single"),
            pytest.param("eta", "0.1,0.1", "strictly monotone", id="repeated"),
            pytest.param("eta", "0.2,nan", "strictly monotone", id="nan"),
            pytest.param("R", "60,20", "R sweeps must increase", id="decreasing-R"),
            pytest.param("epsilon", "0.4,1.5", r"eps in \(0, 1\]", id="epsilon-range"),
            pytest.param("R", "0,20", "radius must be positive, got R = 0.0$", id="R-range"),
        ],
    )
    def test_bad_values_are_validation_errors(
        self, tmp_path, capsys, monkeypatch, axis, values, message
    ):
        def no_ensemble(*args, **kwargs):
            raise AssertionError("an ensemble ran before the values were checked")

        monkeypatch.setattr(harness, "run_ensemble", no_ensemble)
        text = BASE_CFG.replace("form = ito_mcf", "form = regularized_truncated\neps = 0.1")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "s"
        code = main(["sweep", cfg, "--axis", axis, "--values", values, "--output-dir", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert re.search(message, err[0])
        assert not out.exists()

    def test_overflowing_symbol_at_a_swept_eta_is_validation_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # at eta = 0 the config accepts any K, but the plan's eta values form
        # the power; this sweep used to end in a traceback from the stepper
        def no_ensemble(*args, **kwargs):
            raise AssertionError("an ensemble ran before the symbol was checked")

        monkeypatch.setattr(harness, "run_ensemble", no_ensemble)
        text = BASE_CFG.replace("form = ito_mcf", "form = regularized\neps = 0.1\nbigK = 200")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "s"
        code = main(["sweep", cfg, "--axis", "eta", "--values", "1e-3,0", "--output-dir", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].endswith("overflows at n = 16: K = 200 is too large for eta = 0.001")
        assert not out.exists()


class TestVerifyCommand:
    def test_verify_passes_on_this_build(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all 12 checks passed" in out
        assert "cofactor flux residual" in out
        assert "FAIL" not in out


class TestErrorPaths:
    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "n = 16\nwhatsit = 3\n")
        assert main(["run", cfg]) == EXIT_VALIDATION
        assert "unknown config key" in capsys.readouterr().err

    def test_seed_beyond_64_bits_is_validation_error(self, tmp_path, capsys):
        # 2^64 would replay the noise of base_seed = 0 and fail at the snapshot
        cfg = write_cfg(tmp_path, BASE_CFG.replace("base_seed = 31", f"base_seed = {1 << 64}"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_VALIDATION
        assert "base_seed must be below 2^64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ensemble"])
    @pytest.mark.parametrize("spec", [
        "flat:nan", "random_smooth:1,nan", "modes:[(1e400,0,1.0,0.0)]", "modes:[(1,0,1.0,None)]",
        "modes:[(1,0,'0.5',True)]", "modes:[(True,0,0.5,0.0)]",
    ])
    def test_bad_initial_condition_is_validation_error(self, tmp_path, capsys, command, spec):
        # the first two used to abort at step 1 (exit 2) after making the
        # output directory, the last two to raise a traceback; the config
        # tests hold the full list of cases
        text = BASE_CFG.replace("modes:[(1,0,0.2,0.0),(0,1,0.1,0.5)]", spec)
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, cfg, "--output-dir", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["em_imex", "heun_strat"])
    def test_scheme_key_is_validation_error(self, tmp_path, capsys, scheme):
        # the form picks the stepper; scheme is no longer a config key
        cfg = write_cfg(tmp_path, BASE_CFG + f"scheme = {scheme}\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "error: line 9: unknown config key 'scheme'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ensemble", "resume"])
    def test_config_not_utf8_is_validation_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(BASE_CFG.encode() + "# caf\xe9\n".encode("latin-1"))
        out = tmp_path / "out"
        argv = [command, str(cfg), "--output-dir", str(out)]
        if command == "resume":
            argv += ["--checkpoint", str(tmp_path / "checkpoint.snap")]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: config file .* is not UTF-8 text: [^\n]*\n", err)
        assert not out.exists()

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.cfg")])
        assert code == EXIT_IO
        assert "I/O error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--stop-after-steps", "-5"),
        ("--stop-after-steps", "0"),
        ("--checkpoint-every", "-3"),
        ("--checkpoint-every", "0"),
    ])
    def test_step_flags_below_one_are_validation_errors(self, tmp_path, capsys, flag, value):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out), flag, value]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: argument {flag}: must be at least 1, got {value}\n", err)
        assert not out.exists()

    def test_bad_arguments_are_validation_errors(self, capsys):
        assert main(["sweep"]) == EXIT_VALIDATION
        capsys.readouterr()
        assert main(["frobnicate"]) == EXIT_VALIDATION


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
