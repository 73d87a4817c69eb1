"""Tests for path runs, ensembles and sweeps."""
import math
import os
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from smcflow.dynamics import FORM_READS, FormKind, ModelForm, NonFiniteFieldError, PathBatch
from smcflow import harness
from smcflow.grid import GridSpec, ScalarField
from smcflow.harness import (
    ModelConfig,
    SweepPlan,
    make_stepper,
    run_ensemble,
    run_path,
    run_paths,
    sweep_R,
    sweep_epsilon,
    sweep_eta,
)
from smcflow.monitors import record_path_sample
from smcflow.noise import NoisePath, path_seed

TWO_PI = 2.0 * math.pi
SRC = Path(__file__).resolve().parents[1] / "src"


def smooth_u0(grid):
    x1, x2 = grid.nodes()
    return ScalarField(grid, 0.3 * np.sin(TWO_PI * x1) + 0.2 * np.cos(TWO_PI * x2))


def ito_config(**kw):
    base = dict(
        form=ModelForm(FormKind.ITO_MCF),
        n=16, dt=1e-3, n_steps=20, record_stride=10,
    )
    base.update(kw)
    return ModelConfig(**base)


def path_noise(cfg, base_seed, i):
    """The noise path run_ensemble gives path i."""
    return NoisePath.generate(path_seed(base_seed, i), cfg.dt, cfg.n_steps)


def worker_counts(n_paths):
    """Worker counts that put slice edges at every kind of row."""
    return (1, 2, 3, n_paths + 1)


def use_workers(monkeypatch, workers):
    """Run the ensembles and noise-path runs that follow in that many workers."""
    monkeypatch.setattr(harness, "worker_count", lambda: workers)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_path(batched, alone):
    """Bitwise equality of everything a path run reports."""
    assert batched.seed == alone.seed
    assert batched.terminal.values.tobytes() == alone.terminal.values.tobytes()
    assert (np.array([r.as_row() for r in batched.records]).tobytes()
            == np.array([r.as_row() for r in alone.records]).tobytes())
    assert batched.record_steps == alone.record_steps
    assert batched.v_lap.tobytes() == alone.v_lap.tobytes()
    assert batched.martingale_samples == alone.martingale_samples
    assert batched.max_mass_residual == alone.max_mass_residual
    for name in ("steps_done", "censored", "blowup_step", "blowup_index",
                 "tau_r_triggered", "tau_r_time"):
        assert getattr(batched, name) == getattr(alone, name), name


class TestModelConfig:
    def test_scheme_form_pairing(self):
        # a config names no scheme, so it cannot pair a form with the wrong one:
        # the old keyword is refused and the Stratonovich form needs nothing extra
        with pytest.raises(TypeError, match="scheme"):
            ito_config(scheme="heun_strat")
        strat = ModelConfig(form=ModelForm(FormKind.STRATONOVICH_MCF), n=16, dt=1e-3, n_steps=10)
        assert not hasattr(strat, "scheme")
        assert make_stepper(strat).form.kind is FormKind.STRATONOVICH_MCF

    def test_bounds(self):
        with pytest.raises(ValueError, match="n_steps"):
            ito_config(n_steps=0)
        with pytest.raises(ValueError, match="record_stride"):
            ito_config(record_stride=0)
        with pytest.raises(ValueError, match="dt must be positive"):
            ito_config(dt=0.0)
        with pytest.raises(ValueError, match="martingale sample steps"):
            ito_config(martingale_steps=(0,))
        with pytest.raises(ValueError, match="martingale sample steps"):
            ito_config(martingale_steps=(21,))

    def test_stop_at_tau_r_with_martingale_steps_rejected(self):
        # an ensemble of this config used to fail inside martingale_test once
        # a path stopped at tau_R before its last sample step
        kw = dict(
            form=ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, r_trunc=25.0),
            dt=2e-3, n_steps=30, record_stride=7,
        )
        with pytest.raises(ValueError, match="stop_at_tau_r.*martingale_steps"):
            ito_config(stop_at_tau_r=True, martingale_steps=(10, 30), **kw)
        ito_config(stop_at_tau_r=True, **kw)
        ito_config(martingale_steps=(10, 30), **kw)

    @pytest.mark.parametrize("kind", FormKind, ids=lambda kind: kind.value)
    def test_stop_at_tau_r_needs_the_truncated_form(self, kind):
        # on a form without R the flag used to stop nothing
        form = ModelForm(kind, eps=0.1) if "eps" in FORM_READS[kind] else ModelForm(kind)
        if kind is FormKind.REGULARIZED_TRUNCATED:
            assert ito_config(form=form, stop_at_tau_r=True).stop_at_tau_r
        else:
            needed = f"stop_at_tau_r needs form = regularized_truncated, got {kind.value}"
            with pytest.raises(ValueError, match=needed):
                ito_config(form=form, stop_at_tau_r=True)
        ito_config(form=form)

    def test_derived_properties(self):
        cfg = ito_config()
        assert cfg.grid == GridSpec(16)
        assert cfg.horizon == pytest.approx(0.02)

    def test_make_stepper_dispatch(self):
        # the form picks the scheme: Heun for Stratonovich, em_imex for every Ito form
        from smcflow.dynamics import EmImexStepper, HeunStratStepper

        for kind in FormKind:
            regularized = kind in (FormKind.REGULARIZED, FormKind.REGULARIZED_TRUNCATED)
            form = ModelForm(kind, eps=0.1) if regularized else ModelForm(kind)
            stepper = make_stepper(ito_config(form=form))
            strat = kind is FormKind.STRATONOVICH_MCF
            assert type(stepper) is (HeunStratStepper if strat else EmImexStepper), kind
            assert stepper.form == form


class TestRunPath:
    def test_flat_path_bookkeeping(self):
        cfg = ito_config(n_steps=25)
        grid = cfg.grid
        noise = NoisePath.generate(7, cfg.dt, cfg.n_steps)
        res = run_path(cfg, ScalarField.constant(grid, 0.4), noise)
        assert res.seed == 7
        assert res.record_steps == [0, 10, 20, 25]
        assert [r.t for r in res.records] == pytest.approx([0.0, 0.01, 0.02, 0.025])
        assert np.max(np.abs(res.v_lap)) <= 1e-14
        assert res.steps_done == 25
        assert not res.censored and res.blowup_step is None
        assert res.max_mass_residual <= 1e-14
        assert np.max(np.abs(res.terminal.values - 0.4 - noise.w[25])) <= 1e-12

    def test_noise_path_validation(self):
        cfg = ito_config()
        u0 = ScalarField.constant(cfg.grid, 0.0)
        with pytest.raises(ValueError, match="does not match the config dt"):
            run_path(cfg, u0, noise=NoisePath.generate(0, 2e-3, 20))
        with pytest.raises(ValueError, match="shorter than the run"):
            run_path(cfg, u0, noise=NoisePath.generate(0, 1e-3, 10))
        with pytest.raises(ValueError, match="start_step"):
            run_path(cfg, u0, NoisePath.generate(0, cfg.dt, 20), start_step=25)

    def test_resume_matches_uninterrupted(self):
        cfg = ito_config(n_steps=10)
        grid = cfg.grid
        noise = NoisePath.generate(31, cfg.dt, cfg.n_steps)
        u0 = smooth_u0(grid)
        full = run_path(cfg, u0, noise=noise)
        first = run_path(replace(cfg, n_steps=5), u0, noise=noise)
        assert first.steps_done == 5
        second = run_path(cfg, first.terminal, noise=noise, start_step=5)
        assert second.steps_done == 10
        np.testing.assert_array_equal(second.terminal.values, full.terminal.values)

    def test_resumed_segment_refuses_martingale_steps(self):
        # the tracker counts from the segment's first step, so a segment resumed
        # at step 30 used to label W(80) - W(30) as the step-50 sample and drop
        # the step-100 one
        class NoSteps:
            def step(self, batch):
                raise AssertionError("a step ran before the options were checked")

        cfg = ito_config(n_steps=100, martingale_steps=(50, 100))
        noise = NoisePath.generate(5, cfg.dt, cfg.n_steps)
        first = run_path(replace(cfg, n_steps=30, martingale_steps=()), smooth_u0(cfg.grid), noise)
        with pytest.raises(ValueError, match="martingale_steps .* with start_step > 0"):
            run_path(cfg, first.terminal, noise, stepper=NoSteps(), start_step=30)

    def test_checkpoint_callback_cadence(self):
        cfg = ito_config(n_steps=20)
        seen = []
        run_path(
            cfg, ScalarField.constant(cfg.grid, 0.0), NoisePath.generate(3, cfg.dt, 20),
            checkpoint_every=6, checkpoint_cb=lambda u, step: seen.append(step),
        )
        assert seen == [6, 12, 18]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_censors_path(self):
        cfg = ito_config(n_steps=5)
        grid = cfg.grid
        x1, _ = grid.nodes()
        huge = ScalarField(grid, 1e160 * np.sin(TWO_PI * x1))
        noise = NoisePath.generate(0, cfg.dt, cfg.n_steps)
        res = run_path(cfg, huge, noise)
        assert res.censored
        assert res.blowup_step == 1
        assert res.blowup_index == (0, 0)
        assert res.steps_done == 0
        assert len(res.records) == 1    # the initial sample is still taken
        with pytest.raises(NonFiniteFieldError) as err:
            make_stepper(cfg).step(PathBatch(huge.values[None], 0, noise.increments[None]))
        assert res.blowup_index == err.value.index

    def test_tau_r_stop_at_time_zero(self):
        grid = GridSpec(16)
        x1, _ = grid.nodes()
        steep = ScalarField(grid, 0.5 * np.sin(TWO_PI * x1))
        # sup |D^2 u| = 2 pi^2 ~ 19.74 >= 15 = R/2 already at the start
        rec, _ = record_path_sample(steep, 0.0)
        assert rec.hess_linf == pytest.approx(2.0 * math.pi**2, rel=1e-10)
        cfg = ito_config(
            form=ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, r_trunc=30.0),
            n_steps=10, stop_at_tau_r=True,
        )
        res = run_path(cfg, steep, NoisePath.generate(1, cfg.dt, cfg.n_steps))
        assert res.tau_r_triggered
        assert res.tau_r_time == 0.0
        assert res.steps_done == 0

    def test_tau_r_flag_without_stop(self):
        grid = GridSpec(16)
        x1, _ = grid.nodes()
        steep = ScalarField(grid, 0.5 * np.sin(TWO_PI * x1))
        cfg = ito_config(
            form=ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, r_trunc=30.0),
            n_steps=10,
        )
        res = run_path(cfg, steep, NoisePath.generate(1, cfg.dt, cfg.n_steps))
        assert res.tau_r_triggered and res.tau_r_time == 0.0
        assert res.steps_done == 10

    def test_audits_and_martingale_samples(self):
        cfg = ito_config(n_steps=20, martingale_steps=(10, 20))
        res = run_path(cfg, smooth_u0(cfg.grid), NoisePath.generate(5, cfg.dt, cfg.n_steps))
        assert [s.step for s in res.martingale_samples] == [10, 20]


class TestRunEnsemble:
    def test_deterministic_per_path_seeds(self):
        cfg = ito_config(n_steps=10)
        u0 = smooth_u0(cfg.grid)
        a = run_ensemble(cfg, u0, n_paths=4, base_seed=42)
        b = run_ensemble(cfg, u0, n_paths=4, base_seed=42)
        assert a.n_paths == 4 and a.n_censored == 0
        assert [r.seed for r in a.results] == [path_seed(42, i) for i in range(4)]
        for ra, rb in zip(a.results, b.results):
            np.testing.assert_array_equal(ra.terminal.values, rb.terminal.values)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        cfg = ito_config(n_steps=10)
        u0 = smooth_u0(cfg.grid)
        use_workers(monkeypatch, 1)
        serial = run_ensemble(cfg, u0, n_paths=6, base_seed=9)
        use_workers(monkeypatch, 3)
        pooled = run_ensemble(cfg, u0, n_paths=6, base_seed=9)
        for ra, rb in zip(serial.results, pooled.results):
            np.testing.assert_array_equal(ra.terminal.values, rb.terminal.values)
            assert ra.records == rb.records

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_censor_accounting(self, monkeypatch):
        cfg = ito_config(n_steps=5)
        grid = cfg.grid

        x1, _ = grid.nodes()

        def u0(i):
            if i == 2:
                return ScalarField(grid, 1e160 * np.sin(TWO_PI * x1))
            return ScalarField.constant(grid, 0.1 * i)

        singles = [run_path(cfg, u0(i), path_noise(cfg, 0, i)) for i in range(8)]
        for workers in worker_counts(8):
            use_workers(monkeypatch, workers)
            rep = run_ensemble(cfg, u0, n_paths=8, base_seed=0)
            assert rep.n_censored == 1
            assert rep.censor_rate == pytest.approx(1 / 8)
            assert not rep.ok
            assert len(rep.uncensored()) == 7
            mat = rep.records_matrix("mass")
            assert mat.shape == (7, 2)     # records at steps 0 and 5
            assert rep.total_steps == 7 * 5
            assert rep.results[2].blowup_step == 1
            assert rep.results[2].blowup_index == (0, 0)
            for i, (res, alone) in enumerate(zip(rep.results, singles)):
                if i != 2:
                    assert_same_path(res, alone)

    def test_martingale_report_wired(self):
        cfg = ito_config(n_steps=20, martingale_steps=(10, 20))
        rep = run_ensemble(cfg, ScalarField.constant(cfg.grid, 0.0), 16, base_seed=911)
        assert rep.martingale is not None
        np.testing.assert_allclose(rep.martingale.times, [0.01, 0.02])
        assert rep.martingale.n_paths == 16
        assert rep.martingale.assembly_gap <= 1e-13

    def test_path_count_validation(self):
        cfg = ito_config()
        with pytest.raises(ValueError, match="n_paths"):
            run_ensemble(cfg, ScalarField.constant(cfg.grid, 0.0), 0, base_seed=0)


class TestBatchParity:
    """Every row of a batched ensemble equals its one-path run bit for bit."""

    N_PATHS = 6
    SEED = 404

    @staticmethod
    def u0(i):
        grid = GridSpec(16)
        x1, x2 = grid.nodes()
        a = 0.1 + 0.05 * i
        return ScalarField(grid, a * np.sin(TWO_PI * x1) + 0.2 * np.cos(TWO_PI * x2))

    def check(self, cfg, monkeypatch):
        """Compare every row with its one-path run at each worker count."""
        singles = [run_path(cfg, self.u0(i), path_noise(cfg, self.SEED, i))
                   for i in range(self.N_PATHS)]
        for workers in worker_counts(self.N_PATHS):
            use_workers(monkeypatch, workers)
            rep = run_ensemble(cfg, self.u0, self.N_PATHS, self.SEED)
            assert len(rep.results) == self.N_PATHS
            for res, alone in zip(rep.results, singles):
                assert_same_path(res, alone)
        return rep

    def test_ito_mcf(self, monkeypatch):
        rep = self.check(
            ito_config(n_steps=30, record_stride=7, martingale_steps=(10, 30)), monkeypatch
        )
        assert all(len(r.martingale_samples) == 2 for r in rep.results)

    def test_ensemble_split_over_batches(self, monkeypatch):
        monkeypatch.setattr(harness, "BATCH_CELLS", 4 * 16 * 16)  # batches of 4 and 2
        self.check(
            ito_config(n_steps=30, record_stride=7, martingale_steps=(10, 30)), monkeypatch
        )

    def test_regularized_with_eta(self, monkeypatch):
        self.check(ito_config(
            form=ModelForm(FormKind.REGULARIZED, eps=0.1, eta=1e-3, big_k=1),
            dt=1e-4, n_steps=30, record_stride=7, martingale_steps=(10, 30),
        ), monkeypatch)

    def test_stratonovich_heun(self, monkeypatch):
        self.check(ModelConfig(
            form=ModelForm(FormKind.STRATONOVICH_MCF),
            n=16, dt=1e-4, n_steps=30, record_stride=7, martingale_steps=(10, 30),
        ), monkeypatch)

    @pytest.mark.parametrize("stop", [False, True])
    def test_truncated_with_triggers(self, stop, monkeypatch):
        # R/2 = 12.5: row 5 starts above it; row 4 (hess sup ~11.8) reaches
        # it only after steps with the big increments of dt = 2e-3
        cfg = ito_config(
            form=ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, r_trunc=25.0),
            dt=2e-3, n_steps=30, record_stride=7, stop_at_tau_r=stop,
        )
        rep = self.check(cfg, monkeypatch)
        times = [r.tau_r_time for r in rep.results]
        assert times[5] == 0.0
        assert any(t is not None and t > 0.0 for t in times)
        assert any(t is None for t in times)
        if stop:
            assert rep.results[5].steps_done == 0
            assert any(r.steps_done == cfg.n_steps for r in rep.results)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_heun_blowups_leave_other_rows_unchanged(self, monkeypatch):
        cfg = ModelConfig(
            form=ModelForm(FormKind.STRATONOVICH_MCF),
            n=16, dt=1e-3, n_steps=5, record_stride=5, martingale_steps=(2, 5),
        )
        x1, _ = cfg.grid.nodes()

        def u0(i):
            # in step 1 row 1 overflows in the predictor and row 3 only in
            # the corrector; row 2 overflows in step 3, after its martingale
            # sample at step 2
            amp = {1: 1e160, 2: 1.8e153, 3: 2.04e153}.get(i)
            if amp is None:
                return smooth_u0(cfg.grid)
            return ScalarField(cfg.grid, amp * np.sin(TWO_PI * x1))

        singles = [run_path(cfg, u0(i), path_noise(cfg, 0, i)) for i in range(5)]
        for workers in worker_counts(5):
            use_workers(monkeypatch, workers)
            rep = run_ensemble(cfg, u0, 5, base_seed=0)
            assert [r.blowup_step for r in rep.results] == [None, 1, 3, 1, None]
            assert rep.results[1].blowup_index != rep.results[3].blowup_index
            assert len(rep.results[2].martingale_samples) == 1
            for res, alone in zip(rep.results, singles):
                assert_same_path(res, alone)


class TestRunPaths:
    """run_paths rows equal one-path runs on the same noise paths bit for bit."""

    CONFIGS = {
        "em_imex": ito_config(n_steps=30, record_stride=7, martingale_steps=(10, 30)),
        "heun_strat": ModelConfig(
            form=ModelForm(FormKind.STRATONOVICH_MCF),
            n=16, dt=1e-4, n_steps=30, record_stride=7, martingale_steps=(10, 30),
        ),
    }

    @pytest.mark.parametrize("scheme", sorted(CONFIGS))
    def test_rows_equal_run_path_on_coarse_and_refined_noise(self, scheme, monkeypatch):
        monkeypatch.setattr(harness, "BATCH_CELLS", 4 * 16 * 16)  # batches of 4 and 1
        u0 = TestBatchParity.u0
        coarse_cfg = self.CONFIGS[scheme]
        coarse = [NoisePath.generate(path_seed(77, i), coarse_cfg.dt, 30) for i in range(5)]
        fine = [nz.refine() for nz in coarse]
        fine_cfg = ModelConfig(**{
            **coarse_cfg.__dict__, "dt": coarse_cfg.dt / 2, "n_steps": 60,
            "martingale_steps": (20, 60),
        })
        for cfg, noises in ((coarse_cfg, coarse), (fine_cfg, fine)):
            results = run_paths(cfg, u0, iter(noises))
            assert len(results) == len(noises)
            for i, (res, nz) in enumerate(zip(results, noises)):
                assert res.seed == nz.seed
                assert not res.censored and res.steps_done == cfg.n_steps
                assert_same_path(res, run_path(cfg, u0(i), noise=nz))

    def test_longer_noise_and_shared_initial_field(self):
        cfg = ito_config()
        u0 = smooth_u0(cfg.grid)
        noises = [NoisePath.generate(5, cfg.dt, 20), NoisePath.generate(6, cfg.dt, 35)]
        for res, nz in zip(run_paths(cfg, u0, noises), noises):
            assert_same_path(res, run_path(cfg, u0, noise=nz))

    def test_noise_validation(self):
        cfg = ito_config()
        u0 = ScalarField.constant(cfg.grid, 0.0)
        with pytest.raises(ValueError, match="does not match the config dt"):
            run_paths(cfg, u0, [NoisePath.generate(0, 2e-3, 20)])
        with pytest.raises(ValueError, match="shorter than the run"):
            run_paths(cfg, u0, [NoisePath.generate(0, 1e-3, 20), NoisePath.generate(1, 1e-3, 10)])
        assert run_paths(cfg, u0, []) == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_slices_of_several_batches(self, workers, monkeypatch):
        # batches of 2: slices of 4 + 4 paths at W = 2, of 2 + 3 + 3 at W = 3
        monkeypatch.setattr(harness, "BATCH_CELLS", 2 * 16 * 16)
        use_workers(monkeypatch, workers)
        cfg = self.CONFIGS["em_imex"]
        u0 = TestBatchParity.u0
        noises = [NoisePath.generate(path_seed(78, i), cfg.dt, 30) for i in range(8)]
        results = run_paths(cfg, u0, noises)
        assert len(results) == len(noises)
        for i, (res, nz) in enumerate(zip(results, noises)):
            assert_same_path(res, run_path(cfg, u0(i), noise=nz))
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_no_paths_at_every_worker_count(self, workers, monkeypatch):
        use_workers(monkeypatch, workers)
        cfg = ito_config()
        assert run_paths(cfg, ScalarField.constant(cfg.grid, 0.0), []) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_terminals_hold_only_their_own_field(self, workers, monkeypatch):
        # a row that leaves the batch used to keep a view of the whole
        # (P, n, n) batch array as its terminal
        use_workers(monkeypatch, workers)
        cfg = ito_config(n_steps=5)
        x1, _ = cfg.grid.nodes()

        def u0(i):  # path 1 overflows in step 1
            if i == 1:
                return ScalarField(cfg.grid, 1e160 * np.sin(TWO_PI * x1))
            return smooth_u0(cfg.grid)

        noises = [NoisePath.generate(path_seed(79, i), cfg.dt, 5) for i in range(4)]
        results = run_paths(cfg, u0, noises)
        assert [r.blowup_step for r in results] == [None, 1, None, None]
        for i, (res, nz) in enumerate(zip(results, noises)):
            values = res.terminal.values
            while isinstance(values.base, np.ndarray):
                values = values.base
            # an array unpickled from a worker keeps its own bytes as base
            held = values.nbytes if values.base is None else memoryview(values.base).nbytes
            assert held == 16 * 16 * 8
            assert_same_path(res, run_path(cfg, u0(i), noise=nz))

    def test_finishing_a_batch_imports_no_numpy_ma(self, tmp_path):
        # numpy's np.unique-based set routines import all of numpy.ma (~1 MB)
        # on their first call; pytest may have imported it already, so only a
        # fresh interpreter shows what a run pulls in
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from smcflow import harness
            from smcflow.cli import main
            from smcflow.dynamics import FormKind, ModelForm
            from smcflow.grid import ScalarField
            from smcflow.harness import ModelConfig, run_path, run_paths
            from smcflow.noise import NoisePath

            cfg = ModelConfig(form=ModelForm(FormKind.ITO_MCF), n=16, dt=1e-3, n_steps=5)
            x1, _ = cfg.grid.nodes()
            smooth = ScalarField(cfg.grid, 0.3 * np.sin(2 * np.pi * x1))
            run_path(cfg, smooth, NoisePath.generate(1, cfg.dt, 5))
            # two workers; path 1 overflows in step 1 and leaves its batch
            harness.worker_count = lambda: 2
            blowup = ScalarField(cfg.grid, 1e160 * np.sin(2 * np.pi * x1))
            noises = [NoisePath.generate(i, cfg.dt, 5) for i in range(4)]
            with np.errstate(all="ignore"):
                results = run_paths(cfg, lambda i: blowup if i == 1 else smooth, noises)
            assert [r.censored for r in results] == [False, True, False, False]
            with open("run.cfg", "w") as f:
                f.write("n = 16\\ndt = 0.001\\nT = 0.02\\n"
                        "initial_condition = modes:[(1,0,0.2,0.0)]\\n")
            assert main(["run", "run.cfg", "--output-dir", "o", "--stop-after-steps", "9"]) == 0
            assert main(["resume", "run.cfg", "--checkpoint", "o/checkpoint.snap",
                         "--output-dir", "o"]) == 0
            print("numpy.ma imported:", "numpy.ma" in sys.modules)
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "numpy.ma imported: False"


class TestWorkers:
    """The worker count and the forked slices' failure handling."""

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert harness.worker_count() == 3
        monkeypatch.delattr(os, "fork")
        assert harness.worker_count() == 1

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)

        def fork():
            raise AssertionError("forked while another thread runs")

        monkeypatch.setattr(os, "fork", fork)
        cfg = ito_config(n_steps=5)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert harness.worker_count() == 1
            rep = run_ensemble(cfg, ScalarField.constant(cfg.grid, 0.0), 4, base_seed=0)
        finally:
            release.set()
            thread.join()
        assert [r.seed for r in rep.results] == [path_seed(0, i) for i in range(4)]
        assert_no_child_left()

    def test_success_leaves_no_child(self, monkeypatch):
        use_workers(monkeypatch, 3)
        cfg = ito_config(n_steps=5)
        rep = run_ensemble(cfg, ScalarField.constant(cfg.grid, 0.0), 4, base_seed=0)
        assert [r.seed for r in rep.results] == [path_seed(0, i) for i in range(4)]
        assert_no_child_left()

    @pytest.mark.parametrize("bad", [0, 3])  # the parent's slice, a child's slice
    def test_exception_in_a_slice_reaches_the_caller(self, bad, monkeypatch):
        use_workers(monkeypatch, 2)
        cfg = ito_config(n_steps=5)

        def u0(i):
            if i == bad:
                raise KeyError(f"no initial field for path {i}")
            return ScalarField.constant(cfg.grid, 0.0)

        with pytest.raises(KeyError, match=f"no initial field for path {bad}") as info:
            run_ensemble(cfg, u0, 4, base_seed=0)
        if bad:
            assert "in the worker for paths [2, 4)" in str(info.value.__cause__)
        assert_no_child_left()

    def test_unpicklable_exception_is_named(self, monkeypatch):
        use_workers(monkeypatch, 2)
        cfg = ito_config(n_steps=5)

        class LocalError(Exception):
            pass

        def u0(i):
            if i == 1:
                raise LocalError("cannot be pickled")
            return ScalarField.constant(cfg.grid, 0.0)

        with pytest.raises(RuntimeError, match="LocalError: cannot be pickled"):
            run_ensemble(cfg, u0, 2, base_seed=0)
        assert_no_child_left()

    def test_child_that_dies_without_a_result(self, monkeypatch):
        use_workers(monkeypatch, 2)
        cfg = ito_config(n_steps=5)

        parent = os.getpid()

        def u0(i):
            if i == 1 and os.getpid() != parent:
                os._exit(7)
            return ScalarField.constant(cfg.grid, 0.0)

        with pytest.raises(RuntimeError, match=r"paths \[1, 2\) ended without a result "
                                               r"\(exit code 7\)"):
            run_ensemble(cfg, u0, 2, base_seed=0)
        assert_no_child_left()


class TestSweepPlan:
    def base(self):
        return ito_config(n_steps=10)

    def test_axis_and_shape_validation(self):
        for axis in ("mu", "dt"):
            with pytest.raises(ValueError, match="unknown sweep axis"):
                SweepPlan(axis=axis, values=(1.0, 2.0), base_config=self.base(),
                          n_paths=2, base_seed=0)
        with pytest.raises(ValueError, match="at least two values"):
            SweepPlan(axis="eta", values=(1.0,), base_config=self.base(),
                      n_paths=2, base_seed=0)
        with pytest.raises(ValueError, match="strictly monotone"):
            SweepPlan(axis="eta", values=(1.0, 3.0, 2.0), base_config=self.base(),
                      n_paths=2, base_seed=0)
        with pytest.raises(ValueError, match="n_paths"):
            SweepPlan(axis="eta", values=(1.0, 0.5), base_config=self.base(),
                      n_paths=0, base_seed=0)
        # every value's config is built with the plan, before any run
        reg = ito_config(form=ModelForm(FormKind.REGULARIZED, eps=0.4))
        with pytest.raises(ValueError, match=r"eps in \(0, 1\]"):
            SweepPlan(axis="epsilon", values=(0.4, 1.5), base_config=reg,
                      n_paths=2, base_seed=0)

    def test_form_must_read_the_axis(self):
        # an eta plan on ito_mcf used to report mean_diffs [0.] and cauchy True,
        # an R plan on regularized untriggered_bit_identical True
        reg = ito_config(form=ModelForm(FormKind.REGULARIZED, eps=0.4))
        trunc = ito_config(form=ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.4, r_trunc=20.0))
        for axis, values in (("eta", (1e-3, 0.0)), ("epsilon", (0.4, 0.2))):
            with pytest.raises(ValueError, match="need form = regularized or regularized_truncated"):
                SweepPlan(axis=axis, values=values, base_config=self.base(),
                          n_paths=2, base_seed=0)
            for base in (reg, trunc):
                SweepPlan(axis=axis, values=values, base_config=base, n_paths=2, base_seed=0)
        for base in (self.base(), reg):
            with pytest.raises(ValueError, match="R sweeps need form = regularized_truncated"):
                SweepPlan(axis="R", values=(20.0, 60.0), base_config=base,
                          n_paths=2, base_seed=0)
        SweepPlan(axis="R", values=(20.0, 60.0), base_config=trunc, n_paths=2, base_seed=0)


class TestSweeps:
    def test_eta_sweep_is_cauchy(self):
        grid = GridSpec(16)
        base = ModelConfig(
            form=ModelForm(FormKind.REGULARIZED, eps=0.1, eta=1e-3, big_k=1),
            n=16, dt=1e-4, n_steps=50, record_stride=50,
        )
        plan = SweepPlan(axis="eta", values=(1e-3, 1e-4, 1e-5, 0.0),
                         base_config=base, n_paths=4, base_seed=777)
        rep = sweep_eta(plan, smooth_u0(grid))
        assert rep.etas == (1e-3, 1e-4, 1e-5, 0.0)
        assert len(rep.reports) == 4
        assert rep.mean_diffs.shape == (3,)
        assert np.all(rep.mean_diffs > 0.0)
        assert rep.cauchy

    def test_eta_sweep_axis_guard(self):
        reg = ito_config(form=ModelForm(FormKind.REGULARIZED, eps=0.4))
        plan = SweepPlan(axis="epsilon", values=(0.4, 0.2), base_config=reg,
                         n_paths=2, base_seed=0)
        with pytest.raises(ValueError, match="axis must be 'eta'"):
            sweep_eta(plan, ScalarField.constant(GridSpec(16), 0.0))

    def test_epsilon_sweep_report_shape(self):
        grid = GridSpec(16)
        base = ModelConfig(
            form=ModelForm(FormKind.REGULARIZED, eps=0.4, eta=0.0),
            n=16, dt=1e-4, n_steps=50, record_stride=10,
        )
        plan = SweepPlan(axis="epsilon", values=(0.4, 0.2, 0.1),
                         base_config=base, n_paths=4, base_seed=1234)
        rep = sweep_epsilon(plan, smooth_u0(grid))
        assert rep.eps_values == (0.4, 0.2, 0.1)
        assert rep.area_excess.shape == (3,)
        assert np.all(np.isfinite(rep.area_excess))
        assert rep.grad_margin.shape == (3,)
        assert rep.mean_diffs.shape == (2,)
        # energy decays strongly here, so the per-eps bound holds
        assert rep.grad_uniform
        terms = (rep.area0, rep.sup_term, rep.half_dissipation, rep.eps_share,
                 rep.eps_share_min, rep.area_change, rep.closure, rep.closure_se)
        for term in terms:
            assert term.shape == (3,)
            assert np.all(np.isfinite(term))
        np.testing.assert_allclose(
            rep.sup_term + rep.half_dissipation, rep.area_excess, rtol=0.0, atol=1e-14
        )
        assert np.all(rep.eps_share_min >= 0.0)
        assert np.all(rep.closure_se >= 0.0)
        np.testing.assert_allclose(
            rep.area_change + 2.0 * rep.half_dissipation + rep.eps_share,
            rep.closure, rtol=0.0, atol=1e-14,
        )

    def test_r_sweep_triggers_die_out(self):
        grid = GridSpec(16)
        x1, _ = grid.nodes()
        steep = ScalarField(grid, 0.5 * np.sin(TWO_PI * x1))
        base = ModelConfig(
            form=ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, r_trunc=20.0),
            n=16, dt=1e-4, n_steps=30, record_stride=30,
        )
        plan = SweepPlan(axis="R", values=(20.0, 60.0, 1e6),
                         base_config=base, n_paths=4, base_seed=55)
        rep = sweep_R(plan, steep)
        assert rep.trigger_fraction[0] == 1.0   # R/2 = 10 below the initial sup
        assert rep.fraction_nonincreasing
        assert rep.final_fraction_zero
        assert rep.untriggered_bit_identical

    def test_r_sweep_must_increase(self):
        base = ModelConfig(
            form=ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, r_trunc=20.0),
            n=16, dt=1e-4, n_steps=10,
        )
        with pytest.raises(ValueError, match="must increase"):
            SweepPlan(axis="R", values=(60.0, 20.0), base_config=base,
                      n_paths=2, base_seed=0)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
