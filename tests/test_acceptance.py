"""Acceptance suite: twelve desk-scale go/no-go checks.

Each ``test_criterion_NN`` function is one gate; the conftest hook prints a
single ``[criterion NN] PASS/FAIL`` line per gate at the end of the run.
The two expensive ensembles (the 200-path regularized run and the 500-path
flat run) are session fixtures shared by criteria 5 through 8.
"""
import math

import numpy as np
import pytest

from smcflow import harness
from smcflow.cli import main
from smcflow.config import random_smooth_field
from smcflow.dynamics import (
    EmImexStepper,
    FormKind,
    HeunStratStepper,
    ModelForm,
    PathBatch,
    mild_picard_iterate,
)
from smcflow.geometry import (
    det_dw,
    gauss_bonnet_residual,
    gaussian_curvature,
    geometry_bundle,
    mcf_operator,
    strat_correction,
)
from smcflow.grid import DiffMethod, GridSpec, ScalarField
from smcflow.harness import (
    ModelConfig,
    SweepPlan,
    run_ensemble,
    run_path,
    run_paths,
    sweep_epsilon,
    sweep_eta,
)
from smcflow.monitors import DEFAULT_C_DT, gradient_inequality_check, kendall_tau
from smcflow.noise import NoisePath, path_seed
from smcflow.snapshot import snapshot_payload_crc

TWO_PI = 2.0 * math.pi
FOUR_PI_SQ = 4.0 * math.pi**2


def two_mode_u0(grid, a=0.5, b=0.3):
    x1, x2 = grid.nodes()
    return ScalarField(grid, a * np.sin(TWO_PI * x1) + b * np.cos(TWO_PI * x2))


@pytest.fixture(scope="session")
def suite5():
    """200-path regularized ensemble shared by criteria 5, 6, 7, and 8."""
    cfg = ModelConfig(
        form=ModelForm(FormKind.REGULARIZED, eps=0.1, eta=0.0, big_k=3),
        n=32,
        dt=1e-4,
        n_steps=1000,
        record_stride=10,
        martingale_steps=(250, 500, 1000),
    )
    u0 = two_mode_u0(cfg.grid)
    report = run_ensemble(cfg, u0, 200, base_seed=20240501)
    assert report.n_censored == 0
    return cfg, u0, report


@pytest.fixture(scope="session")
def flat500():
    """500 flat paths; the martingale is exactly the driving Wiener process."""
    cfg = ModelConfig(
        form=ModelForm(FormKind.ITO_MCF),
        n=16,
        dt=1e-3,
        n_steps=100,
        record_stride=10,
        martingale_steps=(25, 50, 100),
    )
    u0 = ScalarField.constant(cfg.grid, 0.0)
    report = run_ensemble(cfg, u0, 500, base_seed=911)
    assert report.n_censored == 0
    return report


def test_criterion_01_graph_geometry_identities():
    # pointwise identities on 20 random smooth fields, spectral, n = 64
    worst_h = worst_det = worst_drift = 0.0
    for seed in range(20):
        u = random_smooth_field(GridSpec(64), seed, 4.0)
        b = geometry_bundle(u)
        w1, w2 = b.w1, b.w2
        h_from_w = 1.0 / np.sqrt(1.0 - w1 * w1 - w2 * w2)
        worst_h = max(worst_h, float(np.max(np.abs(h_from_w - b.H))))
        det_proj = (1.0 - w1 * w1) * (1.0 - w2 * w2) - (w1 * w2) ** 2
        worst_det = max(
            worst_det, float(np.max(np.abs(det_proj - 1.0 / b.H**2)))
        )
        lap = b.a11 + b.a22
        lhs = 0.5 * lap + 0.5 * mcf_operator(b)
        rhs = lap - strat_correction(b)
        worst_drift = max(worst_drift, float(np.max(np.abs(lhs - rhs))))
    print(f"crit01: H gap {worst_h:.3e}  det gap {worst_det:.3e}  "
          f"drift gap {worst_drift:.3e}")
    assert worst_h <= 1e-12
    assert worst_det <= 1e-12
    assert worst_drift <= 1e-8

    # the two curvature routes under second-order refinement
    errs = []
    for n in (32, 64, 128):
        u = random_smooth_field(GridSpec(n), 0, 4.0)
        b = geometry_bundle(u, DiffMethod.CENTRAL2)
        errs.append(float(np.max(np.abs(gaussian_curvature(b) - det_dw(b)))))
    order = 0.5 * math.log2(errs[0] / errs[2])
    print(f"crit01: curvature-route errs {errs}  order {order:.3f}")
    assert order >= 1.8


def test_criterion_02_integrated_curvature_cancellation():
    # gentle amplitudes: the tilt field w = grad u / H is not band-limited,
    # so steep data would leak aliasing into the spectral integral and push
    # the n = 32 central2 level out of the asymptotic regime
    def analytic(n):
        grid = GridSpec(n)
        x1, x2 = grid.nodes()
        return ScalarField(
            grid,
            0.1 * np.sin(TWO_PI * x1) * np.cos(TWO_PI * x2)
            + 0.06 * np.cos(2 * TWO_PI * x2),
        )

    worst = abs(gauss_bonnet_residual(geometry_bundle(analytic(64))))
    for seed in range(5):
        u = random_smooth_field(GridSpec(64), seed, 4.0)
        worst = max(worst, abs(gauss_bonnet_residual(geometry_bundle(u))))
    print(f"crit02: spectral residual {worst:.3e}")
    assert worst <= 1e-8

    errs = [
        abs(gauss_bonnet_residual(geometry_bundle(analytic(n), DiffMethod.CENTRAL2)))
        for n in (32, 64, 128)
    ]
    order = 0.5 * math.log2(errs[0] / errs[2])
    print(f"crit02: central2 residuals {errs}  order {order:.3f}")
    assert errs[0] > errs[1] > errs[2]
    assert order >= 1.8


def test_criterion_03_flat_graph_exactness():
    combos = (
        (EmImexStepper, ModelForm(FormKind.ITO_MCF)),
        (EmImexStepper, ModelForm(FormKind.RHO_VARIANT, rho=1.0)),
        (HeunStratStepper, ModelForm(FormKind.STRATONOVICH_MCF)),
    )
    grid = GridSpec(32)
    worst = 0.0
    for cls, form in combos:
        noise = NoisePath.generate(4242, 1e-3, 1000)
        batch = PathBatch(np.full((1, grid.n, grid.n), 0.7), 0, noise.increments[None])
        stepper = cls(grid, form, noise.dt)
        for m in range(1000):
            batch, _ = stepper.step(batch)
            gap = float(np.max(np.abs(batch.u - 0.7 - noise.w[m + 1])))
            worst = max(worst, gap)
    print(f"crit03: worst |u - c - W| over 3 steppers x 1000 steps: {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_04_linear_mode_decay():
    cfg = ModelConfig(
        form=ModelForm(FormKind.ITO_ANISOTROPIC),
        n=32,
        dt=1e-4,
        n_steps=500,
        record_stride=10,
    )
    grid = cfg.grid
    x1, _ = grid.nodes()
    u0 = ScalarField(grid, 1e-3 * np.sin(TWO_PI * x1))
    res = run_path(cfg, u0, NoisePath(0, cfg.dt, 0, np.zeros(cfg.n_steps)))
    t = np.array([r.t for r in res.records])
    ge = np.array([r.grad_energy for r in res.records])
    # ge(t) = 2 pi^2 a(t)^2, so the fitted slope of log ge is -2 x decay rate
    slope = np.polyfit(t, np.log(ge), 1)[0]
    rate = -0.5 * slope
    rel = abs(rate - FOUR_PI_SQ) / FOUR_PI_SQ
    print(f"crit04: fitted decay rate {rate:.6f} vs 4 pi^2 = {FOUR_PI_SQ:.6f} "
          f"(rel {rel:.4%})")
    assert rel <= 0.01


def test_criterion_05_gradient_energy_inequality(suite5):
    cfg, _, report = suite5
    check = gradient_inequality_check(
        [r.records for r in report.uncensored()], eps=cfg.form.eps, dt=cfg.dt
    )
    worst = float(np.min(check.margins))
    print(f"crit05: verdict {check.verdict}  worst margin {worst:.4e}  "
          f"allowance {check.allowance:.4e}")
    assert check.verdict == "pass"


def test_criterion_06_martingale_statistics(suite5, flat500):
    band = 3.0 * math.sqrt(2.0 / 500.0)
    mt_flat = flat500.martingale
    var_over_t = mt_flat.var_m / mt_flat.times
    print(f"crit06 flat: Var M/t {var_over_t}  band 1 +- {band:.4f}")
    assert np.all(np.abs(var_over_t - 1.0) <= band)

    _, _, report = suite5
    mt = report.martingale
    print(f"crit06 general: |mean M| {np.abs(mt.mean_m)}  3SE {3 * mt.se_m}  "
          f"Var M/Qhat {mt.var_ratio}")
    assert np.all(mt.mean_ok)
    assert np.all((mt.var_ratio >= 0.8) & (mt.var_ratio <= 1.2))


def test_criterion_07_mass_bookkeeping(suite5, flat500):
    _, _, report = suite5
    r5 = report.max_mass_residual
    rf = flat500.max_mass_residual
    print(f"crit07: max per-step mass residual {r5:.3e} (general), {rf:.3e} (flat)")
    assert r5 <= 1e-10
    assert rf <= 1e-10


def test_criterion_08_truncation_transparency(suite5):
    cfg, u0, report = suite5
    trunc_cfg = ModelConfig(
        form=ModelForm(
            FormKind.REGULARIZED_TRUNCATED, eps=0.1, eta=0.0, big_k=3, r_trunc=1e6
        ),
        n=cfg.n,
        dt=cfg.dt,
        n_steps=cfg.n_steps,
        record_stride=cfg.record_stride,
        martingale_steps=cfg.martingale_steps,
    )
    twin = run_ensemble(trunc_cfg, u0, report.n_paths, base_seed=20240501)
    triggers = sum(1 for p in twin.results if p.tau_r_triggered)
    print(f"crit08: triggers at R=1e6: {triggers}/{twin.n_paths}")
    assert triggers == 0
    for pa, pb in zip(report.results, twin.results):
        assert np.array_equal(pa.terminal.values, pb.terminal.values)
        assert pa.records == pb.records

    # a field whose initial Hessian already exceeds R/2 must stop at once
    sharp_cfg = ModelConfig(
        form=ModelForm(
            FormKind.REGULARIZED_TRUNCATED, eps=0.1, eta=0.0, big_k=3, r_trunc=30.0
        ),
        n=32,
        dt=1e-4,
        n_steps=50,
        stop_at_tau_r=True,
    )
    x1, _ = sharp_cfg.grid.nodes()
    sharp = ScalarField(sharp_cfg.grid, 0.5 * np.sin(TWO_PI * x1))
    res = run_path(sharp_cfg, sharp, NoisePath.generate(1, sharp_cfg.dt, sharp_cfg.n_steps))
    print(f"crit08: R=30 trigger time {res.tau_r_time}  steps done {res.steps_done}")
    assert res.tau_r_triggered
    assert res.tau_r_time == 0.0
    assert res.steps_done == 0


def test_criterion_09_limit_sweeps():
    grid = GridSpec(32)
    u0 = two_mode_u0(grid)

    # polyharmonic coefficient toward zero; second-order damping (big_k = 1)
    # keeps every eta visible at this resolution instead of flattening all
    # high modes for the whole value list
    eta_base = ModelConfig(
        form=ModelForm(FormKind.REGULARIZED, eps=0.1, eta=1e-4, big_k=1),
        n=32,
        dt=1e-4,
        n_steps=500,
        record_stride=100,
    )
    eta_rep = sweep_eta(
        SweepPlan("eta", (1e-4, 1e-5, 1e-6, 0.0), eta_base, 50, 777), u0
    )
    print(f"crit09 eta: diffs {eta_rep.mean_diffs}  cauchy {eta_rep.cauchy}")
    assert np.all(np.diff(eta_rep.mean_diffs) < 0.0)
    assert eta_rep.cauchy

    eps_base = ModelConfig(
        form=ModelForm(FormKind.REGULARIZED, eps=0.4, eta=0.0, big_k=3),
        n=32,
        dt=2e-4,
        n_steps=500,
        record_stride=10,
    )
    eps_rep = sweep_epsilon(
        SweepPlan("epsilon", (0.4, 0.2, 0.1, 0.05), eps_base, 50, 777), u0
    )
    print(f"crit09 eps: excess {eps_rep.area_excess}  "
          f"grad margins {eps_rep.grad_margin}  uniform {eps_rep.grad_uniform}")
    assert eps_rep.grad_uniform

    # At eta = 0 the area budget closes exactly in expectation:
    #   E area(T) - E area(0) + E iint v^2 H + eps E iint <v, Lap u> = 0,
    # so as eps -> 0 the eps share of the area loss moves into the monitored
    # dissipation and the excess (sup term + half dissipation) rises. Check
    # the identity at every eps, with criterion 5's 3 SE + c dt band, and the
    # downward trend on the term that does vanish, the eps share.
    band = 3.0 * eps_rep.closure_se + DEFAULT_C_DT * eps_base.dt / eps_rep.area0
    print("crit09 eps budget / E area(0): eps, sup term, 1/2 dissipation, "
          "eps share, area change, closure, band")
    for i, eps in enumerate(eps_rep.eps_values):
        print(f"  {eps:<5g} {eps_rep.sup_term[i]:+.4f} {eps_rep.half_dissipation[i]:.4f} "
              f"{eps_rep.eps_share[i]:.4f} {eps_rep.area_change[i]:+.4f} "
              f"{eps_rep.closure[i]:+.2e} {band[i]:.2e}")
    assert np.all(np.abs(eps_rep.closure) <= band), (
        f"area budget E area(T) - E area(0) + E iint v^2 H + eps E iint <v, Lap u> "
        f"does not close: closure={np.round(eps_rep.closure, 5).tolist()} against "
        f"band={np.round(band, 5).tolist()} (relative to E area(0)) along "
        f"eps={list(eps_rep.eps_values)}"
    )
    assert np.all(eps_rep.eps_share_min >= 0.0)
    tau = kendall_tau(list(range(len(eps_rep.eps_values))), list(eps_rep.eps_share))
    print(f"crit09 eps share tau {tau:+.3f}")
    assert tau < 0.0, (
        f"eps share eps E iint <v, Lap u> should vanish as eps shrinks, got "
        f"{np.round(eps_rep.eps_share, 5).tolist()} along eps={list(eps_rep.eps_values)} "
        f"(tau {tau:+.3f})"
    )


def test_criterion_10_ito_stratonovich_consistency():
    grid = GridSpec(16)
    x1, x2 = grid.nodes()
    u0 = ScalarField(grid, 0.3 * np.sin(TWO_PI * x1) + 0.2 * np.cos(TWO_PI * x2))
    n_paths = 500

    def one_level(dt, n_steps, noises):
        cfg_i = ModelConfig(
            form=ModelForm(FormKind.ITO_MCF),
            n=16, dt=dt, n_steps=n_steps, record_stride=n_steps,
        )
        cfg_s = ModelConfig(
            form=ModelForm(FormKind.STRATONOVICH_MCF),
            n=16, dt=dt, n_steps=n_steps, record_stride=n_steps,
        )
        out = {k: [] for k in ("mi", "gi", "ms", "gs")}
        for ri, rs in zip(run_paths(cfg_i, u0, noises), run_paths(cfg_s, u0, noises)):
            out["mi"].append(ri.records[-1].mass)
            out["gi"].append(ri.records[-1].grad_energy)
            out["ms"].append(rs.records[-1].mass)
            out["gs"].append(rs.records[-1].grad_energy)
        return {k: np.array(v) for k, v in out.items()}

    coarse = [NoisePath.generate(path_seed(4242, i), 1e-4, 200) for i in range(n_paths)]
    fine = [nz.refine() for nz in coarse]

    gaps = {}
    for tag, dt, nst, noises in (
        ("coarse", 1e-4, 200, coarse), ("fine", 5e-5, 400, fine)
    ):
        r = one_level(dt, nst, noises)
        for name, a, b in (("mass", r["ms"], r["mi"]), ("ge", r["gs"], r["gi"])):
            gap = abs(a.mean() - b.mean())
            cse = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
            gaps[(tag, name)] = gap
            print(f"crit10 {tag} {name}: gap {gap:.4e}  3cSE {3 * cse:.3e}")
            assert gap <= 3.0 * cse
    assert gaps[("fine", "mass")] < gaps[("coarse", "mass")]
    assert gaps[("fine", "ge")] < gaps[("coarse", "ge")]


def test_criterion_11_mild_map_contraction():
    grid = GridSpec(32)
    u0 = two_mode_u0(grid)
    form = ModelForm(
        FormKind.REGULARIZED_TRUNCATED, eps=0.1, eta=0.0, big_k=3, r_trunc=1e6
    )
    max_ratios = []
    for horizon in (0.01, 0.005):
        noise = NoisePath.generate(seed=2024, dt=1e-4, n_steps=round(horizon / 1e-4))
        rep = mild_picard_iterate(u0, noise, form, horizon=horizon, iterations=6)
        print(f"crit11 horizon {horizon}: ratios {np.round(rep.ratios, 5)}")
        assert len(rep.ratios) == 5
        assert all(r < 1.0 for r in rep.ratios)
        max_ratios.append(max(rep.ratios))
    print(f"crit11: max ratio full {max_ratios[0]:.4f}  half {max_ratios[1]:.4f}")
    assert max_ratios[1] < max_ratios[0]


def test_criterion_12_engineering_determinism(tmp_path, monkeypatch, capsys):
    assert main(["verify"]) == 0
    assert "all 12 checks passed" in capsys.readouterr().out

    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "form = ito_mcf\nn = 16\ndt = 0.001\nT = 0.02\nn_paths = 4\n"
        "base_seed = 31\nrecord_stride = 5\n"
        "initial_condition = modes:[(1,0,0.2,0.0),(0,1,0.1,0.5)]\n",
        encoding="utf-8",
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--output-dir", str(out_a)]) == 0
    assert main(["run", str(cfg), "--output-dir", str(out_b)]) == 0
    assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()

    ens_1, ens_4 = tmp_path / "w1", tmp_path / "w4"
    monkeypatch.setattr(harness, "worker_count", lambda: 1)
    assert main(["ensemble", str(cfg), "--output-dir", str(ens_1)]) == 0
    monkeypatch.setattr(harness, "worker_count", lambda: 4)
    assert main(["ensemble", str(cfg), "--output-dir", str(ens_4)]) == 0
    assert (ens_1 / "ensemble.csv").read_bytes() == (ens_4 / "ensemble.csv").read_bytes()

    part = tmp_path / "part"
    assert main(
        ["run", str(cfg), "--output-dir", str(part), "--stop-after-steps", "9"]
    ) == 0
    assert main(
        ["resume", str(cfg), "--checkpoint", str(part / "checkpoint.snap"),
         "--output-dir", str(part)]
    ) == 0
    crc_resumed = snapshot_payload_crc(part / "final.snap")
    crc_full = snapshot_payload_crc(out_a / "final.snap")
    print(f"crit12: resumed payload CRC {crc_resumed:#010x} vs {crc_full:#010x}")
    assert crc_resumed == crc_full


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
