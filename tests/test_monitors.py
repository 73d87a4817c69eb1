"""Tests for energy records, martingale statistics, and inequality checks."""
import math

import numpy as np
import pytest

from smcflow.dynamics import EmImexStepper, FormKind, ModelForm, PathBatch
from smcflow.grid import GridSpec, ScalarField
from smcflow.monitors import (
    DEFAULT_C_DT,
    RECORD_FIELDS,
    AreaInequalityReport,
    EnergyRecord,
    MartingaleTracker,
    area_inequality_check,
    gradient_inequality_check,
    kendall_tau,
    martingale_test,
    record_path_sample,
)
from smcflow.noise import NoisePath, path_seed

TWO_PI = 2.0 * math.pi

# midpoint + AGM quadrature of int_0^1 sqrt(1 + 4 pi^2 cos^2(2 pi x)) dx
AREA_SIN_MODE = 4.188275203698433


def make_record(t, ge=0.0, area=1.0, mcd=0.0, lapd=0.0, mass=0.0):
    return EnergyRecord(
        t=t, grad_energy=ge, area=area, mc_dissipation=mcd,
        laplace_dissipation=lapd, mass=mass, gauss_bonnet=0.0,
        hess_linf=0.0, u_min=0.0, u_max=0.0,
    )


class TestRecord:
    def test_flat_field(self):
        grid = GridSpec(16)
        r = record_path_sample(ScalarField.constant(grid, -0.3), 0.25)[0]
        assert r.t == 0.25
        assert r.grad_energy == 0.0
        assert r.area == 1.0
        assert r.mc_dissipation == 0.0
        assert r.laplace_dissipation == 0.0
        assert r.mass == pytest.approx(-0.3, abs=1e-15)
        assert r.gauss_bonnet == pytest.approx(0.0, abs=1e-14)
        assert r.hess_linf == 0.0
        assert r.u_min == -0.3 and r.u_max == -0.3

    def test_single_mode_oracles(self):
        # u = sin(2 pi x1): grad energy 2 pi^2, laplacian dissipation 8 pi^4,
        # hessian sup 4 pi^2 (attained at the x1 = 1/4 node)
        grid = GridSpec(64)
        x1, _ = grid.nodes()
        r = record_path_sample(ScalarField(grid, np.sin(TWO_PI * x1)), 0.0)[0]
        assert r.grad_energy == pytest.approx(2.0 * math.pi**2, rel=1e-13)
        assert r.laplace_dissipation == pytest.approx(8.0 * math.pi**4, rel=1e-13)
        assert r.hess_linf == pytest.approx(4.0 * math.pi**2, rel=1e-12)
        assert r.mass == pytest.approx(0.0, abs=1e-14)
        assert r.u_min == pytest.approx(-1.0) and r.u_max == pytest.approx(1.0)
        assert r.mc_dissipation > 0.0

    def test_area_against_elliptic_quadrature(self):
        # the cross-section arc length has no elementary closed form; the
        # reference value comes from a separate dense midpoint quadrature
        gaps = []
        for n in (64, 128):
            grid = GridSpec(n)
            x1, _ = grid.nodes()
            r = record_path_sample(ScalarField(grid, np.sin(TWO_PI * x1)), 0.0)[0]
            gaps.append(abs(r.area - AREA_SIN_MODE))
        assert gaps[0] <= 1e-6
        assert gaps[1] <= 1e-10

    def test_row_layout_matches_schema(self):
        r = make_record(0.5, mass=2.0)
        row = r.as_row()
        assert len(row) == len(RECORD_FIELDS) == 10
        assert row[RECORD_FIELDS.index("t")] == 0.5
        assert row[RECORD_FIELDS.index("mass")] == 2.0

    def test_path_sample_one_field_matches_batch_row(self):
        # one field gives its row of a batch sample bit for bit; a flat row
        # has <v, Lap u> = 0
        grid = GridSpec(16)
        x1, x2 = grid.nodes()
        flat = ScalarField.constant(grid, 1.0)
        wavy = ScalarField(grid, 0.3 * np.sin(TWO_PI * x1) + 0.2 * np.cos(TWO_PI * x2))
        recs, v_laps = record_path_sample(np.stack([flat.values, wavy.values]), 0.5)
        assert record_path_sample(flat, 0.5) == (recs[0], 0.0)
        assert v_laps[0] == 0.0
        assert record_path_sample(wavy, 0.5) == (recs[1], v_laps[1])
        assert v_laps[1] > 0.0

    def test_path_sample_v_lap_matches_1d_quadrature(self):
        # u = a sin(2 pi x1): v = u'' / H^3 and Lap u = u'', so <v, Lap u>
        # is the x1 integral of u''^2 (1 + u'^2)^(-3/2)
        a, n = 0.1, 64
        grid = GridSpec(n)
        x1, _ = grid.nodes()
        _, v_lap = record_path_sample(ScalarField(grid, a * np.sin(TWO_PI * x1)), 0.0)
        x = (np.arange(4096) + 0.5) / 4096
        d1 = a * TWO_PI * np.cos(TWO_PI * x)
        d2 = -a * TWO_PI**2 * np.sin(TWO_PI * x)
        ref = float(np.mean(d2 * d2 * (1.0 + d1 * d1) ** -1.5))
        assert v_lap == pytest.approx(ref, rel=1e-12, abs=0.0)


def track(stepper, tracker, u0, noise):
    """Step u0 as a batch of one along noise; the path's samples and the audits."""
    batch = PathBatch(u0.values[None], 0, noise.increments[None])
    samples, audits = [], []
    for _ in range(noise.n_steps):
        batch, audit = stepper.step(batch)
        sample = tracker.update(audit)
        if sample is not None:
            samples.append(sample.row(0))
        audits.append(audit)
    return samples, audits


def run_flat_tracked(seed, n_steps, sample_steps, c=0.2):
    grid = GridSpec(8)
    noise = NoisePath.generate(seed, 1e-3, n_steps)
    stepper = EmImexStepper(grid, ModelForm(FormKind.ITO_MCF), noise.dt)
    tracker = MartingaleTracker(noise.dt, sample_steps)
    samples, audits = track(stepper, tracker, ScalarField.constant(grid, c), noise)
    return samples, noise, audits


class TestMartingaleTracker:
    def test_flat_path_reduces_to_brownian(self):
        # g integrates to one on a flat graph, so M(t) = W(t) and Qhat = t
        samples, noise, _ = run_flat_tracked(3, 50, [10, 30, 50])
        assert [s.step for s in samples] == [10, 30, 50]
        for s in samples:
            assert s.t == pytest.approx(s.step * 1e-3)
            assert s.m == pytest.approx(noise.w[s.step], abs=1e-14)
            assert s.w == noise.w[s.step]
            assert s.qhat == pytest.approx(s.t, abs=1e-14)
            assert s.a_int == pytest.approx(s.t, abs=1e-14)
            assert abs(s.m - s.m_def) <= 1e-13

    def test_smooth_path_assembly_gap(self):
        # the direct noise sum and the drift-subtracted mass increment are
        # the same number up to rounding
        grid = GridSpec(16)
        x1, x2 = grid.nodes()
        u0 = ScalarField(grid, 0.3 * np.sin(TWO_PI * x1) + 0.2 * np.cos(TWO_PI * x2))
        noise = NoisePath.generate(7, 1e-3, 40)
        stepper = EmImexStepper(grid, ModelForm(FormKind.ITO_MCF), noise.dt)
        samples, _ = track(stepper, MartingaleTracker(noise.dt, [10, 40]), u0, noise)
        assert [s.step for s in samples] == [10, 40]
        assert max(abs(s.m - s.m_def) for s in samples) <= 1e-12


class TestMartingaleTest:
    def test_flat_ensemble_statistics(self):
        per_path = [run_flat_tracked(path_seed(911, i), 50, [10, 30, 50])[0]
                    for i in range(64)]
        rep = martingale_test(per_path)
        assert rep.n_paths == 64 and rep.n_censored == 0
        np.testing.assert_allclose(rep.times, [0.01, 0.03, 0.05])
        np.testing.assert_allclose(rep.qhat_mean, [0.01, 0.03, 0.05], atol=1e-14)
        # M = W exactly, so the ratio is the sample variance of W(t) over t
        assert np.all(rep.mean_ok) and np.all(rep.cross_ok) and rep.ok
        assert np.all(np.abs(rep.var_ratio - 1.0) < 0.5)
        assert rep.assembly_gap <= 1e-13

    def test_hand_built_statistics(self):
        def sample(m, w, qhat, a_int):
            from smcflow.monitors import MartingaleSample
            return MartingaleSample(step=1, t=0.5, m=m, m_def=m, qhat=qhat,
                                    a_int=a_int, w=w)

        ms = [1.0, -1.0, 2.0, -2.0]
        per_path = [[sample(v, v, 2.5, 0.0)] for v in ms]
        rep = martingale_test(per_path, n_censored=3)
        assert rep.n_censored == 3
        assert rep.mean_m[0] == 0.0
        assert rep.var_m[0] == pytest.approx(np.var(ms, ddof=1))
        assert rep.se_m[0] == pytest.approx(math.sqrt(np.var(ms, ddof=1) / 4))
        assert rep.var_ratio[0] == pytest.approx(np.var(ms, ddof=1) / 2.5)
        # cross term: M W - a_int = m^2 here
        assert rep.cross_mean[0] == pytest.approx(np.mean(np.square(ms)))
        assert rep.assembly_gap == 0.0

    def test_validation(self):
        from smcflow.monitors import MartingaleSample

        s = MartingaleSample(step=1, t=0.1, m=0.0, m_def=0.0, qhat=0.1, a_int=0.0, w=0.0)
        with pytest.raises(ValueError, match="no paths"):
            martingale_test([])
        with pytest.raises(ValueError, match="different sample-time sets"):
            martingale_test([[s], [s, s]])
        with pytest.raises(ValueError, match="no martingale samples"):
            martingale_test([[], []])


class TestGradientInequality:
    def test_decreasing_energy_passes(self):
        paths = []
        for i in range(4):
            ge0 = 1.0 + 0.01 * i
            paths.append([make_record(0.0, ge=ge0, lapd=1.0),
                          make_record(0.1, ge=0.5 * ge0, lapd=0.8),
                          make_record(0.2, ge=0.25 * ge0, lapd=0.6)])
        rep = gradient_inequality_check(paths, eps=0.0, dt=1e-3, min_paths=2)
        assert rep.verdict == "pass" and rep.ok
        assert rep.allowance == pytest.approx(DEFAULT_C_DT * 1e-3)
        assert np.all(rep.margins >= 0.0)
        assert rep.mean_x[0] == 0.0

    def test_growing_energy_fails(self):
        paths = [[make_record(0.0, ge=1.0), make_record(0.1, ge=9.0)]
                 for _ in range(4)]
        rep = gradient_inequality_check(paths, eps=0.0, dt=1e-3, min_paths=2)
        assert rep.verdict == "fail" and not rep.ok
        assert rep.margins[1] < 0.0

    def test_dissipation_term_counts_against_budget(self):
        # flat energy but positive eps-weighted dissipation must fail once
        # the accumulated integral exceeds the allowance
        paths = [[make_record(0.0, ge=1.0, lapd=5.0), make_record(1.0, ge=1.0, lapd=5.0)]
                 for _ in range(4)]
        fail = gradient_inequality_check(paths, eps=0.5, dt=1e-3, min_paths=2)
        assert fail.verdict == "fail"
        ok = gradient_inequality_check(paths, eps=0.0, dt=1e-3, min_paths=2)
        assert ok.verdict == "pass"

    def test_small_sample_is_flagged_not_judged(self):
        paths = [[make_record(0.0, ge=1.0), make_record(0.1, ge=0.5)]
                 for _ in range(3)]
        rep = gradient_inequality_check(paths, eps=0.1, dt=1e-3)
        assert rep.verdict == "insufficient sample"
        assert not rep.ok


class TestAreaInequality:
    def test_hand_computed_ratio(self):
        # two paths, areas rise then fall; sup over the recording grid
        a = [[make_record(0.0, area=1.0, mcd=0.0),
              make_record(1.0, area=1.4, mcd=0.2),
              make_record(2.0, area=1.2, mcd=0.2)],
             [make_record(0.0, area=1.2, mcd=0.0),
              make_record(1.0, area=1.0, mcd=0.4),
              make_record(2.0, area=1.6, mcd=0.4)]]
        rep = area_inequality_check(a, [[0.0] * 3] * 2, eps=0.0)
        assert isinstance(rep, AreaInequalityReport)
        assert rep.n_paths == 2
        assert rep.sup_mean == pytest.approx(1.5)           # (1.4 + 1.6) / 2
        assert rep.dissipation_mean == pytest.approx(0.45)  # trapz: 0.3 and 0.6
        assert rep.area0_mean == pytest.approx(1.1)
        assert rep.ratio == pytest.approx((1.5 + 0.225) / 1.1)
        assert rep.excess == pytest.approx(rep.ratio - 1.0)

    def test_flat_paths_have_unit_ratio(self):
        a = [[make_record(0.0), make_record(1.0)] for _ in range(3)]
        rep = area_inequality_check(a, [[0.0] * 2] * 3, eps=0.0)
        assert rep.ratio == pytest.approx(1.0)
        assert rep.excess == pytest.approx(0.0, abs=1e-15)

    def test_budget_decomposition_hand_computed(self):
        # path 1: area 2.0 -> 1.4, D = trapz(0, 0.4) = 0.2, share = 0.5 * 0.6
        # path 2: area 2.2 -> 1.8, D = trapz(0.2, 0.2) = 0.2, share = 0.5 * 0.2
        a = [[make_record(0.0, area=2.0, mcd=0.0), make_record(1.0, area=1.4, mcd=0.4)],
             [make_record(0.0, area=2.2, mcd=0.2), make_record(1.0, area=1.8, mcd=0.2)]]
        rep = area_inequality_check(a, [[0.4, 0.8], [0.1, 0.3]], eps=0.5)
        assert rep.area_end_mean == pytest.approx(1.6)
        assert rep.eps_share_mean == pytest.approx(0.2)
        assert rep.eps_share_min == pytest.approx(0.1)
        # per-path closures -0.1 and -0.1
        assert rep.closure_mean == pytest.approx(-0.1)
        assert rep.closure_se == pytest.approx(0.0, abs=1e-15)

    def test_budget_validation(self):
        a = [[make_record(0.0), make_record(1.0)]]
        with pytest.raises(ValueError, match="align"):
            area_inequality_check(a, [[0.0]], eps=0.1)


class TestKendallTau:
    def test_monotone_sequences(self):
        xs = [0.1, 0.2, 0.3, 0.4]
        assert kendall_tau(xs, [1.0, 2.0, 3.0, 4.0]) == 1.0
        assert kendall_tau(xs, [4.0, 3.0, 2.0, 1.0]) == -1.0

    def test_mixed(self):
        assert kendall_tau([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(1.0 / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="equally long"):
            kendall_tau([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="length >= 2"):
            kendall_tau([1.0], [1.0])


class TestMassBookkeeping:
    def test_scheme_exact_residuals(self):
        _, _, audits = run_flat_tracked(3, 20, [20])
        res = np.array([a.mass_residual[0] for a in audits])
        assert res.shape == (20,)
        assert np.max(np.abs(res)) <= 1e-14


def test_allowance_coefficient_pinned():
    assert DEFAULT_C_DT == 50.0


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
