"""Tests for model forms, drift/diffusion assembly, truncation, and steppers."""
import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from smcflow import dynamics
from smcflow.dynamics import (
    FORM_READS,
    EmImexStepper,
    FormKind,
    HeunStratStepper,
    ModelForm,
    NonFiniteFieldError,
    PathBatch,
    PicardReport,
    StepAudit,
    default_dt,
    drift,
    explicit_terms,
    linear_dt_bound,
    mild_picard_iterate,
    truncate_hessian_arrays,
)
from smcflow.config import build_initial, resolve_dt
from smcflow.geometry import geometry_bundle
from smcflow.grid import GridSpec, ScalarField, get_workspace, gradient, l2_norm_sq
from smcflow.harness import ModelConfig, run_path
from smcflow.noise import NoisePath, path_seed

TWO_PI = 2.0 * math.pi


def smooth_u0(grid):
    x1, x2 = grid.nodes()
    return ScalarField(grid, 0.3 * np.sin(TWO_PI * x1) + 0.2 * np.cos(TWO_PI * x2))


def one_row(u, noise):
    """The field u driven by noise, as a PathBatch of one at step 0."""
    return PathBatch(u.values[None], 0, noise.increments[None])


def diffusion(u, form):
    """The noise coefficient sqrt(rho) H(grad u) of one field, from the stepping kernel."""
    ws = get_workspace(u.grid.n)
    return explicit_terms(ws.forward(u.values[None]), form, ws)[1][0]


def grad_energy(u):
    """||grad u||^2 from the stacked spectral gradient."""
    g1, g2 = gradient(u)
    h = u.grid.h
    return float(h * h * (np.sum(g1 * g1) + np.sum(g2 * g2)))


class TestModelForm:
    def test_regularized_parameter_ranges(self):
        with pytest.raises(ValueError, match=r"eps in \(0, 1\]"):
            ModelForm(FormKind.REGULARIZED, eps=0.0)
        with pytest.raises(ValueError, match=r"eps in \(0, 1\]"):
            ModelForm(FormKind.REGULARIZED, eps=1.5)
        with pytest.raises(ValueError, match=r"eta in \[0, 1\]"):
            ModelForm(FormKind.REGULARIZED, eps=0.1, eta=-0.1)
        with pytest.raises(ValueError, match="big_k >= 1"):
            ModelForm(FormKind.REGULARIZED, eps=0.1, big_k=0)

    def test_truncation_radius_positive(self):
        with pytest.raises(ValueError, match="must be positive"):
            ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, r_trunc=0.0)

    def test_rho_interval(self):
        with pytest.raises(ValueError, match=r"rho must lie in \(0, 2\)"):
            ModelForm(FormKind.RHO_VARIANT, rho=2.0)
        with pytest.raises(ValueError, match=r"rho must lie in \(0, 2\)"):
            ModelForm(FormKind.RHO_VARIANT, rho=0.0)
        ModelForm(FormKind.RHO_VARIANT, rho=1.999)

    def test_rho_fixed_for_other_forms(self):
        with pytest.raises(ValueError, match="ito_mcf does not read rho; got rho = 0.5"):
            ModelForm(FormKind.ITO_MCF, rho=0.5)

    def test_lap_coef_table(self):
        assert ModelForm(FormKind.ITO_MCF).lap_coef == 0.5
        assert ModelForm(FormKind.ITO_ANISOTROPIC).lap_coef == 1.0
        assert ModelForm(FormKind.RHO_VARIANT, rho=0.6).lap_coef == 0.3
        assert ModelForm(FormKind.REGULARIZED, eps=0.1).lap_coef == pytest.approx(1.1)
        assert ModelForm(FormKind.STRATONOVICH_MCF).lap_coef == 0.0
        assert ModelForm(FormKind.STRATONOVICH_MCF).hv_coef == 1.0
        assert ModelForm(FormKind.ITO_MCF).hv_coef == 0.5
        assert ModelForm(FormKind.RHO_VARIANT, rho=0.5).hv_coef == 0.75
        assert ModelForm(FormKind.ITO_ANISOTROPIC).hv_coef == 0.0
        assert ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, r_trunc=30.0).hv_coef == 0.0

    # an in-range value of each parameter, away from its default
    IN_RANGE = {"eps": 0.3, "eta": 1e-4, "big_k": 2, "r_trunc": 30.0, "rho": 0.5}

    @pytest.mark.parametrize("param", IN_RANGE)
    @pytest.mark.parametrize("kind", FormKind, ids=lambda kind: kind.value)
    def test_a_form_refuses_the_parameters_it_does_not_read(self, kind, param):
        # ito_mcf with eps = 0.3 and regularized with r_trunc = 30 used to
        # construct and step as if the value were unset
        base = {"eps": 0.1} if "eps" in FORM_READS[kind] else {}
        value = self.IN_RANGE[param]
        if param in FORM_READS[kind]:
            assert getattr(ModelForm(kind, **{**base, param: value}), param) == value
        else:
            with pytest.raises(ValueError, match=f"^{kind.value} does not read {param}; "):
                ModelForm(kind, **{**base, param: value})
            # the default, also passed explicitly, is no setting
            default = ModelForm.__dataclass_fields__[param].default
            assert getattr(ModelForm(kind, **{**base, param: default}), param) == default
        assert ModelForm(kind, **base).kind is kind


class TestDrift:
    def test_flat_graph_zero_for_every_form(self):
        grid = GridSpec(16)
        u = ScalarField.constant(grid, 0.7)
        forms = [
            ModelForm(FormKind.STRATONOVICH_MCF),
            ModelForm(FormKind.ITO_MCF),
            ModelForm(FormKind.ITO_ANISOTROPIC),
            ModelForm(FormKind.REGULARIZED, eps=0.1, eta=1e-4, big_k=3),
            ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, r_trunc=10.0),
            ModelForm(FormKind.RHO_VARIANT, rho=0.5),
        ]
        for form in forms:
            assert np.max(np.abs(drift(u, form).values)) <= 1e-13

    def test_rho_one_matches_ito_mcf_bitwise(self):
        u = smooth_u0(GridSpec(32))
        a = drift(u, ModelForm(FormKind.ITO_MCF))
        b = drift(u, ModelForm(FormKind.RHO_VARIANT, rho=1.0))
        np.testing.assert_array_equal(a.values, b.values)

    def test_regularized_degenerates_to_anisotropic(self):
        # the validator excludes eps = 0 exactly, so use a denormal that
        # underflows in 1 + eps; the assembled field must then match bitwise
        u = smooth_u0(GridSpec(32))
        a = drift(u, ModelForm(FormKind.ITO_ANISOTROPIC))
        b = drift(u, ModelForm(FormKind.REGULARIZED, eps=1e-300, eta=0.0))
        np.testing.assert_array_equal(a.values, b.values)

    def test_stratonovich_drift_is_mcf_velocity(self):
        from smcflow.geometry import mcf_operator

        u = smooth_u0(GridSpec(32))
        b = geometry_bundle(u)
        np.testing.assert_array_equal(
            drift(u, ModelForm(FormKind.STRATONOVICH_MCF)).values,
            mcf_operator(b),
        )

    def test_ito_and_anisotropic_drifts_agree(self):
        # identical operators, assembled two ways; the gap is pure aliasing
        # and collapses spectrally under refinement
        gaps = []
        for n in (64, 128):
            u = smooth_u0(GridSpec(n))
            a = drift(u, ModelForm(FormKind.ITO_MCF))
            b = drift(u, ModelForm(FormKind.ITO_ANISOTROPIC))
            gaps.append(np.max(np.abs(a.values - b.values)))
        assert gaps[0] <= 1e-5
        assert gaps[1] <= 1e-10

    @pytest.mark.parametrize("form, steep", [
        (ModelForm(FormKind.ITO_MCF), False),
        (ModelForm(FormKind.ITO_ANISOTROPIC), False),
        (ModelForm(FormKind.REGULARIZED, eps=0.1, eta=1e-4, big_k=3), False),
        (ModelForm(FormKind.RHO_VARIANT, rho=0.25), False),
        (ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, r_trunc=30.0), True),
    ])
    def test_drift_and_diffusion_match_the_stepper_bitwise(self, form, steep, monkeypatch):
        # drift() = A u + N and the kernel's one-field g equal the fields the
        # em_imex step itself used; the steep field (sup |D^2 u| = 2 pi^2 >
        # R/2) makes the cutoff act
        grid = GridSpec(16)
        x1, _ = grid.nodes()
        u = ScalarField(grid, 0.5 * np.sin(TWO_PI * x1)) if steep else smooth_u0(grid)
        noise = NoisePath.generate(11, 1e-4, 1)
        stepper = EmImexStepper(grid, form, noise.dt)
        used = []

        def spy(*args):
            terms = explicit_terms(*args)
            used.append(terms)
            return terms

        with monkeypatch.context() as m:
            m.setattr(dynamics, "explicit_terms", spy)
            _, audit = stepper.step(one_row(u, noise))
        (n_explicit, g, _), = used
        if steep:
            assert audit.hess_linf[0] > 0.5 * form.r_trunc
        ws = get_workspace(grid.n)
        uh = ws.forward(u.values[None])
        lin = ws.inverse(ws.linear_sym(form.lap_coef, form.eta, form.big_k) * uh)
        expected = lin[0] + n_explicit[0]
        assert drift(u, form).values.tobytes() == expected.tobytes()
        assert diffusion(u, form).tobytes() == g[0].tobytes()


class TestDiffusion:
    def test_flat_is_sqrt_rho(self):
        grid = GridSpec(16)
        u = ScalarField.constant(grid, 3.0)
        assert np.all(diffusion(u, ModelForm(FormKind.ITO_MCF)) == 1.0)
        g = diffusion(u, ModelForm(FormKind.RHO_VARIANT, rho=0.25))
        assert np.all(g == 0.5)

    def test_pointwise_slope_oracle(self):
        # gradient (3, 4) at the origin node gives H = sqrt(26) there
        grid = GridSpec(64)
        x1, x2 = grid.nodes()
        u = ScalarField(
            grid,
            (3.0 / TWO_PI) * np.sin(TWO_PI * x1) + (4.0 / TWO_PI) * np.sin(TWO_PI * x2),
        )
        g = diffusion(u, ModelForm(FormKind.ITO_MCF))
        assert g[0, 0] == pytest.approx(math.sqrt(26.0), rel=1e-12)

    def test_lower_bound(self):
        u = smooth_u0(GridSpec(32))
        rho = 0.49
        g = diffusion(u, ModelForm(FormKind.RHO_VARIANT, rho=rho))
        assert np.all(g >= math.sqrt(rho))


class TestTruncation:
    def test_identity_below_half_radius(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-0.5, 0.5, (16, 16)) * 4.0  # within [-2, 2], R = 4
        out = truncate_hessian_arrays(a, a, a, 8.0)
        for comp in out:
            np.testing.assert_array_equal(comp, a)

    def test_zero_beyond_radius(self):
        a = np.full((8, 8), 16.0)
        t11, _, _ = truncate_hessian_arrays(a, a, a, 8.0)
        assert np.all(t11 == 0.0)

    def test_golden_bridge_midpoint(self):
        # entry 3R/4: smoothstep at 1/2 is exactly 0.5, so output is 0.375 R
        r = 8.0
        a = np.array([[6.0]])
        t11, _, _ = truncate_hessian_arrays(a, a, a, r)
        assert t11[0, 0] == 0.375 * r

    def test_sign_preserved(self):
        r = 8.0
        a = np.array([[-6.0]])
        t11, _, _ = truncate_hessian_arrays(a, a, a, r)
        assert t11[0, 0] == -0.375 * r

    def test_bridge_monotone(self):
        r = 2.0
        xs = np.linspace(1.0, 2.0, 101)
        out, _, _ = truncate_hessian_arrays(xs, xs, xs, r)
        theta = out / xs
        assert np.all(np.diff(theta) <= 0.0)
        assert theta[0] == 1.0
        assert theta[-1] == 0.0

    def test_radius_validation(self):
        with pytest.raises(ValueError, match="positive"):
            truncate_hessian_arrays(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)), 0.0)

    @staticmethod
    def full_clip(a, r):
        """The cutoff written out entrywise, as a reference."""
        aa = np.abs(a)
        x = np.clip(2.0 * aa / r - 1.0, 0.0, 1.0)
        s = ((6.0 * x - 15.0) * x + 10.0) * x * x * x
        return np.where(aa <= 0.5 * r, a, np.where(aa >= r, 0.0, (1.0 - s) * a))

    @pytest.mark.parametrize("shape", [(8, 8), (3, 8, 8)])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_entry_above_half_radius_or_nan_takes_full_clip(self, shape, which):
        r = 8.0
        rng = np.random.default_rng(2)
        for bad in (np.nextafter(4.0, 5.0), -6.0, np.nan):
            comps = [rng.uniform(-4.0, 4.0, shape) for _ in range(3)]
            comps[which].flat[7] = bad
            out = truncate_hessian_arrays(*comps, r)
            assert out[which] is not comps[which]
            for a, b in zip(comps, out):
                np.testing.assert_array_equal(b, self.full_clip(a, r))
            if np.isnan(bad):
                assert np.isnan(out[which].flat[7])

    def test_one_active_row_clips_the_batch_rowwise(self):
        r = 8.0
        rng = np.random.default_rng(3)
        comps = [rng.uniform(-6.0, 6.0, (4, 8, 8)) for _ in range(3)]
        for a in comps:
            a[[0, 2, 3]] *= 4.0 / 6.0          # rows 0, 2, 3 stay within R/2
        comps[0][1, 3, 3] = 7.5                # row 1 is active
        out = truncate_hessian_arrays(*comps, r)
        for a, b in zip(comps, out):
            for p in range(4):
                np.testing.assert_array_equal(b[p], self.full_clip(a[p], r))
                single = truncate_hessian_arrays(a[p], a[p], a[p], r)[0]
                assert b[p].tobytes() == single.tobytes()
            for p in (0, 2, 3):
                assert b[p].tobytes() == a[p].tobytes()


class TestStepperConstruction:
    def test_imex_rejects_stratonovich(self):
        with pytest.raises(ValueError, match="use heun_strat"):
            EmImexStepper(GridSpec(16), ModelForm(FormKind.STRATONOVICH_MCF), 1e-3)

    def test_heun_rejects_ito(self):
        with pytest.raises(ValueError, match="stratonovich_mcf form only"):
            HeunStratStepper(GridSpec(16), ModelForm(FormKind.ITO_MCF), 1e-3)

    def test_dt_validation(self):
        with pytest.raises(ValueError, match="dt > 0"):
            EmImexStepper(GridSpec(16), ModelForm(FormKind.ITO_MCF), 0.0)

    def test_overflowing_polyharmonic_symbol_refused(self):
        # lambda^(2K) overflows at n = 16 from K = 42 on; K = 200 used to warn
        # and then zero every non-mean mode in the first step
        grid = GridSpec(16)
        for big_k in (42, 200):
            form = ModelForm(FormKind.REGULARIZED, eps=0.1, eta=1e-4, big_k=big_k)
            with pytest.raises(ValueError, match=f"n = 16: K = {big_k} .* eta = 0.0001"):
                EmImexStepper(grid, form, 1e-3)
        form = ModelForm(FormKind.REGULARIZED, eps=0.1, eta=1e-4, big_k=41)
        assert np.isfinite(EmImexStepper(grid, form, 1e-3).denom).all()
        # at eta = 0 the power is never formed
        EmImexStepper(grid, ModelForm(FormKind.REGULARIZED, eps=0.1, big_k=200), 1e-3)

    def test_default_dt(self):
        # 0.05 h^2 keeps Heun under half its linear bound; em_imex takes 0.25 h^2
        for kind in FormKind:
            regularized = kind in (FormKind.REGULARIZED, FormKind.REGULARIZED_TRUNCATED)
            form = ModelForm(kind, eps=0.1) if regularized else ModelForm(kind)
            c = 0.05 if kind is FormKind.STRATONOVICH_MCF else 0.25
            assert default_dt(form, 16) == c / 256
            assert default_dt(form, 64) == c / 4096
        # half the linear bound caps the proxy only for rho_variant with rho < 1,
        # and close to rho = 1 not yet at n = 16
        rho = ModelForm(FormKind.RHO_VARIANT, rho=0.2)
        for n in (16, 64):
            assert default_dt(rho, n) == 0.5 * linear_dt_bound(rho, n) < 0.25 / n**2
        assert default_dt(ModelForm(FormKind.RHO_VARIANT, rho=0.9), 16) == 0.25 / 256


class TestLinearDtBound:
    """linear_dt_bound separates damped from growing modes of a flat graph."""

    RHO = ModelForm(FormKind.RHO_VARIANT, rho=0.2)
    HEUN = ModelForm(FormKind.STRATONOVICH_MCF)

    def test_bound_per_form(self):
        # the binding mode is k = (n/2 - 1, n/2 - 1): 4 pi^2 |k|^2 = 8 pi^2 (n/2 - 1)^2
        top = 8.0 * math.pi**2 * 7**2
        assert linear_dt_bound(self.HEUN, 16) == pytest.approx(2.0 / top, rel=1e-12)
        assert linear_dt_bound(self.HEUN, 16) == pytest.approx(5.17e-4, rel=1e-3)
        assert linear_dt_bound(self.RHO, 16) == pytest.approx(2.0 / (0.8 * top), rel=1e-12)
        unbounded = [
            ModelForm(FormKind.ITO_MCF),
            ModelForm(FormKind.ITO_ANISOTROPIC),
            ModelForm(FormKind.REGULARIZED, eps=0.1, eta=1e-3),
            ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, r_trunc=30.0),
            ModelForm(FormKind.RHO_VARIANT, rho=1.0),
            ModelForm(FormKind.RHO_VARIANT, rho=1.5),
        ]
        for form in unbounded:
            for n in (8, 16, 64, 256):
                assert linear_dt_bound(form, n) == math.inf, (form, n)

    @pytest.mark.parametrize("form", [HEUN, RHO], ids=["heun", "rho_variant"])
    def test_mode_decays_below_and_grows_above(self, form):
        grid = GridSpec(16)
        x1, x2 = grid.nodes()
        u0 = ScalarField(grid, 1e-8 * np.cos(TWO_PI * 7 * (x1 + x2)))
        bound = linear_dt_bound(form, 16)
        cls = HeunStratStepper if form is self.HEUN else EmImexStepper
        growth = {}
        for factor in (0.98, 1.02):
            dt = factor * bound
            batch = one_row(u0, NoisePath(0, dt, 0, np.zeros(100)))
            stepper = cls(grid, form, dt)
            for _ in range(100):
                batch, _ = stepper.step(batch)
            growth[factor] = np.max(np.abs(batch.u)) / 1e-8
        assert growth[0.98] < 1.0
        assert growth[1.02] > 10.0


class TestFlatExactness:
    """On a constant field every stepper must reproduce c + sqrt(rho) W(t)."""

    def run_flat(self, stepper_cls, form, c, scale, n_steps=1000):
        grid = GridSpec(16)
        noise = NoisePath.generate(4242, 1e-3, n_steps)
        batch = one_row(ScalarField.constant(grid, c), noise)
        stepper = stepper_cls(grid, form, noise.dt)
        worst = 0.0
        for m in range(n_steps):
            batch, _ = stepper.step(batch)
            gap = np.max(np.abs(batch.u - c - scale * noise.w[m + 1]))
            worst = max(worst, float(gap))
        return worst

    def test_em_imex_flat(self):
        worst = self.run_flat(EmImexStepper, ModelForm(FormKind.ITO_MCF), 0.7, 1.0)
        assert worst <= 1e-12

    def test_heun_flat(self):
        worst = self.run_flat(
            HeunStratStepper, ModelForm(FormKind.STRATONOVICH_MCF), 0.7, 1.0
        )
        assert worst <= 1e-12

    def test_rho_scaling_flat(self):
        form = ModelForm(FormKind.RHO_VARIANT, rho=0.25)
        worst = self.run_flat(EmImexStepper, form, -1.2, 0.5, n_steps=500)
        assert worst <= 1e-12


class TestStepMechanics:
    def test_mass_residual_tiny(self):
        grid = GridSpec(32)
        noise = NoisePath.generate(17, 1e-4, 8)
        for form, cls in (
            (ModelForm(FormKind.ITO_MCF), EmImexStepper),
            (ModelForm(FormKind.REGULARIZED, eps=0.1, eta=1e-4), EmImexStepper),
            (ModelForm(FormKind.STRATONOVICH_MCF), HeunStratStepper),
        ):
            batch = one_row(smooth_u0(grid), noise)
            stepper = cls(grid, form, noise.dt)
            for _ in range(8):
                batch, audit = stepper.step(batch)
                assert abs(audit.mass_residual[0]) <= 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_field_reported(self):
        grid = GridSpec(16)
        bad = np.full((16, 16), 1e160)
        bad[3, 5] = -1e160
        noise = NoisePath.generate(0, 1e-3, 2)
        batch = one_row(ScalarField(grid, bad), noise)
        stepper = EmImexStepper(grid, ModelForm(FormKind.ITO_MCF), 1e-3)
        with pytest.raises(NonFiniteFieldError) as err:
            stepper.step(batch)
        assert err.value.step == 1
        assert isinstance(err.value.index, tuple)

    def test_truncation_transparent_when_inactive(self):
        # R = 1e6 never binds on a gentle field: trajectories are bit-identical
        grid = GridSpec(16)
        noise = NoisePath.generate(9, 1e-4, 20)
        reg = ModelForm(FormKind.REGULARIZED, eps=0.1, eta=0.0)
        trunc = ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, eta=0.0, r_trunc=1e6)
        sa = one_row(smooth_u0(grid), noise)
        sb = one_row(smooth_u0(grid), noise)
        st_a = EmImexStepper(grid, reg, noise.dt)
        st_b = EmImexStepper(grid, trunc, noise.dt)
        for _ in range(20):
            sa, _ = st_a.step(sa)
            sb, _ = st_b.step(sb)
            np.testing.assert_array_equal(sa.u, sb.u)

    def test_truncation_bites_when_active(self):
        grid = GridSpec(16)
        x1, _ = grid.nodes()
        u0 = ScalarField(grid, 0.5 * np.sin(TWO_PI * x1))  # hessian sup = 2 pi^2
        noise = NoisePath.generate(9, 1e-4, 5)
        reg = ModelForm(FormKind.REGULARIZED, eps=0.1, eta=0.0)
        trunc = ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, eta=0.0, r_trunc=30.0)
        sa, _ = EmImexStepper(grid, reg, noise.dt).step(one_row(u0, noise))
        sb, _ = EmImexStepper(grid, trunc, noise.dt).step(one_row(u0, noise))
        assert not np.array_equal(sa.u, sb.u)

    @pytest.mark.parametrize("form", [
        ModelForm(FormKind.REGULARIZED, eps=0.1),
        ModelForm(FormKind.STRATONOVICH_MCF),
    ], ids=lambda form: form.kind.value)
    def test_a_path_state_steps_as_the_batch_of_one(self, form):
        # the benchmark's size sweep steps a PathState; the stepper takes it
        # as the batch of one and returns that batch, stepped
        from smcflow.dynamics import PathState

        grid = GridSpec(16)
        noise = NoisePath.generate(21, 1e-6, 4)
        u = smooth_u0(grid)
        stepper = (HeunStratStepper if form.kind is FormKind.STRATONOVICH_MCF
                   else EmImexStepper)(grid, form, noise.dt)
        got, audit = stepper.step(PathState(u=u, step=2, noise=noise))
        want, want_audit = stepper.step(PathBatch(u.values[None], 2, noise.increments[None]))
        assert isinstance(got, PathBatch)
        assert got.step == want.step == 3
        assert got.u.shape == (1, 16, 16)
        assert got.u.tobytes() == want.u.tobytes()
        assert got.increments.tobytes() == want.increments.tobytes()
        for f in dataclasses.fields(StepAudit):
            a, b = getattr(audit, f.name), getattr(want_audit, f.name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), f.name
        assert (audit.hess_linf is None) == (form.kind is FormKind.STRATONOVICH_MCF)


class TestSpatialConvergence:
    """One noise path drives a smooth field at n = 16, 32 and 64.

    The noise is one scalar Wiener process for all of space and a modes:
    field samples the same function at every n, so the three runs differ
    only in resolution. Each coarse terminal is zero-padded in Fourier space
    (Nyquist dropped) to n = 64, and its RMS gap to the n = 64 terminal must
    shrink by FACTOR from n = 16 to n = 32. Measured ratios (numpy 2.4.6):
    ito_mcf 135, ito_anisotropic 425, regularized 351, regularized_truncated
    13 (its clip acts at every n) and rho_variant 36.
    """

    FACTOR = 10.0

    @staticmethod
    def upsample(u, n):
        """The trigonometric interpolant of the (m, m) field u on the n x n grid."""
        m = u.shape[0]
        k = np.fft.fftfreq(m, 1.0 / m).astype(int)
        keep = np.flatnonzero(np.abs(k) < m // 2)  # Nyquist dropped
        hat = np.zeros((n, n), dtype=complex)
        hat[np.ix_(k[keep] % n, k[keep] % n)] = np.fft.fft2(u)[np.ix_(keep, keep)]
        return np.fft.ifft2(hat).real * (n / m) ** 2

    # stratonovich_mcf is left out: today's Heun run does not converge in n
    # (x1.06, a grid-scale checkerboard). ROADMAP item 2 adds it here.
    @pytest.mark.parametrize("form", [
        ModelForm(FormKind.ITO_MCF),
        ModelForm(FormKind.ITO_ANISOTROPIC),
        ModelForm(FormKind.REGULARIZED, eps=0.1),
        ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, r_trunc=30.0),
        ModelForm(FormKind.RHO_VARIANT, rho=0.5),
    ], ids=lambda form: form.kind.value)
    def test_n32_gap_is_far_below_the_n16_gap(self, form):
        horizon = 0.05
        dt = resolve_dt(default_dt(form, 64), horizon)  # the n = 64 derived dt
        steps = round(horizon / dt)
        noise = NoisePath.generate(5, dt, steps)
        terminal = {}
        for n in (16, 32, 64):
            u0 = build_initial("modes:[(1,0,0.5,0.0),(0,1,0.3,0.25)]", GridSpec(n))
            res = run_path(ModelConfig(form, n, dt, steps, record_stride=steps), u0, noise)
            assert res.steps_done == steps
            assert res.tau_r_triggered == (form.kind is FormKind.REGULARIZED_TRUNCATED)
            terminal[n] = res.terminal.values
        gap16, gap32 = (
            np.sqrt(np.mean((self.upsample(terminal[n], 64) - terminal[64]) ** 2))
            for n in (16, 32)
        )
        assert gap32 * self.FACTOR <= gap16


class TestSelfConvergence:
    def test_strong_order_at_least_half(self):
        # RMS error against a bridge-refined dt/8 reference over 12 paths
        grid = GridSpec(16)
        u0 = smooth_u0(grid)
        form = ModelForm(FormKind.ITO_MCF)

        def run(noise):
            batch = one_row(u0, noise)
            stepper = EmImexStepper(grid, form, noise.dt)
            for _ in range(noise.n_steps):
                batch, _ = stepper.step(batch)
            return batch.u[0]

        sq = np.zeros(3)
        for i in range(12):
            levels = [NoisePath.generate(path_seed(123, i), 1e-3, 20)]
            for _ in range(3):
                levels.append(levels[-1].refine())
            ref = run(levels[-1])
            for j in range(3):
                sq[j] += l2_norm_sq(ScalarField(grid, run(levels[j]) - ref))
        rms = np.sqrt(sq / 12)
        assert rms[0] > rms[1] > rms[2]
        span_order = 0.5 * math.log2(rms[0] / rms[2])
        assert span_order >= 0.5


class TestDecayRate:
    def test_linearized_mode_decay(self):
        # zero noise path, small amplitude: d/dt u ~ Lap u, first mode halves the
        # gradient energy at rate 2 * 4 pi^2; implicit Euler biases the fitted
        # rate to log(1 + 4 pi^2 dt)/dt, within 1 percent at dt = 1e-4
        grid = GridSpec(16)
        x1, _ = grid.nodes()
        u0 = ScalarField(grid, 1e-3 * np.sin(TWO_PI * x1))
        noise = NoisePath(0, 1e-4, 0, np.zeros(300))
        batch = one_row(u0, noise)
        stepper = EmImexStepper(grid, ModelForm(FormKind.ITO_ANISOTROPIC), 1e-4)
        energies = [grad_energy(u0)]
        for _ in range(300):
            batch, _ = stepper.step(batch)
            energies.append(grad_energy(ScalarField(grid, batch.u[0])))
        t = np.arange(301) * 1e-4
        rate = -0.5 * np.polyfit(t, np.log(energies), 1)[0]
        assert rate == pytest.approx(4.0 * math.pi**2, rel=0.01)

    def test_heun_noise_off_decay(self):
        grid = GridSpec(16)
        x1, _ = grid.nodes()
        u0 = ScalarField(grid, 1e-3 * np.sin(TWO_PI * x1))
        noise = NoisePath(0, 1e-4, 0, np.zeros(300))
        batch = one_row(u0, noise)
        stepper = HeunStratStepper(grid, ModelForm(FormKind.STRATONOVICH_MCF), 1e-4)
        energies = [grad_energy(u0)]
        for _ in range(300):
            batch, _ = stepper.step(batch)
            energies.append(grad_energy(ScalarField(grid, batch.u[0])))
        t = np.arange(301) * 1e-4
        rate = -0.5 * np.polyfit(t, np.log(energies), 1)[0]
        assert rate == pytest.approx(4.0 * math.pi**2, rel=0.01)


class TestPicard:
    def test_flat_fixed_point_after_one_pass(self):
        grid = GridSpec(16)
        noise = NoisePath.generate(3, 1e-3, 10)
        form = ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, eta=0.0, r_trunc=1e6)
        rep = mild_picard_iterate(ScalarField.constant(grid, 0.4), noise, form, 0.01, 4)
        assert isinstance(rep, PicardReport)
        assert rep.diffs[0] > 0.0          # first pass adds the noise integral
        assert rep.diffs[1] == 0.0         # second pass reproduces it exactly
        assert not rep.diverged
        # limit is u0 + W(t): spatially flat at every time
        final = rep.trajectory[-1].values
        assert np.max(np.abs(final - 0.4 - noise.w[10])) <= 1e-12

    def test_smooth_contraction_ratios(self):
        grid = GridSpec(16)
        noise = NoisePath.generate(2024, 1e-4, 50)
        form = ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, eta=0.0, big_k=3, r_trunc=1e6)
        rep = mild_picard_iterate(smooth_u0(grid), noise, form, 5e-3, 6)
        assert all(r < 1.0 for r in rep.ratios)
        assert not rep.diverged

    # float.hex of diffs and ratios and the sha256 of the trajectory bytes,
    # keyed by (n, r_trunc, horizon) and recorded from the level-by-level
    # evaluation of the mild map; horizon 0.01 is m = 100 levels, the
    # benchmark's count. r_trunc = 1e6 never clips; at 30 the clip acts on
    # some levels of every iteration after the first, so time blocks mixing
    # clipped and unclipped levels occur at both grid sizes.
    GOLDEN = {
        (32, 1e6, 5e-3): (
            ["0x1.b323169c8b219p-3", "0x1.1ab5f3a8170e0p-7", "0x1.f07a2c01c6b6cp-10",
             "0x1.6f4989e4b089ep-11", "0x1.d92cebf92bde9p-13", "0x1.82caef50ec6e9p-14"],
            ["0x1.4ca62406ce021p-5", "0x1.c191d46eb8d36p-3", "0x1.7ac552e8f10cap-2",
             "0x1.49cde7507f2b4p-2", "0x1.a28789c4ac21cp-2"],
            "7dc3c693069393faf99eec8a484b2adc25e86e79f70b4e5df1dc2de5eedc769f",
        ),
        (32, 30.0, 5e-3): (
            ["0x1.b323169c8b219p-3", "0x1.1ab8786272351p-7", "0x1.efdb19d4ae3d5p-10",
             "0x1.6edeb890cf144p-11", "0x1.d877bf26a4b54p-13", "0x1.803f4e11d6355p-14"],
            ["0x1.4ca91aa3c7708p-5", "0x1.c0fdc9c98d01fp-3", "0x1.7ad089d4e208ap-2",
             "0x1.49af81956d859p-2", "0x1.a065e0781ddf5p-2"],
            "036d4ba58fbae3e0ed42fd5493996925b75e4dffa11d73e23a09d94c598e6a2c",
        ),
        (32, 30.0, 0.01): (
            ["0x1.b323169c8b219p-3", "0x1.1ab8786272351p-7", "0x1.242e4427deb6ap-9",
             "0x1.b95279e59ca2dp-11", "0x1.5cbee3eaaf1c3p-12", "0x1.49d76a4d5324ep-13"],
            ["0x1.4ca91aa3c7708p-5", "0x1.0890e806c016ep-2", "0x1.82ac5b2967bd6p-2",
             "0x1.9498ebcc2496cp-2", "0x1.e43f139d9909ap-2"],
            "36d5e967c57548a8171a93f330410203fe1a1cfd54070217b32377f14e7e351c",
        ),
        (16, 30.0, 5e-3): (
            ["0x1.b322fe4883d51p-3", "0x1.1ab8a8d6a356dp-7", "0x1.ef7ca220169c3p-10",
             "0x1.7078136bab80dp-11", "0x1.db76aacd86e4ep-13", "0x1.84bb52c3fa8eep-14"],
            ["0x1.4ca966406059dp-5", "0x1.c0a7f2d91bb8fp-3", "0x1.7cbfc25e2ffccp-2",
             "0x1.4a5611ab138e9p-2", "0x1.a29a7721176fdp-2"],
            "c9ab748439f423de4f21fec701c1a1d9863e3211dd1947738f39c3a54df5e881",
        ),
    }

    @staticmethod
    def run_picard(n, r_trunc, horizon):
        # the first 50 increments of this path are those of its 50-step prefix
        noise = NoisePath.generate(2024, 1e-4, 100)
        form = ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, big_k=3, r_trunc=r_trunc)
        return mild_picard_iterate(smooth_u0(GridSpec(n)), noise, form, horizon, 6)

    @staticmethod
    def picard_bits(rep):
        traj = b"".join(f.values.tobytes() for f in rep.trajectory)
        return [d.hex() for d in rep.diffs], [x.hex() for x in rep.ratios], traj

    # an id names the horizon only where it is not 5e-3
    @pytest.mark.parametrize(
        "n, r_trunc, horizon", sorted(GOLDEN),
        ids=[f"{n}-{r}" if h == 5e-3 else f"{n}-{r}-{h}" for n, r, h in sorted(GOLDEN)],
    )
    def test_golden_values(self, n, r_trunc, horizon):
        rep = self.run_picard(n, r_trunc, horizon)
        diffs, ratios, traj = self.picard_bits(rep)
        sha = hashlib.sha256(traj).hexdigest()
        assert (diffs, ratios, sha) == self.GOLDEN[(n, r_trunc, horizon)]
        assert not rep.diverged

    def test_block_size_moves_no_bit(self, monkeypatch):
        # 1, 2 and 8 time levels per block at n = 32, with the clip active
        n = 32
        bits = []
        for cells in (n * n, 2 * n * n, 8 * n * n):
            monkeypatch.setattr(dynamics, "PICARD_BLOCK_CELLS", cells)
            bits.append(self.picard_bits(self.run_picard(n, 30.0, 0.01)))
        assert bits[0] == bits[1] == bits[2]

    def test_memory_stays_near_two_and_a_half_trajectories(self):
        # two complex trajectory buffers and the real semigroup factors are
        # 2.5 trajectories of (m + 1) n (n/2 + 1) complex values; the
        # level-blocked sources, the Duhamel scratch and the transforms stay
        # under one more
        n, m = 32, 100
        u0 = smooth_u0(GridSpec(n))
        noise = NoisePath.generate(2024, 1e-4, m)
        form = ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, big_k=3, r_trunc=30.0)
        get_workspace(n)
        tracemalloc.start()
        try:
            mild_picard_iterate(u0, noise, form, m * 1e-4, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * (m + 1) * n * (n // 2 + 1) * 16

    def test_argument_validation(self):
        grid = GridSpec(16)
        noise = NoisePath.generate(3, 1e-3, 10)
        good = ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, r_trunc=1e6)
        u0 = smooth_u0(grid)
        with pytest.raises(ValueError, match="regularized_truncated"):
            mild_picard_iterate(u0, noise, ModelForm(FormKind.ITO_MCF), 0.01)
        with pytest.raises(ValueError, match="two iterations"):
            mild_picard_iterate(u0, noise, good, 0.01, iterations=1)
        with pytest.raises(ValueError, match="multiple of the noise dt"):
            mild_picard_iterate(u0, noise, good, 0.0015)
        with pytest.raises(ValueError, match="too short"):
            mild_picard_iterate(u0, noise, good, 0.02)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
