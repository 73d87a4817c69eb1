"""Tests for model forms, drift/diffusion assembly, truncation, and steppers."""
import hashlib
import math

import numpy as np
import pytest

from smcflow.dynamics import (
    EmImexStepper,
    FormKind,
    HeunStratStepper,
    ModelForm,
    NonFiniteFieldError,
    PathState,
    PicardReport,
    default_dt,
    diffusion,
    drift,
    mild_picard_iterate,
    truncate_hessian_arrays,
)
from smcflow.geometry import geometry_bundle
from smcflow.grid import GridSpec, ScalarField, get_workspace, gradient, l2_norm_sq
from smcflow.noise import NoisePath, path_seed

TWO_PI = 2.0 * math.pi


def smooth_u0(grid):
    x1, x2 = grid.nodes()
    return ScalarField(grid, 0.3 * np.sin(TWO_PI * x1) + 0.2 * np.cos(TWO_PI * x2))


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
        with pytest.raises(ValueError, match="fixes rho = 1"):
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

    def test_eta_eff_only_for_regularized_family(self):
        assert ModelForm(FormKind.REGULARIZED, eps=0.1, eta=1e-4).eta_eff == 1e-4
        assert ModelForm(FormKind.ITO_ANISOTROPIC).eta_eff == 0.0


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
            mcf_operator(b).values,
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
    def test_drift_and_diffusion_match_the_stepper_bitwise(self, form, steep):
        # drift() = A u + N and diffusion() = g, with N and g the fields the
        # em_imex step itself used; the steep field (sup |D^2 u| = 2 pi^2 >
        # R/2) makes the cutoff act
        grid = GridSpec(16)
        x1, _ = grid.nodes()
        u = ScalarField(grid, 0.5 * np.sin(TWO_PI * x1)) if steep else smooth_u0(grid)
        noise = NoisePath.generate(11, 1e-4, 1)
        stepper = EmImexStepper(grid, form, noise.dt)
        _, audit = stepper.step(PathState(u=u, step=0, noise=noise), want_fields=True)
        if steep:
            assert audit.hess_linf > 0.5 * form.r_trunc
        ws = get_workspace(grid.n)
        uh = ws.forward(u.values[None])
        lin = ws.inverse(ws.linear_sym(form.lap_coef, form.eta_eff, form.big_k) * uh)
        # a one-path step returns the audit of row 0, with (n, n) fields
        expected = lin[0] + audit.n_explicit
        assert drift(u, form).values.tobytes() == expected.tobytes()
        assert diffusion(u, form).values.tobytes() == audit.g.tobytes()


class TestDiffusion:
    def test_flat_is_sqrt_rho(self):
        grid = GridSpec(16)
        u = ScalarField.constant(grid, 3.0)
        assert np.all(diffusion(u, ModelForm(FormKind.ITO_MCF)).values == 1.0)
        g = diffusion(u, ModelForm(FormKind.RHO_VARIANT, rho=0.25))
        assert np.all(g.values == 0.5)

    def test_pointwise_slope_oracle(self):
        # gradient (3, 4) at the origin node gives H = sqrt(26) there
        grid = GridSpec(64)
        x1, x2 = grid.nodes()
        u = ScalarField(
            grid,
            (3.0 / TWO_PI) * np.sin(TWO_PI * x1) + (4.0 / TWO_PI) * np.sin(TWO_PI * x2),
        )
        g = diffusion(u, ModelForm(FormKind.ITO_MCF))
        assert g.values[0, 0] == pytest.approx(math.sqrt(26.0), rel=1e-12)

    def test_lower_bound(self):
        u = smooth_u0(GridSpec(32))
        rho = 0.49
        g = diffusion(u, ModelForm(FormKind.RHO_VARIANT, rho=rho))
        assert np.all(g.values >= math.sqrt(rho))


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
        """The cutoff applied entrywise, with no short-circuit."""
        aa = np.abs(a)
        x = np.clip(2.0 * aa / r - 1.0, 0.0, 1.0)
        s = ((6.0 * x - 15.0) * x + 10.0) * x * x * x
        return np.where(aa <= 0.5 * r, a, np.where(aa >= r, 0.0, (1.0 - s) * a))

    @pytest.mark.parametrize("shape", [(8, 8), (3, 8, 8)])
    def test_entry_at_half_radius_passes_through(self, shape):
        r = 8.0
        rng = np.random.default_rng(1)
        comps = [rng.uniform(-4.0, 4.0, shape) for _ in range(3)]
        comps[1].flat[5] = -4.0
        comps[2].flat[-1] = 4.0
        out = truncate_hessian_arrays(*comps, r)
        for a, b in zip(comps, out):
            assert b is a

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

    def test_default_dt(self):
        assert default_dt(16) == 0.25 / 256
        assert default_dt(64) == 0.25 / 4096


class TestFlatExactness:
    """On a constant field every stepper must reproduce c + sqrt(rho) W(t)."""

    def run_flat(self, stepper_cls, form, c, scale, n_steps=1000):
        grid = GridSpec(16)
        noise = NoisePath.generate(4242, 1e-3, n_steps)
        state = PathState(u=ScalarField.constant(grid, c), step=0, noise=noise)
        stepper = stepper_cls(grid, form, noise.dt)
        worst = 0.0
        for m in range(n_steps):
            state, _ = stepper.step(state)
            gap = np.max(np.abs(state.u.values - c - scale * noise.w[m + 1]))
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
            state = PathState(u=smooth_u0(grid), step=0, noise=noise)
            stepper = cls(grid, form, noise.dt)
            for _ in range(8):
                state, audit = stepper.step(state)
                assert abs(audit.mass_residual) <= 1e-10

    def test_noise_off_is_deterministic(self):
        grid = GridSpec(16)
        a = PathState(u=smooth_u0(grid), step=0, noise=NoisePath.generate(1, 1e-3, 4))
        b = PathState(u=smooth_u0(grid), step=0, noise=NoisePath.generate(2, 1e-3, 4))
        form = ModelForm(FormKind.ITO_MCF)
        sa = EmImexStepper(grid, form, 1e-3, noise_off=True)
        ra, _ = sa.step(a)
        rb, _ = sa.step(b)
        np.testing.assert_array_equal(ra.u.values, rb.u.values)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_field_reported(self):
        grid = GridSpec(16)
        bad = np.full((16, 16), 1e160)
        bad[3, 5] = -1e160
        noise = NoisePath.generate(0, 1e-3, 2)
        state = PathState(u=ScalarField(grid, bad), step=0, noise=noise)
        stepper = EmImexStepper(grid, ModelForm(FormKind.ITO_MCF), 1e-3)
        with pytest.raises(NonFiniteFieldError) as err:
            stepper.step(state)
        assert err.value.step == 1
        assert isinstance(err.value.index, tuple)

    def test_truncation_transparent_when_inactive(self):
        # R = 1e6 never binds on a gentle field: trajectories are bit-identical
        grid = GridSpec(16)
        noise = NoisePath.generate(9, 1e-4, 20)
        reg = ModelForm(FormKind.REGULARIZED, eps=0.1, eta=0.0)
        trunc = ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, eta=0.0, r_trunc=1e6)
        sa = PathState(u=smooth_u0(grid), step=0, noise=noise)
        sb = PathState(u=smooth_u0(grid), step=0, noise=noise)
        st_a = EmImexStepper(grid, reg, noise.dt)
        st_b = EmImexStepper(grid, trunc, noise.dt)
        for _ in range(20):
            sa, _ = st_a.step(sa)
            sb, _ = st_b.step(sb)
            np.testing.assert_array_equal(sa.u.values, sb.u.values)

    def test_truncation_bites_when_active(self):
        grid = GridSpec(16)
        x1, _ = grid.nodes()
        u0 = ScalarField(grid, 0.5 * np.sin(TWO_PI * x1))  # hessian sup = 2 pi^2
        noise = NoisePath.generate(9, 1e-4, 5)
        reg = ModelForm(FormKind.REGULARIZED, eps=0.1, eta=0.0)
        trunc = ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, eta=0.0, r_trunc=30.0)
        sa = PathState(u=u0, step=0, noise=noise)
        sb = PathState(u=u0, step=0, noise=noise)
        sa, _ = EmImexStepper(grid, reg, noise.dt).step(sa)
        sb, _ = EmImexStepper(grid, trunc, noise.dt).step(sb)
        assert not np.array_equal(sa.u.values, sb.u.values)


class TestSelfConvergence:
    def test_strong_order_at_least_half(self):
        # RMS error against a bridge-refined dt/8 reference over 12 paths
        grid = GridSpec(16)
        u0 = smooth_u0(grid)
        form = ModelForm(FormKind.ITO_MCF)

        def run(noise):
            state = PathState(u=u0, step=0, noise=noise)
            stepper = EmImexStepper(grid, form, noise.dt)
            for _ in range(noise.n_steps):
                state, _ = stepper.step(state)
            return state.u.values

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
        # noise off, small amplitude: d/dt u ~ Lap u, first mode halves the
        # gradient energy at rate 2 * 4 pi^2; implicit Euler biases the fitted
        # rate to log(1 + 4 pi^2 dt)/dt, within 1 percent at dt = 1e-4
        grid = GridSpec(16)
        x1, _ = grid.nodes()
        u0 = ScalarField(grid, 1e-3 * np.sin(TWO_PI * x1))
        noise = NoisePath.generate(0, 1e-4, 300)
        state = PathState(u=u0, step=0, noise=noise)
        stepper = EmImexStepper(grid, ModelForm(FormKind.ITO_ANISOTROPIC), 1e-4, noise_off=True)
        energies = [l2_norm_sq(gradient(state.u))]
        for _ in range(300):
            state, _ = stepper.step(state)
            energies.append(l2_norm_sq(gradient(state.u)))
        t = np.arange(301) * 1e-4
        rate = -0.5 * np.polyfit(t, np.log(energies), 1)[0]
        assert rate == pytest.approx(4.0 * math.pi**2, rel=0.01)

    def test_heun_noise_off_decay(self):
        grid = GridSpec(16)
        x1, _ = grid.nodes()
        u0 = ScalarField(grid, 1e-3 * np.sin(TWO_PI * x1))
        noise = NoisePath.generate(0, 1e-4, 300)
        state = PathState(u=u0, step=0, noise=noise)
        stepper = HeunStratStepper(
            grid, ModelForm(FormKind.STRATONOVICH_MCF), 1e-4, noise_off=True
        )
        energies = [l2_norm_sq(gradient(state.u))]
        for _ in range(300):
            state, _ = stepper.step(state)
            energies.append(l2_norm_sq(gradient(state.u)))
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
    # recorded from the level-by-level evaluation of the mild map. r_trunc =
    # 1e6 never clips; at 30 the clip acts on some levels of every iteration
    # after the first, so time blocks mixing clipped and unclipped levels
    # occur at both grid sizes.
    GOLDEN = {
        (32, 1e6): (
            ["0x1.b323169c8b219p-3", "0x1.1ab5f3a8170e0p-7", "0x1.f07a2c01c6b6cp-10",
             "0x1.6f4989e4b089ep-11", "0x1.d92cebf92bde9p-13", "0x1.82caef50ec6e9p-14"],
            ["0x1.4ca62406ce021p-5", "0x1.c191d46eb8d36p-3", "0x1.7ac552e8f10cap-2",
             "0x1.49cde7507f2b4p-2", "0x1.a28789c4ac21cp-2"],
            "7dc3c693069393faf99eec8a484b2adc25e86e79f70b4e5df1dc2de5eedc769f",
        ),
        (32, 30.0): (
            ["0x1.b323169c8b219p-3", "0x1.1ab8786272351p-7", "0x1.efdb19d4ae3d5p-10",
             "0x1.6edeb890cf144p-11", "0x1.d877bf26a4b54p-13", "0x1.803f4e11d6355p-14"],
            ["0x1.4ca91aa3c7708p-5", "0x1.c0fdc9c98d01fp-3", "0x1.7ad089d4e208ap-2",
             "0x1.49af81956d859p-2", "0x1.a065e0781ddf5p-2"],
            "036d4ba58fbae3e0ed42fd5493996925b75e4dffa11d73e23a09d94c598e6a2c",
        ),
        (16, 30.0): (
            ["0x1.b322fe4883d51p-3", "0x1.1ab8a8d6a356dp-7", "0x1.ef7ca220169c3p-10",
             "0x1.7078136bab80dp-11", "0x1.db76aacd86e4ep-13", "0x1.84bb52c3fa8eep-14"],
            ["0x1.4ca966406059dp-5", "0x1.c0a7f2d91bb8fp-3", "0x1.7cbfc25e2ffccp-2",
             "0x1.4a5611ab138e9p-2", "0x1.a29a7721176fdp-2"],
            "c9ab748439f423de4f21fec701c1a1d9863e3211dd1947738f39c3a54df5e881",
        ),
    }

    @pytest.mark.parametrize("n, r_trunc", sorted(GOLDEN))
    def test_golden_values(self, n, r_trunc):
        grid = GridSpec(n)
        noise = NoisePath.generate(2024, 1e-4, 50)
        form = ModelForm(FormKind.REGULARIZED_TRUNCATED, eps=0.1, big_k=3, r_trunc=r_trunc)
        rep = mild_picard_iterate(smooth_u0(grid), noise, form, 5e-3, 6)
        diffs, ratios, sha = self.GOLDEN[(n, r_trunc)]
        assert [d.hex() for d in rep.diffs] == diffs
        assert [x.hex() for x in rep.ratios] == ratios
        traj = b"".join(f.values.tobytes() for f in rep.trajectory)
        assert hashlib.sha256(traj).hexdigest() == sha
        assert not rep.diverged

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
