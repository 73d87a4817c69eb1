"""Tests for config parsing, validation, serialization, and initial fields."""
import math

import numpy as np
import pytest

from smcflow.config import (
    ConfigError,
    build_initial,
    config_from_file,
    ignored_keys,
    n_steps_of,
    parse_config,
    parse_initial_spec,
    random_smooth_field,
    resolve_dt,
    serialize_config,
    to_model_config,
    to_model_form,
    RANDOM_SMOOTH_GRAD_BOUND,
)
from smcflow.dynamics import FormKind, ModelForm, default_dt, linear_dt_bound
from smcflow.grid import GridSpec, gradient

TWO_PI = 2.0 * math.pi
ITO = ModelForm(FormKind.ITO_MCF)


class TestParse:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.form == "ito_mcf"
        assert cfg.n == 64
        assert cfg.dt == resolve_dt(default_dt(ITO, 64), 0.1)
        assert cfg.T == 0.1
        assert cfg.initial_condition == "flat:0.0"
        assert cfg.output_dir == "out"

    def test_resolved_dt_divides_t_under_stability_proxy(self):
        for n, T in ((8, 0.1), (16, 0.02), (64, 0.1), (64, 1e-5)):
            dt = resolve_dt(default_dt(ITO, n), T)
            assert dt <= default_dt(ITO, n) or T < default_dt(ITO, n)
            m = round(T / dt)
            assert m >= 1
            assert abs(m * dt - T) <= 1e-12 * T

    def test_comments_and_blanks(self):
        cfg = parse_config(
            """
            # full-line comment
            n = 32          # trailing comment
            T = 0.05

            base_seed = 7
            """
        )
        assert cfg.n == 32 and cfg.T == 0.05 and cfg.base_seed == 7
        assert cfg.dt == resolve_dt(default_dt(ITO, 32), 0.05)

    def test_line_errors(self):
        with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
            parse_config("n 32")
        with pytest.raises(ConfigError, match="line 2: unknown config key 'gamma'"):
            parse_config("n = 32\ngamma = 1")
        with pytest.raises(ConfigError, match="line 3: duplicate config key 'n'"):
            parse_config("n = 32\nT = 0.1\nn = 64")

    def test_typed_value_errors(self):
        with pytest.raises(ConfigError, match="n must be an integer"):
            parse_config("n = 32.5")
        with pytest.raises(ConfigError, match="dt must be a number"):
            parse_config("dt = fast")

    def test_heun_derived_dt_stays_under_its_bound(self):
        # heun_strat is stable only for dt < h^2 / pi^2; em_imex keeps 0.25 h^2
        strat = ModelForm(FormKind.STRATONOVICH_MCF)
        for n, T in ((16, 0.2), (32, 0.1), (64, 0.01)):
            cfg = parse_config(f"form = stratonovich_mcf\nn = {n}\nT = {T}")
            assert cfg.dt == resolve_dt(default_dt(strat, n), T)
            assert cfg.dt <= 0.05 / n**2 < 1.0 / (math.pi * n) ** 2
            assert parse_config(f"n = {n}\nT = {T}").dt == resolve_dt(default_dt(ITO, n), T)

    def test_rho_variant_derived_dt_stays_under_half_its_bound(self):
        # 0.25 h^2 exceeded this bound: rho = 0.2, n = 16, T = 0.2 ended at
        # grad_energy 2.58 with exit 0
        for rho, n in ((0.2, 16), (0.5, 64)):
            form = ModelForm(FormKind.RHO_VARIANT, rho=rho)
            cfg = parse_config(f"form = rho_variant\nrho = {rho}\nn = {n}\nT = 0.2")
            assert cfg.dt == resolve_dt(default_dt(form, n), 0.2)
            assert cfg.dt <= 0.5 * linear_dt_bound(form, n) < 0.25 / n**2
        assert parse_config("form = rho_variant\nrho = 0.2\nn = 16\nT = 0.2").dt == 0.2 / 620

    @pytest.mark.parametrize(
        "text, bound",
        [
            ("form = stratonovich_mcf\nn = 16", 5.16945e-4),
            ("form = rho_variant\nrho = 0.2\nn = 16", 6.46181e-4),
        ],
        ids=["heun", "rho_variant"],
    )
    def test_explicit_dt_above_the_linear_bound_rejected(self, text, bound):
        assert linear_dt_bound(to_model_form(parse_config(text)), 16) == pytest.approx(bound, rel=1e-5)
        # dt = 5e-4 sits just below the Heun bound, so it passes
        parse_config(text + "\ndt = 0.0005\nT = 0.2")
        with pytest.raises(ConfigError) as err:
            parse_config(text + "\ndt = 0.0008\nT = 0.2")
        message = str(err.value)
        assert f"{bound:.6g}, the linear stability bound" in message
        assert "necessary, not sufficient" in message
        derived = parse_config(text + "\nT = 0.2").dt
        assert f"leave dt unset to derive dt = {derived!r}" in message

    def test_unbounded_forms_keep_any_dt(self):
        for form in ("ito_mcf", "ito_anisotropic", "regularized", "rho_variant\nrho = 1.5"):
            assert parse_config(f"form = {form}\nn = 16\ndt = 0.01\nT = 0.1").dt == 0.01

    def test_explicit_dt_kept(self):
        cfg = parse_config("dt = 0.001\nT = 0.1")
        assert cfg.dt == 1e-3
        assert n_steps_of(cfg) == 100


class TestValidation:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("form = smcf", "form must be one of"),
            ("n = 6", "even integer >= 8"),
            ("n = 33", "even integer >= 8"),
            # the form picks the scheme, so a scheme key is refused like theta
            ("form = stratonovich_mcf\nscheme = em_imex", "line 2: unknown config key 'scheme'"),
            ("scheme = heun_strat", "line 1: unknown config key 'scheme'"),
            ("dt = -0.001", "dt must be positive"),
            ("dt = nan", "dt must be positive and finite"),
            ("T = 0.0", "T must be positive"),
            ("T = nan", "T must be positive and finite"),
            ("T = inf", "T must be positive and finite"),
            ("dt = 0.0003\nT = 0.1", "not an integer multiple"),
            # the model keys are range-checked by the form that reads them
            ("form = regularized\neps = 1.5", r"regularized needs eps in \(0, 1\]"),
            ("form = regularized\neta = -0.2", r"regularized needs eta in \[0, 1\]"),
            ("form = regularized\nbigK = 0", r"regularized needs integer big_k >= 1"),
            ("form = regularized_truncated\nR = 0.0", "truncation radius must be positive"),
            ("form = rho_variant\nrho = 2.0", r"rho must lie in \(0, 2\)"),
            ("theta = -1.0", "unknown config key 'theta'"),
            ("n_paths = 0", "n_paths must be at least 1"),
            ("base_seed = -1", "base_seed must be nonnegative"),
            ("base_seed = 18446744073709551616", r"base_seed must be below 2\^64"),
            ("record_stride = 0", "record_stride must be at least 1"),
            ("output_dir = ", "output_dir must be nonempty"),
        ],
    )
    def test_rejects(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_model_form_errors_surface_as_config_errors(self):
        with pytest.raises(ConfigError, match=r"eps in \(0, 1\]"):
            parse_config("form = regularized\neps = 0.0")

    def test_model_keys_checked_only_where_read(self):
        # K >= 1, the floor of ModelForm; criterion 9's eta sweep runs K = 1
        for k in (1, 2):
            assert to_model_form(parse_config(f"form = regularized\nbigK = {k}")).big_k == k
        cfg = parse_config("form = ito_mcf\neps = 1.5\nbigK = 2\nR = 0.0\nrho = 2.0")
        assert ignored_keys(cfg) == ["eps", "bigK", "R", "rho"]
        assert to_model_form(cfg) == to_model_form(parse_config("form = ito_mcf"))
        # a key at its default changes nothing, read or not
        assert ignored_keys(parse_config("form = ito_mcf\neps = 0.1\nbigK = 3")) == []
        assert ignored_keys(parse_config("form = rho_variant\nrho = 0.5\neta = 1e-3")) == ["eta"]

    def test_ic_spec_checked_at_parse_time(self):
        with pytest.raises(ConfigError, match="unknown initial condition kind"):
            parse_config("initial_condition = bump:0.3")


class TestSerialize:
    def test_roundtrip(self):
        cfg = parse_config(
            "form = regularized\nn = 32\ndt = 0.0002\nT = 0.01\neps = 0.25\n"
            "eta = 0.0001\nbigK = 4\nn_paths = 12\nbase_seed = 99\n"
            "initial_condition = modes:[(1,0,0.1,0.0)]\noutput_dir = runs/a"
        )
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_file_roundtrip(self, tmp_path):
        cfg = parse_config("n = 16\nT = 0.01\nbase_seed = 5")
        p = tmp_path / "run.cfg"
        p.write_text(serialize_config(cfg), encoding="utf-8")
        assert config_from_file(p) == cfg


class TestModelMapping:
    def test_form_dispatch(self):
        f = to_model_form(parse_config("form = regularized\neps = 0.3\neta = 0.001\nbigK = 5"))
        assert f.kind is FormKind.REGULARIZED
        assert (f.eps, f.eta, f.big_k) == (0.3, 0.001, 5)
        assert f.r_trunc == float("inf")

        f = to_model_form(parse_config("form = regularized_truncated\nR = 40.0"))
        assert f.kind is FormKind.REGULARIZED_TRUNCATED
        assert f.r_trunc == 40.0

        f = to_model_form(parse_config("form = rho_variant\nrho = 0.5"))
        assert f.rho == 0.5

        f = to_model_form(parse_config("form = ito_mcf\neps = 0.9"))
        assert f.eps == 0.0    # eps only feeds the regularized family

    def test_model_config_passthrough_and_overrides(self):
        cfg = parse_config("n = 16\ndt = 0.001\nT = 0.02\nrecord_stride = 5")
        mc = to_model_config(cfg)
        assert (mc.n, mc.dt, mc.n_steps, mc.record_stride) == (16, 1e-3, 20, 5)
        assert mc.form == ITO
        trunc = parse_config("form = regularized_truncated\nn = 16\ndt = 0.001\nT = 0.02")
        mc2 = to_model_config(trunc, stop_at_tau_r=True, record_stride=4)
        assert mc2.stop_at_tau_r and mc2.record_stride == 4


class TestInitialSpecs:
    def test_flat(self):
        assert parse_initial_spec("flat:-0.25") == ("flat", -0.25)
        grid = GridSpec(16)
        u = build_initial("flat:-0.25", grid)
        assert np.all(u.values == -0.25)

    def test_modes_field_values(self):
        grid = GridSpec(32)
        x1, x2 = grid.nodes()
        u = build_initial("modes:[(1, 0, 0.1, 0.0), (2, -1, 0.05, 1.5)]", grid)
        expect = 0.1 * np.cos(TWO_PI * x1) + 0.05 * np.cos(TWO_PI * (2 * x1 - x2) + 1.5)
        np.testing.assert_allclose(u.values, expect, atol=1e-15)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("flat", "needs 'kind:args'"),
            ("flat:tall", "needs a number"),
            ("flat:nan", "must be finite"),
            ("flat:inf", "must be finite"),
            ("flat:-inf", "must be finite"),
            ("modes:[(1,0,0.1", "cannot parse mode list"),
            ("modes:[]", "nonempty"),
            ("modes:[(1, 0, 0.1)]", r"needs \(k1, k2, amp, phase\)"),
            ("modes:[(1.5, 0, 0.1, 0.0)]", "mode numbers must be integers"),
            ("modes:[('1', 0, 0.1, 0.0)]", "mode numbers must be integers"),
            ("modes:[(1,0,1e400,0.0)]", r"needs finite \(k1, k2, amp, phase\)"),
            ("modes:[(1,0,1.0,-1e400)]", r"needs finite \(k1, k2, amp, phase\)"),
            ("modes:[(1e400,0,1.0,0.0)]", r"needs finite \(k1, k2, amp, phase\)"),
            ("modes:[('a',0,1.0,0.0)]", r"needs finite \(k1, k2, amp, phase\)"),
            ("modes:[(1,0,'x',0.0)]", r"needs finite \(k1, k2, amp, phase\)"),
            ("modes:[(1,0,1.0,None)]", r"needs finite \(k1, k2, amp, phase\)"),
            # strings and bools used to pass through int() and float()
            ("modes:[(1,0,'0.5',0.0)]", r"needs finite \(k1, k2, amp, phase\)"),
            ("modes:[(1,0,0.5,True)]", r"needs finite \(k1, k2, amp, phase\)"),
            ("modes:[(True,0,0.5,0.0)]", "mode numbers must be integers"),
            ("modes:[(1,False,0.5,0.0)]", "mode numbers must be integers"),
            ("modes:[(1.0,0,0.5,0.0)]", "mode numbers must be integers"),
            ("modes:[(1,0,0.5+1j,0.0)]", r"needs finite \(k1, k2, amp, phase\)"),
            # int() takes it, but the field's k . x would overflow
            pytest.param(f"modes:[({10**400},0,1.0,0.0)]", r"needs finite \(k1, k2, amp, phase\)",
                         id="modes:k1=10^400"),
            ("modes:[(1,0,1e308,0.0),(0,1,1e308,0.0)]", "finite sum"),
            ("random_smooth:11", "needs 'seed,decay'"),
            ("random_smooth:a,4", "needs 'seed,decay'"),
            ("random_smooth:11,2.0", "decay must be >= 3"),
            ("random_smooth:1,nan", "decay must be >= 3"),
            ("random_smooth:18446744073709551616,4", r"seed must lie in \[0, 2\^64\)"),
            ("random_smooth:-1,4", r"seed must lie in \[0, 2\^64\)"),
            ("waves:1", "unknown initial condition kind"),
        ],
    )
    def test_malformed_specs(self, spec, message):
        with pytest.raises(ConfigError, match=message):
            parse_initial_spec(spec)


class TestRandomSmooth:
    def test_reproducible_and_seed_sensitive(self):
        grid = GridSpec(32)
        a = random_smooth_field(grid, 11, 4.0)
        b = random_smooth_field(grid, 11, 4.0)
        c = random_smooth_field(grid, 12, 4.0)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_gradient_bound(self):
        grid = GridSpec(64)
        for seed in (0, 11, 202):
            u = random_smooth_field(grid, seed, 4.0)
            g = gradient(u)
            sup = float(np.max(np.sqrt(g[0]**2 + g[1]**2)))
            assert 0.05 <= sup <= RANDOM_SMOOTH_GRAD_BOUND

    def test_refinement_samples_same_function(self):
        # node sets nest, and the field is an exact trig evaluation, so the
        # coarse grid values are a bitwise subsample of the fine ones
        coarse = random_smooth_field(GridSpec(32), 7, 4.0)
        fine = random_smooth_field(GridSpec(64), 7, 4.0)
        np.testing.assert_array_equal(fine.values[::2, ::2], coarse.values)

    def test_build_initial_dispatch(self):
        grid = GridSpec(32)
        u = build_initial("random_smooth:7,4.0", grid)
        np.testing.assert_array_equal(u.values, random_smooth_field(grid, 7, 4.0).values)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
