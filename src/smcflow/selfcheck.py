"""Built-in invariant suite behind the `verify` CLI command.

Fast, deterministic, no files: operator identities, geometry identities
(the cofactor flux identity behind the energy method among them),
flat-graph exactness, truncation transparency, a small flat-ensemble
martingale check, and noise refinement/replay. Each check returns a pass
flag and a one-line detail; run_all gives the CLI (name, ok, detail).
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .config import random_smooth_field
from .dynamics import FormKind, ModelForm, drift
from .geometry import cofactor_flux_residual, gauss_bonnet_residual, geometry_bundle
from .grid import (
    DiffMethod,
    GridSpec,
    ScalarField,
    get_workspace,
    gradient,
    divergence,
    hessian,
    laplacian,
    integrate,
)
from .harness import ModelConfig, run_ensemble, run_path
from .noise import NoisePath

__all__ = ["run_all"]


def check_spectral_roundtrip() -> tuple[bool, str]:
    grid = GridSpec(32)
    u = random_smooth_field(grid, seed=11, decay=3.0)
    ws = get_workspace(32)
    err = float(np.max(np.abs(ws.inverse(ws.forward(u.values)) - u.values)))
    scale = float(np.max(np.abs(u.values)))
    rel = err / scale
    return rel <= 1e-12, f"relative round-trip error {rel:.3e}"


def check_gradient_oracle() -> tuple[bool, str]:
    grid = GridSpec(32)
    x1, _ = grid.nodes()
    u = ScalarField(grid, np.sin(2 * math.pi * x1))
    g = gradient(u, DiffMethod.SPECTRAL)
    err = max(
        float(np.max(np.abs(g[0] - 2 * math.pi * np.cos(2 * math.pi * x1)))),
        float(np.max(np.abs(g[1]))),
    )
    return err <= 1e-12, f"single-mode gradient error {err:.3e}"


def check_adjointness() -> tuple[bool, str]:
    grid = GridSpec(32)
    u = random_smooth_field(grid, seed=21, decay=3.0)
    f1 = random_smooth_field(grid, seed=22, decay=3.0)
    f2 = random_smooth_field(grid, seed=23, decay=3.0)
    worst = 0.0
    f = np.stack([f1.values, f2.values])
    for method in DiffMethod:
        lhs = integrate(ScalarField(grid, u.values * divergence(f, method)))
        g = gradient(u, method)
        rhs = -integrate(ScalarField(grid, g[0] * f1.values + g[1] * f2.values))
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-10, f"max adjointness defect {worst:.3e}"


def check_trace_hessian() -> tuple[bool, str]:
    grid = GridSpec(32)
    u = random_smooth_field(grid, seed=31, decay=3.0)
    worst = 0.0
    for method in DiffMethod:
        a11, _, a22 = hessian(u, method)
        worst = max(worst, float(np.max(np.abs(a11 + a22 - laplacian(u, method)))))
    return worst <= 1e-12, f"max trace defect {worst:.3e}"


def check_geometry_pointwise() -> tuple[bool, str]:
    grid = GridSpec(64)
    u = random_smooth_field(grid, seed=41, decay=4.0)
    b = geometry_bundle(u, DiffMethod.SPECTRAL)
    wsq = b.w1**2 + b.w2**2
    e1 = float(np.max(np.abs(b.H - (1.0 - wsq) ** -0.5)))
    det = (1.0 - b.w1**2) * (1.0 - b.w2**2) - (b.w1 * b.w2) ** 2
    e2 = float(np.max(np.abs(det - b.H**-2)))
    err = max(e1, e2)
    return err <= 1e-12, f"pointwise identity error {err:.3e}"


def check_drift_identity() -> tuple[bool, str]:
    # Lap u / 2 + H v / 2 = Lap u - w^T D^2u w / 2, through the stepping kernel
    u = random_smooth_field(GridSpec(64), seed=51, decay=4.0)
    a = drift(u, ModelForm(FormKind.ITO_MCF))
    b = drift(u, ModelForm(FormKind.ITO_ANISOTROPIC))
    err = float(np.max(np.abs(a.values - b.values)))
    return err <= 1e-8, f"drift identity residual {err:.3e}"


def check_gauss_bonnet() -> tuple[bool, str]:
    grid = GridSpec(64)
    x1, x2 = grid.nodes()
    u = ScalarField(
        grid,
        0.1 * np.sin(2 * math.pi * x1) * np.cos(2 * math.pi * x2)
        + 0.06 * np.cos(4 * math.pi * x2),
    )
    b = geometry_bundle(u, DiffMethod.SPECTRAL)
    res = abs(gauss_bonnet_residual(b))
    # The cofactor flux identity writes the same integrand det(Dw) H as a
    # pure divergence, pointwise. On the field above its products alias and
    # leave a 1.9e-4 residual, so it is checked on a random smooth field.
    smooth = random_smooth_field(GridSpec(64), seed=0, decay=4.0)
    flux = cofactor_flux_residual(smooth, DiffMethod.SPECTRAL)
    return (
        res <= 1e-8 and flux <= 1e-10,
        f"spectral residual {res:.3e}, cofactor flux residual {flux:.3e}",
    )


def check_flat_exactness() -> tuple[bool, str]:
    grid = GridSpec(16)
    cfg = ModelConfig(form=ModelForm(FormKind.ITO_MCF), n=16, dt=1e-3, n_steps=200)
    noise = NoisePath.generate(97, 1e-3, 200)
    res = run_path(cfg, ScalarField.constant(grid, 0.7), noise=noise)
    worst = 0.0
    for rec, step in zip(res.records, res.record_steps):
        worst = max(worst, abs(rec.mass - 0.7 - noise.w[step]))
    worst = max(
        worst, float(np.max(np.abs(res.terminal.values - 0.7 - noise.w[200])))
    )
    return worst <= 1e-12, f"max flat-graph defect {worst:.3e}"


def check_truncation_transparency() -> tuple[bool, str]:
    grid = GridSpec(16)
    u0 = random_smooth_field(grid, seed=61, decay=4.0)
    noise = NoisePath.generate(613, 2e-4, 50)
    base = dict(n=16, dt=2e-4, n_steps=50)
    plain = ModelConfig(
        form=ModelForm(FormKind.REGULARIZED, eps=0.1, eta=1e-6, big_k=3), **base
    )
    trunc = ModelConfig(
        form=ModelForm(
            FormKind.REGULARIZED_TRUNCATED, eps=0.1, eta=1e-6, big_k=3, r_trunc=1e6
        ),
        **base,
    )
    ra = run_path(plain, u0, noise=noise)
    rb = run_path(trunc, u0, noise=noise)
    same = bool(np.array_equal(ra.terminal.values, rb.terminal.values))
    ok = same and not rb.tau_r_triggered
    return ok, f"bit-identical={same}, tau_R triggered={rb.tau_r_triggered}"


def check_martingale_flat() -> tuple[bool, str]:
    grid = GridSpec(8)
    n_paths, n_steps, dt = 200, 100, 1e-3
    cfg = ModelConfig(
        form=ModelForm(FormKind.ITO_MCF),
        n=8,
        dt=dt,
        n_steps=n_steps,
        martingale_steps=(n_steps,),
    )
    rep = run_ensemble(cfg, ScalarField.constant(grid, 0.0), n_paths, base_seed=2024)
    mart = rep.martingale
    t = n_steps * dt
    ratio = float(mart.var_m[0] / t)
    band = 3.0 * math.sqrt(2.0 / n_paths)
    mean_ok = bool(mart.mean_ok[0])
    ok = abs(ratio - 1.0) <= band and mean_ok
    return ok, f"Var M/t = {ratio:.4f} (band 1 +/- {band:.4f}), mean ok={mean_ok}"


def check_mass_residual() -> tuple[bool, str]:
    grid = GridSpec(16)
    x1, x2 = grid.nodes()
    u0 = ScalarField(
        grid, 0.5 * np.sin(2 * math.pi * x1) + 0.3 * np.cos(2 * math.pi * x2)
    )
    cfg = ModelConfig(
        form=ModelForm(FormKind.REGULARIZED, eps=0.1, eta=1e-6, big_k=3),
        n=16,
        dt=2e-4,
        n_steps=100,
    )
    res = run_path(cfg, u0, NoisePath.generate(71, cfg.dt, cfg.n_steps))
    return (
        res.max_mass_residual <= 1e-10,
        f"max per-step mass residual {res.max_mass_residual:.3e}",
    )


def check_noise_refinement() -> tuple[bool, str]:
    a = NoisePath.generate(1234, 1e-3, 64)
    b = NoisePath.generate(1234, 1e-3, 64)
    replay = bool(np.array_equal(a.increments, b.increments))
    fine = a.refine()
    sums = fine.increments[0::2] + fine.increments[1::2]
    exact = bool(np.array_equal(sums, a.increments))
    return replay and exact, f"replay={replay}, refinement sums exact={exact}"


ALL_CHECKS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("spectral round trip", check_spectral_roundtrip),
    ("gradient oracle", check_gradient_oracle),
    ("operator adjointness", check_adjointness),
    ("hessian trace consistency", check_trace_hessian),
    ("geometry pointwise identities", check_geometry_pointwise),
    ("drift form identity", check_drift_identity),
    ("Gauss-Bonnet cancellation and cofactor flux", check_gauss_bonnet),
    ("flat-graph exactness", check_flat_exactness),
    ("truncation transparency", check_truncation_transparency),
    ("flat-ensemble martingale", check_martingale_flat),
    ("mass bookkeeping", check_mass_residual),
    ("noise refinement and replay", check_noise_refinement),
)


def run_all() -> list[tuple[str, bool, str]]:
    """(name, ok, detail) of every check in ALL_CHECKS, in order."""
    out = []
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as e:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        out.append((name, ok, detail))
    return out
