"""External run configuration: "key = value" text, defaults, validation.

The config layer validates the run keys (ranges, T/dt divisibility, the
form's linear dt bound) and the initial condition mini-language, whose
numbers must all be finite. The model keys eps, eta, bigK, R and rho are
range-checked once, by the ModelForm that to_model_form builds, and only
for the form that reads them (FORM_READS); the form's linear symbol refuses
a K that overflows at n. Initial conditions:

    flat:<c>
    modes:[(k1,k2,amp,phase),...]          sum of amp*cos(2 pi (k.x) + phase)
    random_smooth:<seed>,<decay>           reproducible band-limited field
"""
from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from .dynamics import FORM_READS, FormKind, ModelForm, default_dt, linear_dt_bound
from .grid import GridSpec, ScalarField
from .harness import ModelConfig
from .noise import TAG_IC, derive_key

__all__ = [
    "ConfigError",
    "RunConfig",
    "resolve_dt",
    "parse_config",
    "serialize_config",
    "config_from_file",
    "to_model_form",
    "with_config_keys",
    "ignored_keys",
    "to_model_config",
    "n_steps_of",
    "build_initial",
    "random_smooth_field",
]

RANDOM_SMOOTH_KMAX = 5
RANDOM_SMOOTH_GRAD_BOUND = 0.5


class ConfigError(ValueError):
    pass


def resolve_dt(dt_max: float, T: float) -> float:
    """Largest dt that divides T exactly while staying at or under dt_max.

    Used when the config leaves dt unset, with the form's default_dt as
    dt_max, so the defaults always validate.
    """
    return T / math.ceil(T / dt_max)


@dataclass(frozen=True)
class RunConfig:
    form: str = "ito_mcf"
    n: int = 64
    dt: float = 0.0          # 0 means "derive from n and T via resolve_dt"
    T: float = 0.1
    eps: float = 0.1
    eta: float = 0.0
    bigK: int = 3
    R: float = 1e6
    rho: float = 1.0
    n_paths: int = 1
    base_seed: int = 0
    record_stride: int = 10
    initial_condition: str = "flat:0.0"
    output_dir: str = "out"


_KEY_ORDER = tuple(f.name for f in fields(RunConfig))
_DEFAULTS = RunConfig()
_FORM_NAMES = tuple(k.value for k in FormKind)


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}")


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}")


# each key parses as the type of its RunConfig default; str keys stay raw
_KEY_PARSERS = {
    f.name: {int: _parse_int, float: _parse_float}.get(type(f.default))
    for f in fields(RunConfig)
}


def _validate(cfg: RunConfig) -> RunConfig:
    """Check every field; returns cfg with an unset dt derived."""
    if cfg.form not in _FORM_NAMES:
        raise ConfigError(f"form must be one of {_FORM_NAMES}, got {cfg.form!r}")
    if cfg.n < 8 or cfg.n % 2:
        raise ConfigError(f"n must be an even integer >= 8, got {cfg.n}")
    # the chained comparisons also reject NaN
    if not 0.0 < cfg.T < math.inf:
        raise ConfigError(f"T must be positive and finite, got {cfg.T}")
    if not 0.0 <= cfg.dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, got {cfg.dt}")
    if cfg.n_paths < 1:
        raise ConfigError(f"n_paths must be at least 1, got {cfg.n_paths}")
    if cfg.base_seed < 0:
        raise ConfigError(f"base_seed must be nonnegative, got {cfg.base_seed}")
    if cfg.base_seed >= 1 << 64:
        # noise keys and snapshot headers hold 64 bits; a larger seed would
        # silently replay the noise of base_seed mod 2^64
        raise ConfigError(f"base_seed must be below 2^64, got {cfg.base_seed}")
    if cfg.record_stride < 1:
        raise ConfigError(f"record_stride must be at least 1, got {cfg.record_stride}")
    if not cfg.output_dir:
        raise ConfigError("output_dir must be nonempty")
    parse_initial_spec(cfg.initial_condition)  # raises on malformed specs
    try:
        form = to_model_form(cfg)  # range-checks the model keys the form reads
        # both form the form's linear symbol, which refuses an overflowing K
        derived = resolve_dt(default_dt(form, cfg.n), cfg.T)
        bound = linear_dt_bound(form, cfg.n)
    except ValueError as e:
        raise ConfigError(str(e))
    dt = cfg.dt or derived
    if dt > bound:
        raise ConfigError(
            f"dt = {dt!r} exceeds {bound:.6g}, the linear stability bound of "
            f"{cfg.form} at n = {cfg.n} (necessary, not sufficient, for a stable "
            f"run); leave dt unset to derive dt = {derived!r}"
        )
    steps = cfg.T / dt  # overflows to inf when dt is tiny against T
    m = round(steps) if steps < math.inf else 0
    if m < 1 or abs(m * dt - cfg.T) > 1e-9 * max(cfg.T, dt):
        raise ConfigError(f"T = {cfg.T} is not an integer multiple of dt = {dt}")
    return replace(cfg, dt=dt)


def parse_config(text: str) -> RunConfig:
    """Parse "key = value" lines; '#' starts a comment; unknown keys error."""
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        parse = _KEY_PARSERS[key]
        values[key] = parse(key, raw) if parse else raw
    return _validate(RunConfig(**values))


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for key in _KEY_ORDER:
        val = getattr(cfg, key)
        lines.append(f"{key} = {val!r}" if isinstance(val, float) else f"{key} = {val}")
    return "\n".join(lines) + "\n"


def config_from_file(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"config file {str(path)!r} is not UTF-8 text: {e}")
    return parse_config(text)


def n_steps_of(cfg: RunConfig) -> int:
    return int(round(cfg.T / cfg.dt))


# ModelForm parameter -> its config key; a form is given only the keys it reads
_FORM_KEYS = {"eps": "eps", "eta": "eta", "big_k": "bigK", "r_trunc": "R", "rho": "rho"}


def with_config_keys(message: str) -> str:
    """A ModelForm error message with each field name replaced by its config key."""
    return re.sub(r"\w+", lambda m: _FORM_KEYS.get(m[0], m[0]), message)


def to_model_form(cfg: RunConfig) -> ModelForm:
    """cfg's ModelForm; a range error names the config key, not the field."""
    kind = FormKind(cfg.form)
    try:
        return ModelForm(kind, **{p: getattr(cfg, _FORM_KEYS[p]) for p in FORM_READS[kind]})
    except ValueError as e:
        raise ValueError(with_config_keys(str(e))) from None


def ignored_keys(cfg: RunConfig) -> list[str]:
    """Model keys set away from their defaults that cfg's form does not read."""
    reads = FORM_READS[FormKind(cfg.form)]
    return [
        key for p, key in _FORM_KEYS.items()
        if p not in reads and getattr(cfg, key) != getattr(_DEFAULTS, key)
    ]


def to_model_config(cfg: RunConfig, **overrides) -> ModelConfig:
    base = dict(
        form=to_model_form(cfg),
        n=cfg.n,
        dt=cfg.dt,
        n_steps=n_steps_of(cfg),
        record_stride=cfg.record_stride,
    )
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# initial conditions

def parse_initial_spec(spec: str):
    """Split an IC spec into (kind, payload); raises ConfigError if malformed."""
    if ":" not in spec:
        raise ConfigError(f"initial_condition needs 'kind:args', got {spec!r}")
    kind, _, arg = spec.partition(":")
    kind = kind.strip()
    if kind == "flat":
        try:
            c = float(arg)
        except ValueError:
            raise ConfigError(f"flat initial condition needs a number, got {arg!r}")
        if not math.isfinite(c):
            raise ConfigError(f"flat initial condition must be finite, got {arg!r}")
        return "flat", c
    if kind == "modes":
        try:
            modes = ast.literal_eval(arg.strip())
        except (ValueError, SyntaxError):
            raise ConfigError(f"cannot parse mode list {arg!r}")
        if not isinstance(modes, (list, tuple)) or not modes:
            raise ConfigError("mode list must be a nonempty [(k1,k2,amp,phase), ...]")
        out = []
        for m in modes:
            if not isinstance(m, (list, tuple)) or len(m) != 4:
                raise ConfigError(f"each mode needs (k1, k2, amp, phase), got {m!r}")
            # bool is an int subclass, but True is no mode number or amplitude
            typed = all(type(k) is int for k in m[:2]) and all(
                type(v) in (int, float) for v in m[2:]
            )
            try:
                # float() of an int beyond the float range overflows
                finite = typed and all(math.isfinite(float(v)) for v in m)
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigError(
                    f"each mode needs finite (k1, k2, amp, phase); mode numbers must be "
                    f"integers and amp, phase int or float numbers, got {m!r}"
                )
            out.append((m[0], m[1], float(m[2]), float(m[3])))
        # |sum of amp cos(...)| <= sum |amp|, so a finite bound keeps the field finite
        if not math.isfinite(sum(abs(m[2]) for m in out)):
            raise ConfigError("mode amplitudes must have a finite sum")
        return "modes", out
    if kind == "random_smooth":
        parts = [p.strip() for p in arg.split(",")]
        if len(parts) != 2:
            raise ConfigError(
                f"random_smooth needs 'seed,decay', got {arg!r}"
            )
        try:
            seed = int(parts[0])
            decay = float(parts[1])
        except ValueError:
            raise ConfigError(f"random_smooth needs 'seed,decay', got {arg!r}")
        if not 0 <= seed < 1 << 64:
            # the field's key holds 64 bits; another seed would alias one inside
            raise ConfigError(f"random_smooth seed must lie in [0, 2^64), got {seed}")
        if not decay >= 3.0:  # also rejects NaN
            raise ConfigError(f"random_smooth decay must be >= 3, got {decay}")
        return "random_smooth", (seed, decay)
    raise ConfigError(f"unknown initial condition kind {kind!r}")


def _half_plane_modes(kmax: int) -> list[tuple[int, int]]:
    """One representative per conjugate mode pair, fixed order."""
    out = []
    for k1 in range(0, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            if k1 == 0 and k2 <= 0:
                continue
            out.append((k1, k2))
    return out


def random_smooth_field(grid: GridSpec, seed: int, decay: float) -> ScalarField:
    """Band-limited random field with |k|^(-decay) amplitudes.

    The mode set, phases, and amplitudes depend only on (seed, decay); values
    are exact trigonometric evaluations on the grid nodes, so refining the
    grid samples the same continuum function. Amplitudes are normalized so
    sup |grad u| <= RANDOM_SMOOTH_GRAD_BOUND.
    """
    modes = _half_plane_modes(RANDOM_SMOOTH_KMAX)
    rng = np.random.Generator(np.random.Philox(key=derive_key(seed, TAG_IC, 0)))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=len(modes))
    norms = np.array([math.hypot(k1, k2) for k1, k2 in modes])
    amps = norms**-decay
    amps *= RANDOM_SMOOTH_GRAD_BOUND / float(np.sum(amps * 2.0 * math.pi * norms))
    terms = ((k1, k2, a, ph) for (k1, k2), a, ph in zip(modes, amps, phases))
    return _mode_sum(grid, terms)


def _mode_sum(grid: GridSpec, modes) -> ScalarField:
    """Sum of amp * cos(2 pi (k1 x1 + k2 x2) + phase) over (k1, k2, amp, phase)."""
    x1, x2 = grid.nodes()
    vals = np.zeros((grid.n, grid.n))
    for k1, k2, amp, phase in modes:
        vals += amp * np.cos(2.0 * math.pi * (k1 * x1 + k2 * x2) + phase)
    return ScalarField(grid, vals)


def build_initial(spec: str, grid: GridSpec) -> ScalarField:
    kind, payload = parse_initial_spec(spec)
    if kind == "flat":
        return ScalarField.constant(grid, payload)
    if kind == "modes":
        return _mode_sum(grid, payload)
    seed, decay = payload
    return random_smooth_field(grid, seed, decay)
