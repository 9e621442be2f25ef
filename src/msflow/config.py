"""Run configuration: its keys, presets, builders and the one gate.

Config files are plain text, one ``key = value`` per line, with ``#``
comments.  Each ``SimConfig`` field declares its key, dotted by group
(mixture.*, grid.*, scheme.*, init.*, forcing.*, output.*), its default
and the converter of its text.  Unknown keys are errors, not warnings,
so typos cannot silently fall back to defaults.  Command-line overrides
use the same ``key=value`` syntax.  The module owns what the keys name:
the initial presets and the builders of the grid, the mixture and the
forcing.  ``validate`` is the one gate, for files, overrides and the
API: every value must be of its key's kind and finite, and it builds
the grid, the mixture, the forcing and the initial state, so that each
rule on a preset or an amplitude holds before anything runs.  Creating
the output directory is a side effect, left to ``make_out_dir``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from .flow import FlowState, Forcing
from .grid import Grid, grad
from .mixture import MixtureSpec


class ConfigError(ValueError):
    """Raised for unknown keys or malformed values."""


def parse_float_list(text: str):
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"expected a list of numbers, got {text!r}") from exc


def _lam(text):
    return "tau" if text.strip() == "tau" else float(text)


def _key(key: str, default, conv=None):
    """A field set under ``key``; ``conv`` follows the default's kind."""
    if conv is None:
        conv = {int: int, float: float, tuple: parse_float_list,
                str: str.strip}[type(default)]
    return field(default=default, metadata={"key": key, "conv": conv})


@dataclass
class SimConfig:
    """Run settings, one field per config key, and their builders."""

    species: int = _key("mixture.species", 2)
    molar_masses: tuple = _key("mixture.molar_masses", (1.0, 1.0))
    # upper triangle, row-major
    diffusivities: tuple = _key("mixture.diffusivities", (1.0,))
    dim: int = _key("grid.dim", 1)
    nx: int = _key("grid.nx", 64)
    ny: int = _key("grid.ny", 64)
    lx: float = _key("grid.lx", 1.0)
    ly: float = _key("grid.ly", 1.0)
    t_final: float = _key("scheme.t_final", 0.1)
    steps: int = _key("scheme.steps", 100)
    eps: float = _key("scheme.eps", 1e-2)
    lam: object = _key("scheme.lambda", 0.0, _lam)  # float or "tau"
    alpha0: float = _key("scheme.alpha0", 1e-6)
    flow_tol: float = _key("scheme.flow_tol", 1e-10)
    species_tol: float = _key("scheme.species_tol", 1e-10)
    max_picard: int = _key("scheme.max_picard", 50)
    max_outer: int = _key("scheme.max_outer", 80)
    preset: str = _key("init.preset", "uniform")
    amplitude: float = _key("init.amplitude", 0.1)
    velocity_amplitude: float = _key("init.velocity_amplitude", 0.1)
    forcing_preset: str = _key("forcing.preset", "zero")
    fx: float = _key("forcing.fx", 0.0)
    fy: float = _key("forcing.fy", 0.0)
    omega: float = _key("forcing.omega", 1.0)
    forcing_spatial: str = _key("forcing.spatial", "uniform")
    out_dir: str = _key("output.dir", "out")
    csv_name: str = _key("output.csv", "ledger.csv")
    snapshot_every: int = _key("output.snapshot_every", 0)
    seed: int = _key("seed", 0)

    @property
    def tau(self) -> float:
        if self.steps == 0:
            return 0.0
        return self.t_final / self.steps

    @property
    def lam_value(self) -> float:
        if self.lam == "tau":
            return self.tau
        return float(self.lam)

    def build_grid(self) -> Grid:
        if self.dim == 1:
            return Grid.box((self.nx,), (self.lx,))
        return Grid.box((self.nx, self.ny), (self.lx, self.ly))

    def build_mixture(self) -> MixtureSpec:
        s = self.species
        expected = s * (s - 1) // 2
        vals = self.diffusivities
        if len(vals) != expected:
            raise ConfigError(
                f"mixture.diffusivities needs {expected} upper-triangle "
                f"entries for {s} species, got {len(vals)}")
        if len(self.molar_masses) != s:
            raise ConfigError(
                f"mixture.molar_masses needs {s} entries, got "
                f"{len(self.molar_masses)}")
        d = np.zeros((s, s))
        it = iter(vals)
        for i in range(s):
            for j in range(i + 1, s):
                d[i, j] = d[j, i] = next(it)
        return MixtureSpec(np.array(self.molar_masses), d)

    def build_forcing(self) -> Forcing:
        amp = (self.fx,) if self.dim == 1 else (self.fx, self.fy)
        return Forcing(self.forcing_preset, amp, self.forcing_spatial,
                       self.omega)

    def make_out_dir(self) -> None:
        """Create ``output.dir``; a failure is a ConfigError naming it."""
        try:
            os.makedirs(self.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output.dir {self.out_dir!r} cannot be "
                              f"created: {exc.strerror}") from exc

    def validate(self) -> "SimConfig":
        # Every comparison with NaN is false, so this loop comes first.
        for key, (attr, conv) in _KEYMAP.items():
            value = getattr(self, attr)
            is_kind, kind = _KINDS[conv]
            if not is_kind(value):
                raise ConfigError(f"{key} must be {kind}")
            if not isinstance(value, str) and not np.all(np.isfinite(value)):
                raise ConfigError(f"{key} must be finite")
        if self.dim not in (1, 2):
            raise ConfigError("grid.dim must be 1 or 2")
        if self.steps < 0:
            raise ConfigError("scheme.steps must be nonnegative")
        if self.steps > 0 and self.t_final <= 0:
            raise ConfigError("scheme.t_final must be positive")
        if self.eps < 0:
            raise ConfigError("scheme.eps must be nonnegative")
        if self.lam != "tau" and float(self.lam) < 0:
            raise ConfigError("scheme.lambda must be nonnegative or 'tau'")
        if not min(self.flow_tol, self.species_tol) > 0:
            raise ConfigError(
                "scheme.flow_tol and scheme.species_tol must be positive")
        if min(self.max_picard, self.max_outer) < 1:
            raise ConfigError(
                "scheme.max_picard and scheme.max_outer must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.csv_name in ("", ".", "..") or os.path.dirname(self.csv_name):
            raise ConfigError("output.csv must be a bare file name, got "
                              f"{self.csv_name!r}")
        if self.snapshot_every < 0:
            raise ConfigError("output.snapshot_every must be nonnegative")
        try:                # MixtureSpec's, the grid's and the presets' too
            spec = self.build_mixture()
            grid = self.build_grid()
            self.build_forcing()
            initial_conditions(self, grid, spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # Both residuals divide states of order one by tau.
        machine = float(np.finfo(float).eps)
        floor = 4.0 * machine * np.sqrt(
            grid.cell_volume * grid.n_cells) / (self.tau or np.inf)
        for key in ("flow_tol", "species_tol"):
            if getattr(self, key) < floor:
                raise ConfigError(
                    f"scheme.{key} must be at least {floor:.3g} = 4 eps "
                    f"sqrt(|domain|) / tau, the rounding of its residual")
        if not 0.0 < self.alpha0 < 0.5 / self.species:
            raise ConfigError(
                f"scheme.alpha0 must lie in (0, {0.5 / self.species:.4g})")
        return self


# Per converter: a test for the kind of value that it yields, and that
# kind in words, so that values set through the API meet the rules too.
_KINDS = {
    int: (lambda v: isinstance(v, Integral), "an integer"),
    float: (lambda v: isinstance(v, Real), "a real number"),
    parse_float_list: (lambda v: isinstance(v, tuple) and all(
        isinstance(x, Real) for x in v), "a tuple of reals"),
    _lam: (lambda v: v == "tau" if isinstance(v, str)
           else isinstance(v, Real), "a real number or 'tau'"),
    str.strip: (lambda v: isinstance(v, str), "a string"),
}

# Each key, in declaration order, with its field and converter.
_KEYMAP = {f.metadata["key"]: (f.name, f.metadata["conv"])
           for f in fields(SimConfig)}


def _cos_profile(grid: Grid) -> np.ndarray:
    xs = grid.cell_centers()
    out = np.ones(grid.shape)
    for a in range(grid.dim):
        out = out * np.cos(np.pi * xs[a] / grid.lengths[a])
    return out


def _discrete_stream_velocity(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """Velocity from a stream function via the odd-ghost derivatives.

    Because the central derivatives along the two axes commute, the
    discrete divergence (odd ghosts) of this field is zero up to
    rounding.
    """
    dx, dy = grad(grid, psi, "dirichlet")
    return np.stack([dy, -dx])


def initial_conditions(config: SimConfig, grid: Grid, spec: MixtureSpec):
    """Initial (flow_state, raw_full_densities) for the configured preset.

    Raw densities are nonnegative and sum to one but may touch the
    simplex boundary; the driver lifts them before forming entropy
    variables.
    """
    n1 = spec.n_species
    amp = config.amplitude
    rho_full = np.full((n1,) + grid.shape, 1.0 / n1)
    flow = FlowState.zero(grid)
    prof = _cos_profile(grid)
    preset = config.preset
    if preset == "cosine-binary":
        if n1 != 2:
            raise ValueError("cosine-binary needs 2 species")
        rho_full[0] = 0.5 + amp * prof
        rho_full[1] = 1.0 - rho_full[0]
        if np.any(rho_full < 0):
            raise ValueError("amplitude too large for cosine-binary")
    elif preset == "layered-ternary":
        if n1 != 3:
            raise ValueError("layered-ternary needs 3 species")
        x = np.empty((3,) + grid.shape)
        x[0] = 0.25 + amp * prof
        x[1] = 0.5
        x[2] = 0.25 - amp * prof
        if np.any(x < 0):
            raise ValueError("amplitude too large for layered-ternary")
        m = spec.molar_masses
        weight = sum(m[i] * x[i] for i in range(3))
        for i in range(3):
            rho_full[i] = m[i] * x[i] / weight
    elif preset == "vortex-2d":
        if grid.dim != 2:
            raise ValueError("vortex-2d needs a 2D grid")
        xs = grid.cell_centers()
        sx = np.sin(np.pi * xs[0] / grid.lengths[0])
        sy = np.sin(np.pi * xs[1] / grid.lengths[1])
        psi = config.velocity_amplitude * (sx * sx) * (sy * sy)
        flow = FlowState(_discrete_stream_velocity(grid, psi),
                         np.zeros(grid.shape))
        base = 1.0 / n1
        rho_full[0] = base + amp * prof
        rho_full[-1] = base - amp * prof
        if np.any(rho_full < 0):
            raise ValueError("amplitude too large for vortex-2d")
    elif preset != "uniform":
        raise ValueError(f"unknown initial preset {preset!r}")
    return flow, rho_full


def _apply_pair(cfg: SimConfig, key: str, value: str) -> None:
    key = key.strip()
    if key not in _KEYMAP:
        raise ConfigError(f"unknown config key {key!r}")
    attr, conv = _KEYMAP[key]
    try:
        setattr(cfg, attr, conv(value.strip()))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def parse_config_text(text: str, overrides=()) -> SimConfig:
    cfg = SimConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw!r}")
        key, value = line.split("=", 1)
        _apply_pair(cfg, key, value)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        _apply_pair(cfg, key, value)
    return cfg.validate()


def load_config(path, overrides=()) -> SimConfig:
    if path is None:
        return parse_config_text("", overrides)
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    return parse_config_text(text, overrides)
