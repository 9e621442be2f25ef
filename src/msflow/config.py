"""Flat key-value run configuration.

Config files are plain text, one ``key = value`` per line, with ``#``
comments.  Keys are grouped by dotted prefixes (mixture.*, grid.*,
scheme.*, init.*, forcing.*, output.*).  Unknown keys are errors, not
warnings, so typos cannot silently fall back to defaults.  Command-line
overrides use the same ``key=value`` syntax.  ``validate`` states each
rule once, for files, overrides and the API: each value must be of the
kind that its key's converter yields, and numbers must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .grid import Grid
from .mixture import MixtureSpec


class ConfigError(ValueError):
    """Raised for unknown keys or malformed values."""


def parse_float_list(text: str):
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"expected a list of numbers, got {text!r}") from exc


@dataclass
class SimConfig:
    """Validated simulation settings with buildable grid and mixture."""

    # mixture
    species: int = 2
    molar_masses: tuple = (1.0, 1.0)
    diffusivities: tuple = (1.0,)       # upper triangle, row-major
    # grid
    dim: int = 1
    nx: int = 64
    ny: int = 64
    lx: float = 1.0
    ly: float = 1.0
    # scheme
    t_final: float = 0.1
    steps: int = 100
    eps: float = 1e-2
    lam: object = 0.0                   # float or the string "tau"
    alpha0: float = 1e-6
    flow_tol: float = 1e-10
    species_tol: float = 1e-10
    max_picard: int = 50
    max_outer: int = 80
    # initial data
    preset: str = "uniform"
    amplitude: float = 0.1
    velocity_amplitude: float = 0.1
    # forcing
    forcing_preset: str = "zero"
    fx: float = 0.0
    fy: float = 0.0
    omega: float = 1.0
    forcing_spatial: str = "uniform"
    # output
    out_dir: str = "out"
    csv_name: str = "ledger.csv"
    snapshot_every: int = 0
    # misc
    seed: int = 0

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
        try:
            self.build_mixture()
            grid = self.build_grid()
        except ValueError as exc:       # MixtureSpec's and the grid's too
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


def _lam(text):
    return "tau" if text.strip() == "tau" else float(text)


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

_KEYMAP = {
    "mixture.species": ("species", int),
    "mixture.molar_masses": ("molar_masses", parse_float_list),
    "mixture.diffusivities": ("diffusivities", parse_float_list),
    "grid.dim": ("dim", int),
    "grid.nx": ("nx", int),
    "grid.ny": ("ny", int),
    "grid.lx": ("lx", float),
    "grid.ly": ("ly", float),
    "scheme.t_final": ("t_final", float),
    "scheme.steps": ("steps", int),
    "scheme.eps": ("eps", float),
    "scheme.lambda": ("lam", _lam),
    "scheme.alpha0": ("alpha0", float),
    "scheme.flow_tol": ("flow_tol", float),
    "scheme.species_tol": ("species_tol", float),
    "scheme.max_picard": ("max_picard", int),
    "scheme.max_outer": ("max_outer", int),
    "init.preset": ("preset", str.strip),
    "init.amplitude": ("amplitude", float),
    "init.velocity_amplitude": ("velocity_amplitude", float),
    "forcing.preset": ("forcing_preset", str.strip),
    "forcing.fx": ("fx", float),
    "forcing.fy": ("fy", float),
    "forcing.omega": ("omega", float),
    "forcing.spatial": ("forcing_spatial", str.strip),
    "output.dir": ("out_dir", str.strip),
    "output.csv": ("csv_name", str.strip),
    "output.snapshot_every": ("snapshot_every", int),
    "seed": ("seed", int),
}


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
