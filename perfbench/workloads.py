"""Benchmark workloads: which config, which overrides, why.

Every workload is one of the shipped configs plus ``--set`` style
overrides, so the solver receives nothing the command line could not
give it.  A seed draws small relative perturbations of the initial
amplitudes and the forcing frequency; seed 0 leaves the config as
shipped.

``BENCHMARK.json`` lists ``vortex2d-64`` and ``sweep-eps-64``, which
between them enter every layer.  ``ternary-1d`` stays runnable by name
as the control that bypasses flow and LU: on a two-core host three
workloads leave too little measuring time per run for steady figures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Relative half-width of the seed perturbations.  Wide enough that
# different seeds give different ledgers, narrow enough that every
# correctness gate holds and the iteration counts barely move.
PERTURBATION = 0.02

# Keys the seed perturbs, with the value the shipped configs use where
# the workload's config does not set it (forcing.omega is inert when
# the forcing preset is zero, as in the 1D configs).
SEEDED_KEYS = ("init.amplitude", "init.velocity_amplitude", "forcing.omega")

SWEEP_EPS = (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str              # path relative to the repository root
    kind: str                # "run": run_simulation; "sweep": sweep_epsilon
    overrides: tuple = ()
    smoke: tuple = ()        # extra overrides for the 16^2 smoke variant
    why: str = ""


WORKLOADS = {w.name: w for w in (
    Workload(
        "vortex2d-64", "configs/standard-2d.cfg", "run",
        overrides=(),
        smoke=("grid.nx=16", "grid.ny=16", "scheme.steps=4",
               "scheme.t_final=0.004", "output.snapshot_every=2"),
        why="quick-start run as shipped: 64^2, 100 steps, snapshots, "
            "ledger, bounds; flow solve and advection rebuilds dominate"),
    Workload(
        "ternary-1d", "configs/entropy-ternary-1d.cfg", "run",
        overrides=(),
        smoke=("grid.nx=16", "scheme.steps=4", "scheme.t_final=0.004"),
        why="1D ternary diffusion: species assembly, CG and mixture "
            "algebra dominate; flow and LU changes should not show here"),
    Workload(
        "sweep-eps-64", "configs/sweep-2d.cfg", "sweep",
        overrides=("scheme.steps=10", "scheme.t_final=0.01"),
        smoke=("grid.nx=16", "grid.ny=16"),
        why="eps sweep 1e-1..1e-4 against the reference on 10 steps at "
            "tau=1e-3: sparse LU factoring, the saddle LU above all"),
)}


def read_config_values(path: str) -> dict:
    """The key = value pairs of a config file, as strings."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if "=" in line:
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    return values


def seed_overrides(config_values: dict, seed: int) -> list:
    """``key=value`` overrides perturbing the seeded keys; none for seed 0.

    Each seeded key present in the config is scaled by a factor drawn
    uniformly from [1 - PERTURBATION, 1 + PERTURBATION].
    """
    if seed == 0:
        return []
    rng = random.Random(seed)
    out = []
    for key in SEEDED_KEYS:
        factor = 1.0 + PERTURBATION * (2.0 * rng.random() - 1.0)
        if key in config_values:
            out.append(f"{key}={float(config_values[key]) * factor!r}")
    return out


def cell_steps(cfg, kind: str) -> int:
    """Cells times steps over every solver run the workload makes."""
    cells = cfg.nx if cfg.dim == 1 else cfg.nx * cfg.ny
    runs = len(SWEEP_EPS) + 1 if kind == "sweep" else 1
    return cells * cfg.steps * runs
