"""Config parsing, initial presets, time loop, reference solver, CLI."""

import csv
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import msflow.flow as flow_mod
from msflow import cli, driver, mixture
from msflow.config import ConfigError, SimConfig, initial_conditions, \
    load_config, parse_config_text
from msflow.driver import (
    reference_incompressible,
    run_simulation,
    sweep_epsilon,
)
from msflow.flow import (
    FlowParams,
    FlowSolverError,
    FlowSystem,
    Forcing,
    SpectralInverse,
    average_force,
    flow_step,
)
from msflow.grid import _ADJOINT_BC, derivative, div, norm_l2
from msflow.iteration import SolverError
from msflow.mixture import entropy_vars, mobility_matrix
from msflow.species import SpeciesSolverError

from conftest import deriv_matrix

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CONFIG_TEXT = """
# full-coverage sample
mixture.species = 3
mixture.molar_masses = 2.0, 3.0, 1.5
mixture.diffusivities = 0.5 0.7 0.3

grid.dim = 2
grid.nx = 24
grid.ny = 16          # trailing comment
grid.lx = 2.0
grid.ly = 1.0

scheme.t_final = 0.05
scheme.steps = 50
scheme.eps = 1e-3
scheme.lambda = tau
scheme.alpha0 = 1e-4
scheme.flow_tol = 1e-9
scheme.species_tol = 1e-9
scheme.max_picard = 30
scheme.max_outer = 40

init.preset = layered-ternary
init.amplitude = 0.15
init.velocity_amplitude = 0.2

forcing.preset = sin
forcing.fx = 0.2
forcing.fy = -0.1
forcing.omega = 2.0
forcing.spatial = bump

output.dir = results
output.csv = run.csv
output.snapshot_every = 10
seed = 7
"""


# -- config parsing ---------------------------------------------------


def test_parse_full_config_text():
    cfg = parse_config_text(CONFIG_TEXT)
    assert cfg.species == 3
    assert cfg.molar_masses == (2.0, 3.0, 1.5)
    assert cfg.diffusivities == (0.5, 0.7, 0.3)
    assert (cfg.dim, cfg.nx, cfg.ny) == (2, 24, 16)
    assert (cfg.lx, cfg.ly) == (2.0, 1.0)
    assert cfg.t_final == 0.05 and cfg.steps == 50
    assert cfg.eps == 1e-3
    assert cfg.lam == "tau"
    assert cfg.lam_value == cfg.tau == 1e-3
    assert cfg.alpha0 == 1e-4
    assert cfg.flow_tol == 1e-9 and cfg.species_tol == 1e-9
    assert cfg.max_picard == 30 and cfg.max_outer == 40
    assert cfg.preset == "layered-ternary"
    assert cfg.amplitude == 0.15 and cfg.velocity_amplitude == 0.2
    assert cfg.forcing_preset == "sin"
    assert (cfg.fx, cfg.fy, cfg.omega) == (0.2, -0.1, 2.0)
    assert cfg.forcing_spatial == "bump"
    assert cfg.out_dir == "results" and cfg.csv_name == "run.csv"
    assert cfg.snapshot_every == 10
    assert cfg.seed == 7


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("grid.nz = 4\n")


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("grid.nx 32\n")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError, match="bad value for grid.nx"):
        parse_config_text("grid.nx = many\n")
    with pytest.raises(ConfigError, match="list of numbers"):
        parse_config_text("mixture.molar_masses = a, b\n")


def test_overrides_win_over_file():
    cfg = parse_config_text("grid.nx = 8\n", overrides=["grid.nx=32"])
    assert cfg.nx == 32
    with pytest.raises(ConfigError, match="override must be key=value"):
        parse_config_text("", overrides=["grid.nx"])


def test_load_config_without_path_gives_defaults():
    cfg = load_config(None)
    assert cfg == SimConfig()


def test_load_config_reads_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("grid.dim = 1\ngrid.nx = 12\n")
    cfg = load_config(path, overrides=["scheme.steps=5"])
    assert cfg.nx == 12 and cfg.steps == 5
    # A file that is not UTF-8 is a bad input, refused in one line.
    latin = tmp_path / "latin.cfg"
    latin.write_bytes("# L\u00f6sung\ngrid.nx = 12\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(latin)
    for command in ("run", "check"):
        rc = cli.main([command, str(latin)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "", command
        assert err.startswith("msflow: ConfigError: cannot read ")
        assert err.count("\n") == 1


def test_a_run_builds_its_start_once(tmp_path, monkeypatch, capsys):
    # SimConfig.validate builds the start; every run calls it once.
    builds = []
    build_grid = SimConfig.build_grid

    def counted(self):
        builds.append(1)
        return build_grid(self)

    monkeypatch.setattr(SimConfig, "build_grid", counted)
    short = ["scheme.steps=2", "scheme.t_final=2e-3"]
    run_simulation(SimConfig(steps=2, t_final=2e-3))
    assert len(builds) == 1
    builds.clear()
    assert cli.main(["run", "--set", f"output.dir={tmp_path}"] + [
        arg for pair in short for arg in ("--set", pair)]) == 0
    assert len(builds) == 2         # load_config, then the run
    cfg = load_config(None, short)
    builds.clear()
    sweep_epsilon(cfg, [1e-1, 1e-2], strict=False)
    assert len(builds) == 3         # the reference and two eps


def test_tau_zero_when_no_steps():
    cfg = SimConfig(steps=0)
    assert cfg.tau == 0.0
    assert SimConfig(lam=0.25).lam_value == 0.25


def test_validate_rejects_bad_settings():
    cases = [
        dict(dim=3),
        dict(steps=-1),
        dict(t_final=0.0, steps=10),
        dict(eps=-1e-2),
        dict(lam=-1.0),
        dict(species=3, molar_masses=(1.0, 1.0, 1.0),
             diffusivities=(1.0,)),
        dict(species=2, molar_masses=(1.0,)),
        dict(flow_tol=0.0),
        dict(species_tol=-1.0),
        dict(alpha0=0.0),
        dict(alpha0=0.25),
        dict(species=3, molar_masses=(1.0, 1.0, 1.0),
             diffusivities=(1.0, 1.0, 1.0), alpha0=0.2),
        dict(nx=3),
        dict(dim=2, ny=2),
        dict(max_picard=0),
        dict(max_outer=0),
        dict(seed=-1),
        dict(species_tol=1e-13),
        dict(steps=1_000_000),
        dict(dim=2, lx=4.0, ly=4.0, species_tol=3e-12),
        # tau = 1e-6 puts the floor at 8.9e-10, above the default flow_tol.
        dict(dim=2, nx=16, ny=16, steps=3, t_final=3e-6, species_tol=1e-8),
        dict(preset="swirl"),
        dict(csv_name="sub/l.csv"),
        dict(snapshot_every=-3),
        dict(forcing_preset="sin", omega=0.0),
    ]
    for kwargs in cases:
        with pytest.raises(ConfigError):
            SimConfig(**kwargs).validate()
    # Every comparison with NaN is false; each non-finite value is
    # refused under its own key, not by a later rule it slips past.
    for key, attr in (
            ("scheme.eps", "eps"), ("scheme.t_final", "t_final"),
            ("scheme.lambda", "lam"), ("scheme.species_tol", "species_tol"),
            ("init.amplitude", "amplitude"), ("grid.lx", "lx"),
            ("mixture.molar_masses", "molar_masses")):
        for value in (np.nan, np.inf):
            if attr == "molar_masses":
                value = (1.0, value)
            with pytest.raises(ConfigError, match=rf"^{key} must be finite"):
                SimConfig(**{attr: value}).validate()
    # A value of the wrong kind from the API is refused under its key,
    # not by a TypeError from the rule it reaches first.
    for key, attr, value in (
            ("scheme.eps", "eps", "1e-2"), ("scheme.lambda", "lam", "foo"),
            ("mixture.molar_masses", "molar_masses", ("1", "1")),
            ("scheme.steps", "steps", 2.5), ("grid.nx", "nx", "16"),
            ("scheme.max_outer", "max_outer", 2.5)):
        with pytest.raises(ConfigError, match=rf"^{key} must be "):
            SimConfig(**{attr: value}).validate()
    # eps = 0 is the incompressible reference.
    SimConfig(eps=0.0).validate()


def test_validate_species_tol_floor_scales_with_tau_and_domain():
    # The floor is 4 eps sqrt(|domain|) / tau: 8.9e-13 at tau = 1e-3 on
    # the unit interval, four times that on a 4 x 4 square.
    SimConfig(species_tol=1e-12).validate()
    SimConfig(dim=2, lx=4.0, ly=4.0, species_tol=4e-12).validate()
    SimConfig(steps=10, species_tol=1e-13).validate()
    # flow_tol has the same floor: at tau = 1e-6 (8.9e-10) the Picard
    # loop stalls near 1.4e-10 above the default 1e-10; at tau = 1e-5
    # (8.9e-11) it converges.
    small_tau = dict(dim=2, nx=16, ny=16, steps=3, species_tol=1e-8)
    with pytest.raises(ConfigError, match="scheme.flow_tol must be"):
        SimConfig(t_final=3e-6, **small_tau).validate()
    SimConfig(t_final=3e-5, **small_tau).validate()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_configs_validate(path):
    load_config(path)


def test_build_mixture_places_upper_triangle():
    cfg = SimConfig(species=3, molar_masses=(1.0, 2.0, 3.0),
                    diffusivities=(0.5, 0.7, 0.3))
    spec = cfg.build_mixture()
    d = spec.diffusivities
    assert d[0, 1] == d[1, 0] == 0.5
    assert d[0, 2] == d[2, 0] == 0.7
    assert d[1, 2] == d[2, 1] == 0.3
    assert np.all(np.diag(d) == 0.0)


# -- initial presets --------------------------------------------------


def test_uniform_preset():
    cfg = SimConfig(dim=1, nx=8, preset="uniform", species=2)
    grid = cfg.build_grid()
    flow, rho = initial_conditions(cfg, grid, cfg.build_mixture())
    assert np.all(rho == 0.5)
    assert np.all(flow.u == 0.0) and np.all(flow.p == 0.0)


def test_cosine_binary_preset_closure_and_errors():
    cfg = SimConfig(dim=1, nx=16, preset="cosine-binary", amplitude=0.2)
    grid = cfg.build_grid()
    _, rho = initial_conditions(cfg, grid, cfg.build_mixture())
    np.testing.assert_allclose(rho.sum(axis=0), 1.0, rtol=0, atol=1e-15)
    assert rho.min() > 0.0 and rho.max() < 1.0
    with pytest.raises(ValueError, match="amplitude too large"):
        bad = SimConfig(dim=1, nx=16, preset="cosine-binary", amplitude=0.7)
        initial_conditions(bad, grid, bad.build_mixture())
    with pytest.raises(ValueError, match="needs 2 species"):
        tern = SimConfig(dim=1, nx=16, preset="cosine-binary", species=3,
                         molar_masses=(1.0, 1.0, 1.0),
                         diffusivities=(1.0, 1.0, 1.0))
        initial_conditions(tern, grid, tern.build_mixture())


def test_layered_ternary_preset_mass_weighting():
    cfg = SimConfig(dim=1, nx=16, preset="layered-ternary", species=3,
                    molar_masses=(2.0, 3.0, 1.5),
                    diffusivities=(0.5, 0.7, 0.3), amplitude=0.15)
    grid = cfg.build_grid()
    _, rho = initial_conditions(cfg, grid, cfg.build_mixture())
    np.testing.assert_allclose(rho.sum(axis=0), 1.0, rtol=0, atol=1e-14)
    assert rho.min() > 0.0
    # Mass fractions come from mole fractions x via rho_i ~ M_i x_i, so
    # the middle species with x = 1/2 everywhere is not spatially
    # uniform in rho unless all masses agree.
    assert np.ptp(rho[1]) > 0.0
    with pytest.raises(ValueError, match="needs 3 species"):
        initial_conditions(SimConfig(preset="layered-ternary"), grid,
                           SimConfig(preset="layered-ternary")
                           .build_mixture())


def test_vortex_preset_is_discretely_divergence_free():
    cfg = SimConfig(dim=2, nx=24, ny=24, preset="vortex-2d",
                    amplitude=0.1, velocity_amplitude=0.4)
    grid = cfg.build_grid()
    flow, rho = initial_conditions(cfg, grid, cfg.build_mixture())
    assert norm_l2(grid, div(grid, flow.u, "dirichlet")) <= 1e-13
    assert flow.u.max() > 0.0
    np.testing.assert_allclose(rho.sum(axis=0), 1.0, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="needs a 2D grid"):
        g1 = SimConfig(dim=1, nx=8).build_grid()
        initial_conditions(cfg, g1, cfg.build_mixture())


def test_unknown_preset_rejected():
    cfg = SimConfig(preset="swirl")
    with pytest.raises(ValueError, match="unknown initial preset"):
        initial_conditions(cfg, cfg.build_grid(), cfg.build_mixture())


# -- time loop --------------------------------------------------------


@pytest.fixture(scope="module")
def small_2d_config():
    return SimConfig(dim=2, nx=12, ny=12, t_final=3e-3, steps=3, eps=1e-2,
                     preset="vortex-2d", amplitude=0.1,
                     velocity_amplitude=0.3, forcing_preset="constant",
                     fx=0.2, fy=-0.1)


def test_run_simulation_shapes_and_history(small_2d_config):
    res = run_simulation(small_2d_config, keep_history=True)
    assert len(res.ledger.rows) == small_2d_config.steps + 1
    assert res.rho.shape == (1, 12, 12)
    assert res.w.shape == (1, 12, 12)
    assert res.flow.u.shape == (2, 12, 12)
    assert len(res.history["u"]) == small_2d_config.steps
    assert len(res.history["rho"]) == small_2d_config.steps
    for row in res.ledger.rows[1:]:
        assert row["flow_residual"] <= small_2d_config.flow_tol
        assert row["species_residual"] <= small_2d_config.species_tol


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_extrapolation_is_exact_for_polynomials_of_its_order(order):
    rng = np.random.default_rng(order)
    coeffs = rng.standard_normal((order + 1, 3))
    states = [sum(c * t ** j for j, c in enumerate(coeffs))
              for t in range(order + 2)]
    np.testing.assert_allclose(driver.extrapolate(states[:-1]), states[-1],
                               rtol=1e-12, atol=1e-12)


def test_extrapolated_start_saves_passes(monkeypatch):
    cfg = load_config(CONFIGS / "standard-2d.cfg", [
        "grid.nx=32", "grid.ny=32", "scheme.steps=20",
        "scheme.t_final=0.02"])
    warm = run_simulation(cfg).ledger.rows[1:]
    monkeypatch.setattr(driver, "EXTRAPOLATION_ORDER", 0)
    cold = run_simulation(cfg).ledger.rows[1:]
    for key in ("flow_guess", "species_guess"):
        assert sum(r[key] for r in cold) == 0
        assert sum(r[key] for r in warm) > 0
    for key in ("flow_iters", "species_iters"):
        assert sum(r[key] for r in warm) < sum(r[key] for r in cold)
    for row in warm:
        assert row["flow_residual"] <= cfg.flow_tol
        assert row["species_residual"] <= cfg.species_tol


def test_run_simulation_zero_steps():
    cfg = SimConfig(dim=1, nx=8, steps=0)
    res = run_simulation(cfg)
    assert len(res.ledger.rows) == 1
    assert res.history is None


def test_reference_1d_keeps_velocity_zero():
    # On an even grid the only velocity with zero central divergence is
    # zero.  Unforced, the steps never move it; a constant force moves
    # the pressure and leaves the velocity at the transforms' rounding
    # (5.4e-20), where 25 cells leave a checkerboard of 7.9e-6.
    cfg = SimConfig(dim=1, nx=24, t_final=4e-3, steps=4,
                    preset="cosine-binary", amplitude=0.15)
    ref = reference_incompressible(cfg, keep_history=True)
    for u in ref.history["u"]:
        assert np.all(u == 0.0)
    for row in ref.ledger.rows:
        assert row["div_u_l2"] == 0.0
    cfg.forcing_preset, cfg.fx = "constant", 0.5
    ref = reference_incompressible(cfg, keep_history=True)
    assert max(np.abs(u).max() for u in ref.history["u"]) <= 1e-15
    assert max(row["div_u_l2"] for row in ref.ledger.rows) <= 1e-15


def test_reference_2d_divergence_free_to_roundoff(small_2d_config):
    ref = reference_incompressible(small_2d_config, keep_history=True)
    for row in ref.ledger.rows[1:]:
        assert row["div_u_l2"] <= 1e-10
    assert any(np.abs(u).max() > 0 for u in ref.history["u"])


def test_reference_is_the_run_at_eps_zero():
    cfg = load_config(CONFIGS / "standard-2d.cfg", [
        "grid.nx=16", "grid.ny=16", "scheme.steps=5", "scheme.t_final=5e-3"])
    rows = run_simulation(replace(cfg, eps=0.0)).ledger.rows
    assert rows == reference_incompressible(cfg).ledger.rows
    assert max(r["div_u_l2"] for r in rows) <= 1e-12


def test_reference_divergence_is_at_roundoff():
    # The correction form keeps the LU's rounding out of the constraint:
    # the largest div_u_l2 is 7.9e-16 here, where passes that solve for
    # (u, p) afresh leave 2.3e-13.
    cfg = load_config(CONFIGS / "standard-2d.cfg", [
        "grid.nx=32", "grid.ny=32", "scheme.steps=10",
        "scheme.t_final=0.01"])
    ref = reference_incompressible(cfg)
    assert max(r["div_u_l2"] for r in ref.ledger.rows[1:]) <= 1e-14


def test_reference_run_without_stall_factors_nothing(monkeypatch):
    # The lagged passes invert the saddle matrix by transforms; only a
    # stalled pass would factor its frozen-advection LU.
    calls = []
    orig = flow_mod.spla.splu

    def recording_splu(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(flow_mod.spla, "splu", recording_splu)
    cfg = load_config(CONFIGS / "standard-2d.cfg", [
        "grid.nx=16", "grid.ny=16", "scheme.steps=5", "scheme.t_final=5e-3"])
    ref = reference_incompressible(cfg)
    rows = ref.ledger.rows[1:]
    assert all(r["flow_iters"] > 0 and r["flow_refactors"] == 0
               for r in rows)
    assert max(r["div_u_l2"] for r in rows) <= 1e-14
    assert calls == []


def test_one_step_couples_the_species_to_the_new_velocity():
    # From rest under a bump force, the flow step makes the only
    # velocity the species step sees.  The mixing entropy's control
    # term, the pairing of div u with log x_N, and the advective
    # entropy flux must then be positive and agree: measured 1.07e-10
    # each, 4.5e-17 apart.  With the velocity from before the flow step
    # both are exactly 0; with the species advection's sign flipped the
    # control term is -1.5e-11 and the flux 6.9e-13.
    cfg = load_config(CONFIGS / "standard-2d.cfg", [
        "grid.nx=16", "grid.ny=16", "scheme.steps=1", "scheme.t_final=1e-3",
        "init.velocity_amplitude=0", "forcing.preset=constant",
        "forcing.spatial=bump"])
    row = run_simulation(cfg).ledger.rows[1]
    control, flux = row["control_term"], row["advective_flux"]
    assert control >= 5e-11 and flux >= 5e-11
    assert abs(control - flux) <= 1e-4 * control


def test_mixture_sees_component_first_fields(monkeypatch):
    # The species step hands the mixture algebra its fields as stored,
    # one component after the other, with no conversion in between.
    seen = []

    def recording(routine):
        def wrapped(field, spec):
            seen.append((routine.__name__, np.shape(field)))
            return routine(field, spec)
        return wrapped

    for name in ("densities_from_entropy", "mobility_matrix",
                 "density_jacobian"):
        monkeypatch.setattr(mixture, name, recording(getattr(mixture, name)))
    cfg = load_config(CONFIGS / "standard-2d.cfg", [
        "grid.nx=16", "grid.ny=16", "scheme.steps=3", "scheme.t_final=3e-3"])
    res = run_simulation(cfg)
    assert {name for name, _ in seen} == {
        "densities_from_entropy", "mobility_matrix", "density_jacobian"}
    expected = (res.spec.n_reduced,) + res.grid.shape
    assert all(shape == expected for _, shape in seen), set(seen)


def test_flow_residual_floor_of_the_first_step():
    # The smallest residual that 40 passes reach on step 1 of
    # standard-2d at 16^2: 5.1e-14 in correction form, where passes
    # that solve for the iterate afresh stall at 3.2e-13.
    cfg = load_config(CONFIGS / "standard-2d.cfg",
                      ["grid.nx=16", "grid.ny=16"])
    grid, spec = cfg.build_grid(), cfg.build_mixture()
    state, _ = initial_conditions(cfg, grid, spec)
    forcing = Forcing(cfg.forcing_preset, (cfg.fx, cfg.fy),
                      cfg.forcing_spatial, cfg.omega)
    system = FlowSystem(grid, FlowParams(tau=cfg.tau, eps=cfg.eps,
                                         tol=1e-16, max_picard=40))
    with pytest.raises(FlowSolverError) as err:
        flow_step(system, state, average_force(forcing, grid, 1, cfg.tau))
    assert min(err.value.residuals) <= 1.5e-13


def test_sweep_requires_two_values(small_2d_config, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the eps list is checked before any run")

    monkeypatch.setattr(driver, "_run", no_run)
    for eps in ([1e-2], [np.nan, 1e-2], [0.0, 1e-2], [1e-1, np.inf],
                [1e-2, 1e-2]):
        with pytest.raises(ConfigError, match="at least two eps"):
            sweep_epsilon(small_2d_config, eps)


def test_sweep_mini_monotone(small_2d_config):
    res = sweep_epsilon(small_2d_config, [1e-1, 1e-3], strict=True)
    assert [r.eps for r in res.rows] == [1e-1, 1e-3]
    assert res.monotone_div and res.monotone_u
    assert res.rows[0].div_norm > res.rows[1].div_norm
    assert res.div_ratio > 1.0
    table = res.table()
    assert table.startswith("eps,div_norm,u_diff,rho_diff\n")
    assert len(table.strip().split("\n")) == 3


def test_asymmetric_ternary_develops_uphill_flux():
    """Cross-coupling drives a species against its own gradient.

    When one pair diffusivity is much smaller than the other two, the
    species whose composition starts nearly flat is dragged along by
    the opposing gradients of its partners, so somewhere its diffusive
    flux points up its own density gradient.  A diagonal Fickian
    closure can never produce a positive flux-gradient product, so
    this is a direct signature of the coupled mobility matrix.
    """
    cfg = SimConfig(dim=1, nx=48, t_final=2e-2, steps=20,
                    preset="layered-ternary", species=3,
                    molar_masses=(2.0, 3.0, 1.5),
                    diffusivities=(0.1, 1.0, 1.0), amplitude=0.15)
    res = run_simulation(cfg, keep_history=True)
    grid, spec = res.grid, res.spec
    dn = deriv_matrix(grid, 0, "neumann")
    best = -np.inf
    for rho in res.history["rho"]:
        pts = np.moveaxis(rho, 0, -1).reshape(-1, 2)
        w = np.moveaxis(entropy_vars(rho, spec), 0, -1).reshape(-1, 2)
        mob = np.moveaxis(mobility_matrix(rho, spec), -1, 0).reshape(-1, 2, 2)
        grad_w = np.stack([dn @ w[:, j] for j in range(2)], axis=-1)
        flux = -np.einsum("cij,cj->ci", mob, grad_w)
        grad_rho = dn @ pts[:, 1]
        best = max(best, float((flux[:, 1] * grad_rho).max()))
    # Measured peak is about 1.7e-2; anything clearly positive would
    # do, the margin just guards against roundoff-level artifacts.
    assert best > 1e-3


# -- CLI --------------------------------------------------------------


def _overrides(pairs):
    out = []
    for key, value in pairs:
        out.extend(["--set", f"{key}={value}"])
    return out


def test_cli_run_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = cli.main(["run"] + _overrides([
        ("grid.dim", 1), ("grid.nx", 16),
        ("scheme.t_final", "2e-3"), ("scheme.steps", 2),
        ("init.preset", "cosine-binary"), ("init.amplitude", "0.1"),
        ("output.dir", str(out_dir)), ("output.snapshot_every", 1),
    ]))
    assert rc == 0
    text = capsys.readouterr().out
    assert "steps completed: 2" in text
    assert (out_dir / "ledger.csv").is_file()
    for name in ("u_000001.txt", "p_000001.txt", "rho_000002.txt"):
        assert (out_dir / name).is_file()


def test_cli_run_verbose_prints_one_line_per_step(tmp_path, capsys):
    args = ["run"] + _overrides([
        ("grid.dim", 2), ("grid.nx", 8), ("grid.ny", 8),
        ("scheme.t_final", "3e-3"), ("scheme.steps", 3),
        ("init.preset", "vortex-2d"), ("output.dir", str(tmp_path)),
    ])
    assert cli.main(args) == 0
    quiet = capsys.readouterr().out
    assert cli.main(args + ["-v"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "\n".join(lines[4:]) + "\n" == quiet
    # One line names the flow inverse the run built, then one per step.
    assert re.fullmatch(r"flow inverse: sine/cosine transforms with a 32-cell "
                        r"capacitance matrix, setup \d+\.\d{3} s", lines[0])
    for k, line in enumerate(lines[1:4], start=1):
        assert line.startswith(f"step {k}: flow_iters ")
        for key in ("flow_refactors", "species_iters", "cg_iters",
                    "flow_guess", "species_guess"):
            assert f" {key} " in line
    assert "flow_guess 1 species_guess 1" in lines[3]


def test_cli_run_prints_the_worst_step_entropy_slack(tmp_path, capsys):
    # Row 0, the initial state, has slack 0; the printed maximum is
    # over the steps, whose slacks are all negative here.
    rc = cli.main(["run", str(CONFIGS / "entropy-binary-1d.cfg")]
                  + _overrides([("scheme.steps", 4),
                                ("scheme.t_final", "4e-3"),
                                ("output.dir", str(tmp_path))]))
    assert rc == 0
    out = capsys.readouterr().out
    with open(tmp_path / "ledger.csv") as fh:
        rows = list(csv.DictReader(fh))
    worst = max(float(r["entropy_slack"]) for r in rows[1:])
    assert len(rows) == 5 and worst < 0.0
    assert f"max entropy slack {worst:+.3e}\n" in out
    # No step: one line, with no residual and no slack.
    rc = cli.main(["run"] + _overrides([("scheme.steps", 0),
                                        ("output.dir", str(tmp_path))]))
    assert rc == 0
    assert ("max energy-identity residual 0.000e+00  "
            "max entropy slack +0.000e+00\n") in capsys.readouterr().out


def test_cli_run_fails_on_a_broken_energy_identity(tmp_path, monkeypatch,
                                                   capsys):
    # The advective half of the skew form alone is not skew-adjoint, so
    # the energy identity misses (measured: 2.6e-7, 26 times the limit).
    # The telescoped energy bound absorbs that; the per-step rule must
    # fail the run.
    def advective_half(grid, u, v, bc):
        return 0.5 * np.stack([sum(u[a] * derivative(grid, comp, a, bc)
                                   for a in range(grid.dim))
                               for comp in v])

    monkeypatch.setattr(flow_mod, "skew_advect", advective_half)
    rc = cli.main(["run", str(CONFIGS / "standard-2d.cfg")] + _overrides([
        ("grid.nx", 16), ("grid.ny", 16), ("scheme.steps", 5),
        ("scheme.t_final", "5e-3"), ("output.dir", str(tmp_path)),
    ]))
    out = capsys.readouterr().out
    assert rc == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL per-step energy identity (max residual ")
    assert "first failing step: 1\n" in out
    assert (tmp_path / "ledger.csv").is_file()


def test_cli_check_passes_on_defaults(capsys):
    rc = cli.main(["check"] + _overrides([
        ("grid.nx", 16), ("scheme.steps", 4), ("scheme.t_final", "4e-3"),
    ]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 failure(s)" in out
    assert "FAIL" not in out


def test_cli_check_passes_on_standard_config(capsys):
    # Unlike the defaults, this run has flow and a nonuniform mixture,
    # so the entropy slack and the refinement residuals are nonzero.
    rc = cli.main(["check", str(CONFIGS / "standard-2d.cfg")] + _overrides([
        ("grid.nx", 16), ("grid.ny", 16),
    ]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 failure(s)" in out
    assert "FAIL" not in out
    assert "worst slack -" in out


def test_cli_check_fails_on_degenerate_refinement(monkeypatch, capsys):
    # Residuals at roundoff mean the test field never exercised the
    # identity; an order read off them (here exactly 2) means nothing.
    noise = iter([4e-17, 1e-17])
    monkeypatch.setattr(cli, "divergence_identity_residual",
                        lambda *args: next(noise))
    rc = cli.main(["check"] + _overrides([
        ("grid.nx", 16), ("scheme.steps", 2), ("scheme.t_final", "2e-3"),
    ]))
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL divergence identity refinement" in out
    assert "1 failure(s)" in out


def test_cli_check_fails_on_non_skew_advection(monkeypatch, capsys):
    # A wrong ghost rule on the conservative part of the velocity
    # advection breaks its skew-adjointness; the check must see it.
    monkeypatch.setitem(_ADJOINT_BC, "dirichlet", "dirichlet")
    rc = cli.main(["check"] + _overrides([
        ("grid.nx", 16), ("scheme.steps", 2), ("scheme.t_final", "2e-3"),
    ]))
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL advection form skew identities" in out
    assert "1 failure(s)" in out


def test_cli_check_fails_on_penalized_reference(monkeypatch, capsys):
    # A penalty 1e-7 p in the constraint residual that ``correct``
    # stacks at eps = 0 only: the transform inverse then drives D u to
    # -1e-7 p instead of 0, and the reference check must see it.  The
    # energy identity still holds to 4e-10, so only the divergence bound
    # can fail.
    correct = FlowSystem.correct

    def penalized(self, solve, u, p, r, p_prev):
        if self.params.eps > 0:
            return correct(self, solve, u, p, r, p_prev)
        c = (div(self.grid, u) + 1e-7 * p).reshape(-1)
        du, dp = np.split(solve(np.concatenate([r.reshape(-1), c])),
                          [u.size])
        p = p - dp.reshape(p.shape)
        return u - du.reshape(u.shape), p - p.mean()

    monkeypatch.setattr(FlowSystem, "correct", penalized)
    rc = cli.main(["check", str(CONFIGS / "standard-2d.cfg")] + _overrides([
        ("grid.nx", 16), ("grid.ny", 16),
    ]))
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL incompressible reference divergence-free" in out
    assert "1 failure(s)" in out


def test_cli_check_exits_3_when_the_saddle_matrix_disagrees(monkeypatch,
                                                           capsys):
    # The penalty in the reference's inverse only: the transform
    # inverse, built at eps = tau, inverts the saddle matrix with an
    # identity pressure block, not the residual's operator, and the
    # frozen-advection passes precondition with it too.  The
    # corrections stop contracting and the reference step fails in one
    # line instead of accepting a wrong step.
    lagged_inverse = FlowSystem.lagged_inverse

    def penalized(self):
        if self.params.eps > 0:
            return lagged_inverse(self)
        return SpectralInverse(self.grid, self.params.tau, self.params.tau)

    monkeypatch.setattr(FlowSystem, "lagged_inverse", penalized)
    rc = cli.main(["check", str(CONFIGS / "standard-2d.cfg")] + _overrides([
        ("grid.nx", 16), ("grid.ny", 16),
    ]))
    err = capsys.readouterr().err
    assert rc == 3
    assert len(err.strip().splitlines()) == 1
    assert "stalled" in err


def test_cli_compare_ref_runs(tmp_path, capsys):
    rc = cli.main(["compare-ref"] + _overrides([
        ("grid.dim", 2), ("grid.nx", 12), ("grid.ny", 12),
        ("scheme.t_final", "2e-3"), ("scheme.steps", 2),
        ("init.preset", "vortex-2d"), ("init.velocity_amplitude", "0.3"),
        ("forcing.preset", "constant"), ("forcing.fx", "0.2"),
    ]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "relaxed   |div u|" in out
    assert "reference |div u|" in out


def test_cli_sweep_eps(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    rc = cli.main(["sweep-eps", "--eps", "1e-1,1e-3"] + _overrides([
        ("grid.dim", 2), ("grid.nx", 12), ("grid.ny", 12),
        ("scheme.t_final", "2e-3"), ("scheme.steps", 2),
        ("init.preset", "vortex-2d"), ("init.velocity_amplitude", "0.3"),
        ("forcing.preset", "constant"), ("forcing.fx", "0.2"),
        ("output.dir", str(out_dir)),
    ]))
    out = capsys.readouterr().out
    assert rc == 0
    assert (out_dir / "sweep.csv").is_file()
    assert "monotone decrease: div True  u-distance True" in out


def test_cli_rejects_unknown_key(capsys):
    rc = cli.main(["run", "--set", "grid.nz=4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "msflow: ConfigError: unknown config key 'grid.nz'\n"


@pytest.mark.parametrize("args", [
    pytest.param(["--set", override], id=override) for override in (
        "grid.nx=3", "scheme.flow_tol=0", "scheme.species_tol=-1",
        "scheme.alpha0=0.5", "forcing.preset=gusts", "init.preset=swirl",
        "forcing.spatial=blob", "scheme.max_picard=0", "scheme.max_outer=0",
        "seed=-5", "scheme.species_tol=1e-13", "forcing.fx=nan",
        "scheme.eps=nan", "scheme.lambda=inf", "mixture.molar_masses=1,inf")
] + [
    pytest.param(["--set", override], id=override) for override in (
        "output.csv=sub/l.csv", "output.csv=", "output.snapshot_every=-3",
        "grid.lx=1e-160")
] + [
    pytest.param(["--set", "forcing.preset=sin", "--set", "forcing.omega=0"],
                 id="forcing.preset=sin-omega=0"),
    pytest.param([str(CONFIGS / "standard-2d.cfg")] + [
        arg for pair in ("grid.nx=16", "grid.ny=16", "scheme.steps=3",
                         "scheme.t_final=3e-6", "scheme.species_tol=1e-8")
        for arg in ("--set", pair)], id="flow_tol-below-floor"),
    pytest.param([str(CONFIGS / "entropy-binary-1d.cfg"),
                  "--set", "init.amplitude=0.9"], id="init.amplitude=0.9"),
    pytest.param([str(CONFIGS / "missing.cfg")], id="missing-config-file"),
])
def test_cli_rejects_bad_value_in_one_line(args, capsys):
    # The gate refuses the config before any check or step: no output.
    for command in ("run", "check"):
        rc = cli.main([command, *args])
        out, err = capsys.readouterr()
        assert rc == 2, command
        assert out == "", command
        assert err.startswith("msflow: ConfigError: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["run"], ["sweep-eps", "--eps", "1e-1,1e-2"]], ids=["run", "sweep-eps"])
def test_cli_refuses_an_output_dir_it_cannot_create(command, tmp_path,
                                                    capsys, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("the output directory is made before step 1")

    monkeypatch.setattr(driver, "flow_step", no_step)
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = cli.main([*command, "--set", f"output.dir={blocker / 'x'}"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("msflow: ConfigError: output.dir ")
    assert err.count("\n") == 1


def test_cli_run_converges_at_small_eps(tmp_path):
    # The flow step keeps the pressure as an unknown, so its residual
    # has no rounding floor that grows like tau/eps: at eps = 1e-7 every
    # step converges to flow_tol.  Measured: 5 passes a step, the
    # largest final residual 3.8e-11.
    rc = cli.main(["run", str(CONFIGS / "standard-2d.cfg")] + _overrides([
        ("scheme.eps", "1e-7"), ("scheme.steps", 5),
        ("scheme.t_final", "5e-3"), ("output.dir", str(tmp_path)),
    ]))
    assert rc == 0
    with open(tmp_path / "ledger.csv") as fh:
        rows = list(csv.DictReader(fh))[1:]
    assert len(rows) == 5
    assert max(float(r["flow_residual"]) for r in rows) <= 1e-10


def test_cli_reports_solver_failure_in_one_line(tmp_path, capsys):
    rc = cli.main(["run"] + _overrides([
        ("grid.nx", 16), ("scheme.t_final", "2e-3"), ("scheme.steps", 2),
        ("init.preset", "cosine-binary"), ("scheme.max_outer", 1),
        ("output.dir", str(tmp_path)),
    ]))
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("msflow: SpeciesSolverError: outer iteration")
    assert err.count("\n") == 1


def test_cli_reports_a_failed_line_search_in_one_line(tmp_path, capsys):
    # A strong vortex at alpha0 = 1e-10 sends every outer pass's full
    # update outside the admissible set: its densities do not invert,
    # so the line search halves.  Measured: 20 passes of step 1 each
    # take 2 to 38 halvings, then 40 find no admissible candidate.
    rc = cli.main(["run", str(CONFIGS / "standard-2d.cfg")] + _overrides([
        ("grid.nx", 16), ("grid.ny", 16), ("init.amplitude", "0.5"),
        ("scheme.alpha0", "1e-10"), ("init.velocity_amplitude", 15),
        ("scheme.t_final", "0.05"), ("scheme.steps", 5),
        ("forcing.preset", "zero"), ("output.dir", str(tmp_path)),
    ]))
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("msflow: SpeciesSolverError: damping failed")
    assert err.endswith(" (step 1)\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("eps", ["abc", "1e-2", "nan,1e-2", "1e-1,inf",
                                 "0,1e-2", "1e-2,1e-2"])
def test_cli_sweep_eps_rejects_bad_list_in_one_line(eps, capsys):
    rc = cli.main(["sweep-eps", "--eps", eps])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("msflow: ConfigError: ")
    assert err.count("\n") == 1


def test_solver_failure_keeps_ledger_up_to_last_step(tmp_path, monkeypatch):
    real_step = driver.species_step
    calls = []

    def failing_step(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise SpeciesSolverError("injected failure")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(driver, "species_step", failing_step)
    cfg = SimConfig(nx=16, steps=5, t_final=5e-3, preset="cosine-binary",
                    out_dir=str(tmp_path))
    with pytest.raises(SpeciesSolverError, match="injected") as err:
        run_simulation(cfg, write_outputs=True)
    assert isinstance(err.value, SolverError)
    assert err.value.step == 3
    lines = (tmp_path / "ledger.csv").read_text().splitlines()
    steps = [row.split(",")[0] for row in lines[1:]]
    assert steps == ["0", "1", "2"]
