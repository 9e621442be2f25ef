"""Ledger, display-floor counter, Poincare constant, global bounds."""

import copy
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import msflow.flow as flow_mod
import msflow.grid as grid_mod
from msflow.config import SimConfig, load_config
from msflow.diagnostics import DISPLAY_FLOOR, SimLedger, poincare_constant
from msflow.driver import run_simulation
from msflow.flow import FlowState, FlowStepReport
from msflow.grid import Grid, laplacian
from msflow.mixture import MixtureSpec
from msflow.species import SpeciesStepReport

from conftest import laplacian_matrix


def make_binary_spec() -> MixtureSpec:
    return MixtureSpec(np.array([2.0, 1.0]),
                       np.array([[0.0, 0.5], [0.5, 0.0]]))


def dirichlet_eigen_min(n: int, length: float) -> float:
    """Smallest eigenvalue of the cell-centered Dirichlet Laplacian.

    With odd-reflection ghosts the eigenvectors on cell centers are
    sin(k pi (j + 1/2) / n), giving (4/h^2) sin^2(k pi / (2n)).
    """
    h = length / n
    return 4.0 / (h * h) * np.sin(np.pi / (2.0 * n)) ** 2


# -- Poincare constant ------------------------------------------------


def test_poincare_matches_closed_form_1d():
    grid = Grid.box((16,), (1.0,))
    expected = 1.0 / np.sqrt(dirichlet_eigen_min(16, 1.0))
    got = poincare_constant(grid)
    assert abs(got - expected) <= 1e-9 * expected


def test_poincare_matches_closed_form_2d_anisotropic():
    grid = Grid.box((8, 12), (1.0, 2.0))
    mu = dirichlet_eigen_min(8, 1.0) + dirichlet_eigen_min(12, 2.0)
    expected = 1.0 / np.sqrt(mu)
    got = poincare_constant(grid)
    assert abs(got - expected) <= 1e-9 * expected


def test_poincare_matches_dense_eigensolver():
    grid = Grid.box((10,), (1.0,))
    a = (-laplacian_matrix(grid, "dirichlet")).toarray()
    mu_min = float(scipy.linalg.eigvalsh(a)[0])
    expected = 1.0 / np.sqrt(mu_min)
    got = poincare_constant(grid)
    assert abs(got - expected) <= 1e-9 * expected


def test_poincare_approaches_continuum_value():
    # h / (2 sin(pi h / 2)) -> 1/pi with an O(h^2) defect.
    got = poincare_constant(Grid.box((64,), (1.0,)))
    assert abs(got - 1.0 / np.pi) <= 2e-4 / np.pi


# -- display floor ----------------------------------------------------


def test_display_floor_counts_only_real_clamps():
    grid = Grid.box((4,), (1.0,))
    led = SimLedger(grid, make_binary_spec(), tau=1e-3, eps=1e-2,
                    lam=0.0, flow_tol=1e-10, species_tol=1e-10)
    assert led._display_floor(0.5) == 0.5
    assert led.clamp_events == 0
    assert led._display_floor(DISPLAY_FLOOR) == DISPLAY_FLOOR
    assert led.clamp_events == 0
    assert led._display_floor(0.5 * DISPLAY_FLOOR) == DISPLAY_FLOOR
    assert led.clamp_events == 1
    assert led._display_floor(-1.0) == DISPLAY_FLOOR
    assert led.clamp_events == 2


def test_recording_a_density_below_the_floor_counts_a_clamp():
    grid = Grid.box((8,), (1.0,))
    led = SimLedger(grid, make_binary_spec(), tau=1e-3, eps=1e-2,
                    lam=0.0, flow_tol=1e-10, species_tol=1e-10)
    rho = np.full((1,) + grid.shape, 0.5)
    rho[0, 3] = 0.5 * DISPLAY_FLOOR
    led.record_initial(FlowState.zero(grid), rho)
    assert led.clamp_events >= 1
    assert led.rows[0]["min_density"] == DISPLAY_FLOOR


# -- recording and CSV ------------------------------------------------


def test_record_initial_uniform_binary_values():
    grid = Grid.box((8,), (1.0,))
    spec = make_binary_spec()
    led = SimLedger(grid, spec, tau=1e-3, eps=1e-2, lam=0.0, flow_tol=1e-10,
                    species_tol=1e-10)
    rho = np.full((1,) + grid.shape, 0.5)
    led.record_initial(FlowState.zero(grid), rho)
    row = led.rows[0]
    assert set(led.columns()) <= set(row)
    assert row["step"] == 0 and row["time"] == 0.0
    assert row["energy"] == 0.0 and row["pressure_energy"] == 0.0
    # rho = (1/2, 1/2), masses (2, 1): molar density 3/4, fractions
    # (1/3, 2/3), so the mixing entropy integrates to
    # 0.75 * ((1/3) ln(1/3) + (2/3) ln(2/3)) on the unit interval.
    expected = 0.75 * ((np.log(1.0 / 3.0) / 3.0)
                       + 2.0 * np.log(2.0 / 3.0) / 3.0)
    assert abs(row["entropy"] - expected) <= 1e-14
    assert abs(row["mass_1"] - 0.5) <= 1e-15
    assert abs(row["mass_2"] - 0.5) <= 1e-15
    assert row["min_density"] == 0.5
    assert row["closure_defect"] == 0.0
    assert led.clamp_events == 0


def test_row_does_not_depend_on_the_memory_layout(ternary_spec):
    # A sum that follows the storage order adds the cells of a Fortran-
    # ordered field in another order and moves the masses by ulps.
    grid = Grid.box((16, 12), (1.0, 1.5))
    rho = 0.2 + 0.1 * np.random.default_rng(5).random((2,) + grid.shape)
    rows = []
    for field in (rho, np.asfortranarray(rho)):
        led = SimLedger(grid, ternary_spec, tau=1e-3, eps=1e-2, lam=0.0,
                        flow_tol=1e-10, species_tol=1e-10)
        led.record_step(1, FlowState.zero(grid), FlowStepReport(),
                        np.zeros((2,) + grid.shape), field,
                        SpeciesStepReport())
        rows.append(led.rows[0])
    assert rows[0] == rows[1]


@pytest.fixture(scope="module")
def mini_1d_config():
    return SimConfig(dim=1, nx=16, t_final=3e-3, steps=3,
                     preset="cosine-binary", amplitude=0.1,
                     molar_masses=(2.0, 1.0), diffusivities=(0.5,),
                     species=2)


@pytest.fixture(scope="module")
def mini_1d_result(mini_1d_config):
    return run_simulation(mini_1d_config)


@pytest.fixture(scope="module")
def mini_2d_result():
    config = SimConfig(dim=2, nx=12, ny=12, t_final=2e-3, steps=2,
                       eps=1e-2, preset="vortex-2d", amplitude=0.1,
                       velocity_amplitude=0.3, forcing_preset="constant",
                       fx=0.2, fy=-0.1)
    return run_simulation(config)


def test_ledger_row_count_and_header(mini_1d_config, mini_1d_result):
    led = mini_1d_result.ledger
    assert len(led.rows) == mini_1d_config.steps + 1
    cols = led.columns()
    assert cols[0] == "step"
    assert "mass_1" in cols and "mass_2" in cols and "mass_3" not in cols
    for row in led.rows:
        for c in cols:
            assert c in row


def test_csv_bytes_identical_across_runs(tmp_path, mini_1d_config,
                                         mini_1d_result):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    mini_1d_result.ledger.write_csv(first)
    run_simulation(mini_1d_config).ledger.write_csv(second)
    data = first.read_bytes()
    assert data == second.read_bytes()
    lines = data.decode().strip().split("\n")
    header = lines[0].split(",")
    assert header == mini_1d_result.ledger.columns()
    assert len(lines) == mini_1d_config.steps + 2
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)


def test_csv_values_round_trip_exactly(tmp_path, mini_1d_result):
    path = tmp_path / "ledger.csv"
    led = mini_1d_result.ledger
    led.write_csv(path)
    lines = path.read_text().strip().split("\n")
    cols = led.columns()
    parsed = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    for row, text_row in zip(led.rows, parsed):
        assert float(text_row["entropy"]) == row["entropy"]
        assert float(text_row["energy"]) == row["energy"]
        assert int(text_row["step"]) == row["step"]


# The ledger headers of the shipped binary and ternary configs, copied
# from their ledger.csv files.  The column order is part of the output
# format, so it is spelled out here rather than taken from
# ``SimLedger.columns``, which reads it off the recorded rows.
_BINARY_HEADER = (
    "step,time,energy,pressure_energy,visc_dissipation,entropy,"
    "w_dissipation,grad_sqrt_x_sq,div_u_l2,mass_1,mass_2,"
    "min_density,closure_defect,energy_residual,"
    "pressure_eq_residual,entropy_slack,control_term,"
    "advective_flux,lambda_h2_sq,f_l2_sq,flow_iters,species_iters,"
    "cg_iters,flow_refactors,flow_guess,species_guess,"
    "flow_residual,species_residual,cum_visc_dissipation,"
    "cum_grad_sqrt_x"
)
_TERNARY_HEADER = (
    "step,time,energy,pressure_energy,visc_dissipation,entropy,"
    "w_dissipation,grad_sqrt_x_sq,div_u_l2,mass_1,mass_2,mass_3,"
    "min_density,closure_defect,energy_residual,"
    "pressure_eq_residual,entropy_slack,control_term,"
    "advective_flux,lambda_h2_sq,f_l2_sq,flow_iters,species_iters,"
    "cg_iters,flow_refactors,flow_guess,species_guess,"
    "flow_residual,species_residual,cum_visc_dissipation,"
    "cum_grad_sqrt_x"
)


def test_csv_header_is_the_fixed_schema(tmp_path, mini_1d_result):
    ternary = run_simulation(SimConfig(
        species=3, molar_masses=(2.0, 3.0, 1.5),
        diffusivities=(0.5, 0.7, 0.3), nx=16, t_final=1e-3, steps=1,
        preset="layered-ternary", amplitude=0.15))
    for result, expected, n_cols in ((mini_1d_result, _BINARY_HEADER, 30),
                                     (ternary, _TERNARY_HEADER, 31)):
        path = tmp_path / "ledger.csv"
        result.ledger.write_csv(path)
        header = path.read_text().split("\n", 1)[0]
        assert header == expected
        assert len(header.split(",")) == n_cols


def test_empty_ledger_has_no_columns():
    led = SimLedger(Grid.box((4,), (1.0,)), make_binary_spec(), tau=1e-3,
                    eps=1e-2, lam=0.0, flow_tol=1e-10, species_tol=1e-10)
    with pytest.raises(ValueError, match="ledger is empty"):
        led.columns()


def test_cumulative_columns_telescope(mini_2d_result):
    rows = mini_2d_result.ledger.rows
    visc = 0.0
    gsq = 0.0
    tau = mini_2d_result.config.tau
    for row in rows[1:]:
        visc += 0.5 * row["visc_dissipation"]
        gsq += tau * row["grad_sqrt_x_sq"]
        assert row["cum_visc_dissipation"] == visc
        assert abs(row["cum_grad_sqrt_x"] - gsq) <= 1e-15 * max(1.0, gsq)
    assert rows[-1]["visc_dissipation"] > 0.0


# -- global bounds ----------------------------------------------------


def test_global_bounds_empty_ledger_raises():
    grid = Grid.box((4,), (1.0,))
    led = SimLedger(grid, make_binary_spec(), tau=1e-3, eps=1e-2,
                    lam=0.0, flow_tol=1e-10, species_tol=1e-10)
    with pytest.raises(ValueError):
        led.check_global_bounds()


def test_global_bounds_hold_on_mini_runs(mini_1d_result, mini_2d_result):
    for result in (mini_1d_result, mini_2d_result):
        report = result.ledger.check_global_bounds()
        assert report.ok and report.energy_ok and report.entropy_ok
        assert report.energy_margin > 0.0
        assert report.entropy_margin > 0.0
        assert report.first_violation is None
        assert report.poincare_constant > 0.0
        assert result.ledger.clamp_events == 0


def test_global_energy_bound_fires_at_the_raised_step(mini_2d_result):
    led = copy.deepcopy(mini_2d_result.ledger)
    assert len(led.rows) == 3
    led.rows[1]["energy"] += 1.0
    report = led.check_global_bounds()
    assert not report.ok
    assert not report.energy_ok and report.entropy_ok
    assert report.energy_margin < 0.0
    assert report.first_violation == 1


def test_global_entropy_bound_fires_at_the_raised_step(mini_2d_result):
    # The slack of one step is 100 tol (1e-8) plus its recorded balance
    # slack, so an entropy gain of 1e-5 cannot hide in it.
    led = copy.deepcopy(mini_2d_result.ledger)
    assert len(led.rows) == 3
    led.rows[1]["entropy"] += 1e-5
    report = led.check_global_bounds()
    assert not report.ok
    assert not report.entropy_ok and report.energy_ok
    assert report.entropy_margin < 0.0
    assert report.first_violation == 1


def test_entropy_check_fires_on_a_step_that_raises_entropy(mini_2d_result):
    # The telescoped slack absorbs a positive entropy_slack, so a solver
    # that raises the entropy is caught by the per-step gate
    # entropy_slack <= 100 species_tol.
    led = copy.deepcopy(mini_2d_result.ledger)
    assert len(led.rows) == 3
    led.rows[2]["entropy_slack"] = 101.0 * led.species_tol
    report = led.check_global_bounds()
    assert not report.ok
    assert not report.entropy_ok and report.energy_ok
    assert report.entropy_margin < 0.0
    assert report.first_violation == 2


def _failed_rules(report):
    return [label for label, ok, _ in report.rules if not ok]


def test_energy_rule_fires_on_a_step_that_breaks_the_identity(
        mini_2d_result):
    # The telescoped slack adds each step's energy_residual, so a broken
    # identity passes the global bound; the per-step rule must catch it.
    led = copy.deepcopy(mini_2d_result.ledger)
    led.rows[1]["energy_residual"] = 101.0 * led.flow_tol
    report = led.check_global_bounds()
    assert not report.ok and report.energy_ok and report.entropy_ok
    assert _failed_rules(report) == ["per-step energy identity"]
    assert report.worst_energy_residual == 101.0 * led.flow_tol
    assert report.first_violation == 1


def test_energy_rule_sees_a_laplacian_defect(monkeypatch):
    # The viscous term of the identity is grad_sq_norm, its own sum of
    # squared face differences.  Were it -<laplacian u, u>, a defect of
    # the Laplacian would cancel out of the identity (measured: 1.2e-15
    # against 2.9e-4 here).  The defect: the x walls' Dirichlet weight
    # is -2.5/h^2 in place of -3/h^2.
    def defective(grid, f, bc):
        out = laplacian(grid, f, bc)
        if bc == "dirichlet":
            out[:, [0, -1]] += 0.5 / grid.spacing[0] ** 2 * f[:, [0, -1]]
        return out

    monkeypatch.setattr(flow_mod, "laplacian", defective)
    monkeypatch.setattr(grid_mod, "laplacian", defective)
    cfg = load_config(
        Path(__file__).resolve().parent.parent / "configs/standard-2d.cfg",
        ["grid.nx=32", "grid.ny=32", "scheme.steps=10",
         "scheme.t_final=1e-2"])
    report = run_simulation(cfg).ledger.check_global_bounds()
    assert not report.ok
    assert "per-step energy identity" in _failed_rules(report)


def test_mass_rule_fires_on_a_drifted_mass(mini_2d_result):
    led = copy.deepcopy(mini_2d_result.ledger)
    led.rows[2]["mass_2"] += 2e-8
    report = led.check_global_bounds()
    assert not report.ok and report.energy_ok and report.entropy_ok
    assert _failed_rules(report) == ["species mass conservation"]
    assert report.first_violation == 2


def test_positivity_rule_fires_on_a_clamp(mini_2d_result):
    led = copy.deepcopy(mini_2d_result.ledger)
    led.clamp_events = 1
    report = led.check_global_bounds()
    assert not report.ok and report.energy_ok and report.entropy_ok
    assert _failed_rules(report) == ["density positivity without clamping"]
    assert report.first_violation is None       # rule 4 has no step


def test_energy_rules_use_flow_tol_and_entropy_rules_species_tol(
        mini_2d_result):
    src = mini_2d_result.ledger
    led = SimLedger(src.grid, src.spec, src.tau, src.eps, src.lam,
                    flow_tol=1e-8, species_tol=1e-10)
    led.rows = copy.deepcopy(src.rows)
    led.rows[1]["energy_residual"] = 5e-7       # below 100 flow_tol
    report = led.check_global_bounds()
    assert report.ok, _failed_rules(report)
    led.rows[2]["entropy_slack"] = 2e-8         # above 100 species_tol
    report = led.check_global_bounds()
    assert not report.ok and not report.entropy_ok
    assert _failed_rules(report) == ["per-step entropy inequality",
                                     "global energy and entropy bounds"]


def test_verdict_on_a_passing_run_lists_the_five_rules(mini_2d_result):
    ledger = mini_2d_result.ledger
    report = ledger.check_global_bounds()
    assert [label for label, _, _ in report.rules] == [
        "per-step energy identity", "per-step entropy inequality",
        "species mass conservation", "density positivity without clamping",
        "global energy and entropy bounds"]
    assert all(ok is True for _, ok, _ in report.rules)
    assert report.ok is report.energy_ok is report.entropy_ok is True
    steps = ledger.rows[1:]
    assert report.worst_energy_residual == max(
        r["energy_residual"] for r in steps)
    assert report.worst_entropy_slack == max(
        r["entropy_slack"] for r in steps)
    # The run hands the ledger both of its tolerances.
    ledger = run_simulation(SimConfig(steps=0, flow_tol=1e-9,
                                      species_tol=2e-10)).ledger
    assert (ledger.flow_tol, ledger.species_tol) == (1e-9, 2e-10)
