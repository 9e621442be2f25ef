"""Artificial-compressibility solver for incompressible mixture flow.

The package couples a velocity/pressure stepper, in which the
incompressibility constraint is relaxed through an artificial
pressure evolution, with a cross-diffusion species stepper written in
entropy variables.  Per time step, the semidiscrete energy identity
holds up to solver tolerance, and so does the entropy inequality:
implicit Euler in entropy variables lowers the entropy by at least the
discrete dissipation, and the difference is the convexity gap of the
entropy.  The diagnostics ledger records both.
"""

__version__ = "0.1.0"

from .mixture import (
    MixtureSpec,
    MixtureDomainError,
    InversionError,
    molar_fractions,
    entropy_density,
    entropy_vars,
    densities_from_entropy,
    friction_matrix_full,
    friction_matrix_reduced,
    fraction_jacobian,
    entropy_hessian,
    mobility_matrix,
    lift_initial,
)
from .grid import Grid
from .flow import (FlowState, FlowParams, FlowSystem, flow_step, Forcing,
                   average_force)
from .species import SpeciesParams, SpeciesSystem, species_step
from .diagnostics import SimLedger
from .config import SimConfig, ConfigError
from .iteration import SolverError
from .driver import run_simulation, reference_incompressible, sweep_epsilon

__all__ = [
    "MixtureSpec", "MixtureDomainError", "InversionError",
    "molar_fractions", "entropy_density", "entropy_vars",
    "densities_from_entropy", "friction_matrix_full",
    "friction_matrix_reduced", "fraction_jacobian", "entropy_hessian",
    "mobility_matrix", "lift_initial",
    "Grid", "FlowState", "FlowParams", "FlowSystem", "flow_step",
    "Forcing", "average_force", "SpeciesParams", "SpeciesSystem",
    "species_step",
    "SimLedger", "SimConfig", "ConfigError", "SolverError", "run_simulation",
    "reference_incompressible", "sweep_epsilon",
]
