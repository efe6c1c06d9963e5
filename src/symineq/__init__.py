"""Rearrangement calculus and numerical verification of symmetrization inequalities.

The package computes decreasing rearrangements, maximal averages, Lorentz
functionals, discrete gradient moduli and isoperimetric profile handles on
desk-scale grid corpora, and checks the chain of support-measure, oscillation
and derivative-form inequalities that connect them, reporting empirical
constants.
"""

from .measure import GridFunction, MassFunction, grid_to_mass, lp_norm, support_measure
from .rearrangement import (
    StepProfile,
    decreasing_rearrangement,
    dform_derivative,
    distribution,
    geometric_tgrid,
    layer_cake_excess,
    lorentz_norm,
    maximal_average,
    powered_profile,
)
from .gradient import (
    metric_gradient_modulus,
    polya_szego_compare,
    polya_szego_lhs,
)
from .isoperimetry import (
    ProfileHandle,
    euclidean_profile,
    indicator_mollify,
    phi_from_profile,
    validate_profile,
)
from .inequalities import (
    CHECKERS,
    check_chain_rule,
    check_derivative_p,
    check_binomial_bounds,
    check_nash,
    check_nash_classical,
    check_oneil,
    check_oscillation_p,
    check_s_phi_p,
    check_sobolev,
    empirical_best_constant,
)
from .report import CheckReport
from .corpus import CorpusSpec, cone_grid, generate_corpus, tent_grid
from .suite import SuiteConfig, emit_report, load_report, run_suite

__version__ = "0.1.0"

__all__ = [
    "CHECKERS",
    "CheckReport",
    "CorpusSpec",
    "GridFunction",
    "MassFunction",
    "ProfileHandle",
    "StepProfile",
    "SuiteConfig",
    "check_chain_rule",
    "check_derivative_p",
    "check_binomial_bounds",
    "check_nash",
    "check_nash_classical",
    "check_oneil",
    "check_oscillation_p",
    "check_s_phi_p",
    "check_sobolev",
    "cone_grid",
    "decreasing_rearrangement",
    "dform_derivative",
    "distribution",
    "emit_report",
    "empirical_best_constant",
    "euclidean_profile",
    "generate_corpus",
    "geometric_tgrid",
    "grid_to_mass",
    "indicator_mollify",
    "layer_cake_excess",
    "load_report",
    "lorentz_norm",
    "lp_norm",
    "maximal_average",
    "metric_gradient_modulus",
    "phi_from_profile",
    "polya_szego_compare",
    "polya_szego_lhs",
    "powered_profile",
    "run_suite",
    "support_measure",
    "tent_grid",
    "validate_profile",
    "__version__",
]
