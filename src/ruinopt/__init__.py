"""Ruin-minimizing investment for an insurance surplus with market risk.

The package solves for the investment strategy that minimizes the ruin
probability of a jump-diffusion surplus: one dynamic programming solver for
capped and unrestricted investment, closed-form small- and large-surplus
behaviour, an independent ODE route for exponential claims, and a Monte
Carlo simulator for end-to-end validation.
"""

from .claims import (
    ClaimDistribution,
    from_config,
    make_exponential,
    make_half_normal,
    make_log_normal,
    make_pareto,
    make_weibull,
)
from .model import (
    ModelParams,
    Regime,
    classify_infinity_regime,
    classify_zero_regime,
    curvature_best,
    curvature_candidate,
    derive_constants,
)
from .numerics import Grid, SampledFn, convolve_tail_all
from .results import (
    HjbResidual,
    NormalizedSurvival,
    ValueGrid,
    hjb_residual,
    normalize_delta,
)
from .solve import evaluate_policy, solve_v
from .asymptotics import (
    asymptote_report,
    constrained_infinity_strategy,
    fit_tail_constant,
    no_investment_ruin_reference,
    ruin_tail_exp,
    strategy_expansion_infinity_exp,
    strategy_slope_zero,
    value_expansion_zero,
)
from .exp_ode import (
    TildeACurve,
    a_tilde_rhs,
    linear_ode_coeffs,
    reconstruct_vprime,
    solve_a_tilde,
    solve_linear_const_strategy,
)
from .mc import SimConfig, SimReport, estimate_survival, simulate_path
from .scenario import (
    BadValueError,
    Scenario,
    UnknownKeyError,
    example1_distributions,
    example1_params,
    example2_distributions,
    example2_params,
    load_scenario,
    parse_scenario,
    scenario_text,
)

__version__ = "0.1.0"

__all__ = [
    "ClaimDistribution",
    "from_config",
    "make_exponential",
    "make_half_normal",
    "make_log_normal",
    "make_pareto",
    "make_weibull",
    "ModelParams",
    "Regime",
    "classify_infinity_regime",
    "classify_zero_regime",
    "curvature_best",
    "curvature_candidate",
    "derive_constants",
    "Grid",
    "SampledFn",
    "convolve_tail_all",
    "HjbResidual",
    "NormalizedSurvival",
    "ValueGrid",
    "hjb_residual",
    "normalize_delta",
    "solve_v",
    "evaluate_policy",
    "asymptote_report",
    "constrained_infinity_strategy",
    "fit_tail_constant",
    "no_investment_ruin_reference",
    "ruin_tail_exp",
    "strategy_expansion_infinity_exp",
    "strategy_slope_zero",
    "value_expansion_zero",
    "TildeACurve",
    "a_tilde_rhs",
    "linear_ode_coeffs",
    "reconstruct_vprime",
    "solve_a_tilde",
    "solve_linear_const_strategy",
    "SimConfig",
    "SimReport",
    "estimate_survival",
    "simulate_path",
    "BadValueError",
    "Scenario",
    "UnknownKeyError",
    "example1_distributions",
    "example1_params",
    "example2_distributions",
    "example2_params",
    "load_scenario",
    "parse_scenario",
    "scenario_text",
    "__version__",
]
