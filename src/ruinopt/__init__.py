"""Ruin-minimizing investment for an insurance surplus with market risk.

The package solves for the investment strategy that minimizes the ruin
probability of a jump-diffusion surplus: one dynamic programming solver for
capped and unrestricted investment, closed-form small- and large-surplus
behaviour, an independent ODE route for exponential claims, and a Monte
Carlo simulator for end-to-end validation.

Every name below is exported lazily (PEP 562): `import ruinopt` loads no
submodule, and the first read of a name imports the module that defines
it.  So a command line run loads only the modules its command uses, and
`import ruinopt.cli` pays for none of the solver, certificate, ODE and
Monte Carlo modules (see `ruinopt.cli`).
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name and the module that defines it, in __all__'s order
_MODULE_OF = {
    "ClaimDistribution": "claims", "from_config": "claims", "make_exponential": "claims",
    "make_half_normal": "claims", "make_log_normal": "claims", "make_pareto": "claims",
    "make_weibull": "claims",
    "ModelParams": "model", "Regime": "model", "classify_infinity_regime": "model",
    "classify_zero_regime": "model", "curvature_best": "model", "curvature_candidate": "model",
    "derive_constants": "model",
    "Grid": "numerics", "SampledFn": "numerics", "convolve_tail_all": "numerics",
    "HjbResidual": "results", "NormalizedSurvival": "results", "ValueGrid": "results",
    "hjb_residual": "results", "normalize_delta": "results",
    "solve_v": "solve", "evaluate_policy": "solve",
    "asymptote_report": "asymptotics", "constrained_infinity_strategy": "asymptotics",
    "fit_tail_constant": "asymptotics", "no_investment_ruin_reference": "asymptotics",
    "ruin_tail_exp": "asymptotics", "strategy_expansion_infinity_exp": "asymptotics",
    "strategy_slope_zero": "asymptotics", "value_expansion_zero": "asymptotics",
    "TildeACurve": "exp_ode", "a_tilde_rhs": "exp_ode", "linear_ode_coeffs": "exp_ode",
    "reconstruct_log_vprime": "exp_ode", "solve_a_tilde": "exp_ode",
    "solve_linear_const_strategy": "exp_ode",
    "SimConfig": "scenario",
    "SimReport": "mc", "estimate_survival": "mc", "simulate_path": "mc",
    "BadValueError": "scenario", "Scenario": "scenario", "UnknownKeyError": "scenario",
    "example1_distributions": "scenario", "example1_params": "scenario",
    "example2_distributions": "scenario", "example2_params": "scenario",
    "load_scenario": "scenario", "parse_scenario": "scenario", "scenario_text": "scenario",
}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
