"""Closed-form behaviour of the optimal strategy and ruin probability.

Three groups live here: the small-surplus expansions (the slope of the
initial investment, the value-slope parabola), the large-surplus expansions
under exponential claims (investment limit, 1/x correction, ruin tail shape
with its constant fitted on the one tail window), and the classical
no-investment ruin probability used as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DerivedConstants, ModelParams, Regime, classify_infinity_regime
from .model import derive_constants, large_surplus_series
from .results import ValueGrid, normalize_delta

__all__ = [
    "strategy_slope_zero",
    "value_expansion_zero",
    "strategy_expansion_infinity_exp",
    "ruin_tail_exp",
    "tail_log_compensated",
    "TailFit",
    "tail_window",
    "fit_tail_constant",
    "constrained_infinity_strategy",
    "no_investment_ruin_reference",
    "AsymptoteReport",
    "asymptote_report",
]


def strategy_slope_zero(constants: DerivedConstants, params: ModelParams) -> float:
    """Initial decay rate S of the unrestricted optimal investment.

    a*(x) = a*(0+) - S x + o(x), with

        S = (mu-r)(r-lam) / (sigma^2 s B),   s = B sigma_rho^2 - c_rho.

    The textbook form is S = (mu-r)/sigma^2 - [(lam-r+2 gamma)(a*(0+) +
    rho sigma1/sigma) + c_rho (mu-r)/sigma^2] / s.  With a*(0+) + rho sigma1/sigma
    = (mu-r)/(sigma^2 B) it is (mu-r)/(sigma^2 s B) [B(s - c_rho) - 2 gamma
    + r - lam], and B(s - c_rho) = (s^2 - c_rho^2)/sigma_rho^2 = 2 gamma.  In
    terms of the eta of `derive_constants` the same identity reads
    B + 2 eta = (r - lam)/s, so S = (mu-r)/sigma^2 (1 + 2 eta/B).  The
    product form subtracts no nearly equal terms, which both others do
    when mu is close to r.
    """
    p = params
    ex = p.excess
    if ex == 0.0:
        return 0.0
    k = constants
    s = k.B * k.sigma_rho2 - k.c_rho
    return ex * (p.r - p.lam) / (p.sigma**2 * s * k.B)


def value_expansion_zero(constants: DerivedConstants):
    """Small-surplus parabola of the value integral: V(x)/V'(0) = x - B/2 x^2 + o(x^2)."""
    B = constants.B

    def expansion(x):
        x = np.asarray(x, dtype=float)
        out = x - 0.5 * B * x * x
        return out if out.ndim else float(out)

    return expansion


def strategy_expansion_infinity_exp(params: ModelParams, m: float) -> tuple[float, float]:
    """Large-surplus expansion of the unrestricted investment, exponential claims.

    Returns (limit, coeff) with a*(x) = limit + coeff / x + o(1/x):
    limit = (mu-r) m / sigma^2 - rho sigma1 / sigma and
    coeff = -(1 - lam/r)(mu-r) m^2 / sigma^2.
    """
    p = params
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"claim mean must be positive, got {m!r}")
    a_tilde0, coeff = large_surplus_series(p, m)
    return a_tilde0 - p.hedge, coeff


def ruin_tail_exp(params: ModelParams, m: float, K1: float, x) -> np.ndarray:
    """Leading ruin-probability tail K1 e^{-x/m} x^{lam/r - 1}, exponential claims."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("tail formula needs x > 0; the power factor blows up at 0")
    out = K1 * np.exp(-x / m) * x ** (params.lam / params.r - 1.0)
    return out if out.ndim else float(out)


def tail_log_compensated(params: ModelParams, m: float, x: np.ndarray, log_v: np.ndarray) -> np.ndarray:
    """log(v e^{x/m} x^{1 - lam/r}) from log v, flat where v has the
    exponential-claims tail; the logs avoid the overflow of e^{x/m} and the
    underflow of v at large x."""
    return log_v + x / m - (params.lam / params.r - 1.0) * np.log(x)


@dataclass
class TailFit:
    """Tail-constant fit of a solved grid against the exponential-claims shape."""

    K_vprime: float | None       # plateau of v(x) e^{x/m} x^{1 - lam/r}
    K1_ruin: float | None        # matching ruin-tail constant m K_vprime / V(inf)
    plateau_ratio: float | None  # max/min of the compensated product over the window
    ok: bool                     # plateau_ratio <= 1.05, judged on the logs
    window: tuple[float, float]


def tail_window(x_max: float) -> tuple[float, float]:
    """Window (min(30, 0.75 x_max), x_max) on which a grid ending at x_max
    is checked against the exponential-claims tail shape."""
    return min(30.0, 0.75 * x_max), x_max


def fit_tail_constant(vg: ValueGrid, params: ModelParams, m: float) -> TailFit:
    """Fit the multiplicative constant of the exponential-claims tail.

    Compensates the solved slope by e^{x/m} x^{1 - lam/r} over
    `tail_window(vg.grid.x_max)`; on a grid that reached the asymptotic
    regime the product is flat, and its median is the constant.
    plateau_ratio quantifies the flatness and ok flags whether the window
    was asymptotic at all.  A constant or ratio outside the normal double
    range (a huge lam/r puts x^{1 - lam/r} there) is None.
    """
    lo, hi = tail_window(vg.grid.x_max)
    x = vg.grid.points
    mask = (x >= lo) & (x <= hi)
    xs = x[mask]
    vs = vg.v[mask]
    if xs.size < 4:
        raise ValueError("fit window contains fewer than 4 grid nodes")
    if np.any(vs <= 0.0):
        raise ValueError("slope is not positive over the fit window")
    logc = tail_log_compensated(params, m, xs, np.log(vs))
    spread = float(logc.max() - logc.min())
    with np.errstate(over="ignore", under="ignore"):
        K_v = float(np.exp(np.median(logc)))
        ratio = float(np.exp(spread))
    norm = normalize_delta(vg, claim_mean=m)
    K1 = m * K_v / norm.v_inf_hat
    return TailFit(K_vprime=_in_float_range(K_v), K1_ruin=_in_float_range(K1),
                   plateau_ratio=_in_float_range(ratio), ok=spread <= math.log(1.05), window=(lo, hi))


def _in_float_range(value: float) -> float | None:
    """value, or None where it is not a finite normal double."""
    return value if np.finfo(float).tiny <= value < math.inf else None


def constrained_infinity_strategy(params: ModelParams, m: float) -> tuple[float, float]:
    """Where the capped strategy settles as the surplus grows: (limit, coeff)
    with a*(x) = limit + coeff / x + o(1/x), as `strategy_expansion_infinity_exp`.

    The uncapped limit is q = (mu-r) m / sigma^2 - rho sigma1 / sigma; the
    capped strategy follows q when it is inside [0, cap] (with the 1/x
    refinement of the uncapped expansion when strictly inside) and pins to
    the violated endpoint otherwise, where coeff is 0.  The cap is params.cap.
    """
    cap = params.cap
    report = classify_infinity_regime(params, m)
    q_inf, open_coeff = strategy_expansion_infinity_exp(params, m)
    regime = report.regime if report.regime is not Regime.BOUNDARY else report.resolution
    if regime is Regime.FULL_CAP:
        return cap, 0.0
    if regime is Regime.ZERO_INVESTMENT:
        return 0.0, 0.0
    if regime is Regime.INTERIOR:
        # the uncapped 1/x correction applies verbatim only strictly inside
        return q_inf, (open_coeff if report.regime is Regime.INTERIOR else 0.0)
    # unresolved boundary (lam = r): report the threshold value itself
    return min(max(q_inf, 0.0), cap), 0.0


def no_investment_ruin_reference(c: float, r: float, lam: float, m: float, x: float) -> float:
    """Ruin probability with no investment at all, exponential claims.

    Closed form up to two one-dimensional integrals:

        psi(x) = int_x^inf e^{-u/m} (1 + r u / c)^{lam/r - 1} du
                 / [ c/lam + int_0^inf e^{-u/m} (1 + r u / c)^{lam/r - 1} du ].

    Entirely independent of the dynamic programming machinery; used as an
    oracle for the a = 0 corner of the solvers and the simulator.
    """
    for name, val in (("c", c), ("r", r), ("lam", lam), ("m", m)):
        if not (math.isfinite(val) and val > 0):
            raise ValueError(f"{name} must be positive, got {val!r}")
    if x < 0:
        raise ValueError(f"surplus must be nonnegative, got {x!r}")
    from scipy.integrate import quad   # here only: importing scipy.integrate is slow

    expo = lam / r - 1.0

    def integrand(u):
        return math.exp(-u / m) * (1.0 + r * u / c) ** expo

    upper, _ = quad(integrand, x, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
    full, _ = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
    return upper / (c / lam + full)


@dataclass
class AsymptoteReport:
    """Everything the closed forms say about a parameter set, in one record."""

    a_star_zero: float
    strategy_slope_zero: float
    v_prime_zero: float
    B: float                            # coefficient of -x^2/2 in V/V'(0)
    eta: float
    infinity_limit: float | None = None
    infinity_coeff: float | None = None
    tail_exponent: float | None = None


def asymptote_report(params: ModelParams, claim_mean: float | None = None) -> AsymptoteReport:
    """Assemble the closed-form constants.

    claim_mean activates the exponential-claims large-surplus family.  The
    fitted tail constant and survival slope of a solved grid come from
    `fit_tail_constant` and `results.normalize_delta`.
    """
    constants = derive_constants(params, claim_mean=claim_mean)
    report = AsymptoteReport(
        a_star_zero=constants.a_star_zero,
        strategy_slope_zero=strategy_slope_zero(constants, params),
        v_prime_zero=constants.v_prime_zero,
        B=constants.B,
        eta=constants.eta,
    )
    if claim_mean is not None:
        limit, coeff = strategy_expansion_infinity_exp(params, claim_mean)
        report.infinity_limit = limit
        report.infinity_coeff = coeff
        report.tail_exponent = constants.tail_exponent
    return report
