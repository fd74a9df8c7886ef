"""Model parameters and closed-form derived constants.

The surplus process: premiums arrive at rate c, claims arrive with Poisson
intensity lam, the insurer keeps an amount a(x) invested in a stock with
drift mu and volatility sigma while the rest earns the risk-free rate r,
and the surplus itself carries a Brownian perturbation with volatility
sigma1, correlated with the stock driver by rho.

Everything in this module is exact arithmetic on the parameters: the
behaviour of the optimal strategy at zero and at infinity, and the
correlation thresholds separating the qualitative regimes, all have closed
forms that the grid solvers are later checked against.  Each is written
here once; the capped solver takes its pointwise minimiser from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "Regime",
    "RegimeReport",
    "curvature_candidate",
    "curvature_best",
    "large_surplus_series",
    "derive_constants",
    "classify_zero_regime",
    "classify_infinity_regime",
]

# relative tolerance when deciding whether rho sits exactly on a regime
# threshold; inside this band the classification is reported as BOUNDARY
_THRESHOLD_RTOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Market and insurance parameters.

    cap is the largest amount that may be invested (None = no restriction,
    investment may be any real number, short positions included).
    """

    c: float
    r: float
    mu: float
    sigma: float
    sigma1: float
    rho: float
    lam: float
    cap: float | None = None

    def __post_init__(self):
        for name in ("c", "r", "mu", "sigma", "sigma1", "lam"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive and finite, got {val!r}")
        if not (math.isfinite(self.rho) and abs(self.rho) < 1.0):
            raise ValueError(f"rho must satisfy |rho| < 1, got {self.rho!r}")
        if self.cap is not None and not (math.isfinite(self.cap) and self.cap > 0):
            raise ValueError(f"cap must be positive when given, got {self.cap!r}")

    @property
    def excess(self) -> float:
        """Excess return of the stock over the risk-free rate."""
        return self.mu - self.r

    @property
    def gamma(self) -> float:
        """Sharpe ratio squared over 2, (mu-r)^2 / (2 sigma^2)."""
        return self.excess * self.excess / (2.0 * self.sigma**2)

    @property
    def hedge(self) -> float:
        """Stock position rho sigma1 / sigma that offsets the perturbation's correlated part."""
        return self.rho * self.sigma1 / self.sigma

    @property
    def c_rho(self) -> float:
        """Premium rate corrected for correlation drag, c - rho (mu-r) sigma1 / sigma."""
        return self.c - self.rho * self.excess * self.sigma1 / self.sigma

    @property
    def sigma_rho2(self) -> float:
        """Residual perturbation variance sigma1^2 (1 - rho^2)."""
        return self.sigma1**2 * (1.0 - self.rho * self.rho)

    def quadratic_form(self, a):
        """Diffusion coefficient Q(a) = sigma^2 a^2 + 2 rho sigma sigma1 a + sigma1^2.

        Positive for every real a because |rho| < 1.
        """
        return self.sigma**2 * a * a + 2.0 * self.rho * self.sigma * self.sigma1 * a + self.sigma1**2


class Regime(Enum):
    """Qualitative behaviour of the optimal investment near a boundary."""

    FULL_CAP = "full_cap"
    INTERIOR = "interior"
    ZERO_INVESTMENT = "zero_investment"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class RegimeReport:
    regime: Regime
    boundary: str | None = None      # which threshold was hit, when regime is BOUNDARY
    resolution: Regime | None = None  # behaviour on the boundary itself, when known
    note: str = ""


@dataclass(frozen=True)
class DerivedConstants:
    """Closed-form constants of the model.

    Fields that need the claim mean (the exponential-claims large-surplus
    family) or the investment cap are None when that input is missing.
    """

    gamma: float          # (mu - r)^2 / (2 sigma^2), Sharpe-squared over 2
    c_rho: float          # premium rate corrected for correlation drag
    sigma_rho2: float     # residual perturbation variance sigma1^2 (1 - rho^2)
    B: float              # curvature of the scaled value slope at 0: v'(0+) = -B (interior)
    eta: float            # second-order coefficient of the slope expansion at 0
    a_star_zero: float    # limit of the unconstrained optimal investment at 0+
    v_prime_zero: float   # v'(0+) in the active regime (cap-aware)
    tail_exponent: float  # lam / r - 1, power correction in the exponential-claims tail
    rho1: float           # zero-investment threshold at x = 0
    rho2: float | None = None   # full-cap threshold at x = 0 (needs cap)
    rho3: float | None = None   # zero-investment threshold at infinity (needs claim mean)
    rho4: float | None = None   # full-cap threshold at infinity (needs cap and claim mean)
    a_tilde0: float | None = None  # large-x investment limit, exponential claims
    a_tilde1: float | None = None  # 1/x coefficient of that expansion
    d0: float | None = None        # decay rate of seed perturbations in the large-x ODE


def curvature_candidate(params: ModelParams, a: float, x: float, w_x: float, MW_x: float) -> float:
    """Candidate curvature when the amount a is invested at surplus x."""
    p = params
    return 2.0 * (MW_x - (p.c + p.r * x + p.excess * a) * w_x) / p.quadratic_form(a)


def _best_candidate(qa: float, qb: float, qc: float, hi: float, objective) -> tuple[float, float]:
    """Minimize a smooth objective over [0, hi] whose interior stationary
    points solve qa a^2 + qb a + qc = 0.

    Candidates: both endpoints plus the roots inside.  Returns
    (value, argmin); exact ties go to the smaller investment.
    """
    candidates = [0.0, hi]
    if qa == 0.0:
        if qb != 0.0:
            candidates.append(-qc / qb)
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0.0:
            root = math.sqrt(disc)
            qq = -0.5 * (qb + math.copysign(root, qb)) if qb != 0.0 else 0.5 * root
            candidates.append(qq / qa)
            if qq != 0.0:
                candidates.append(qc / qq)
    best_val, best_a = math.inf, 0.0
    for a in sorted(c for c in candidates if 0.0 <= c <= hi):
        val = objective(a)
        if val < best_val:
            best_val, best_a = val, a
    return best_val, best_a


def curvature_best(params: ModelParams, x: float, w_x: float, MW_x: float) -> tuple[float, float]:
    """Minimize the candidate curvature over a in [0, params.cap].

    Candidates: both endpoints plus interior stationary points, which solve

        (mu-r) sigma^2 w a^2 - 2 sigma^2 E a
            - [ (mu-r) sigma1^2 w + 2 rho sigma sigma1 E ] = 0,

    with E = MW_x - (c + r x) w_x.  Returns (value, argmin); exact ties go
    to the smaller investment.  At x = 0, w = 1, MW = 0 the value is the
    capped v'(0+).
    """
    p = params
    if p.cap is None:
        raise ValueError("capped curvature minimum needs an investment cap (params.cap)")
    E = MW_x - (p.c + p.r * x) * w_x
    return _best_candidate(
        p.excess * p.sigma**2 * w_x,
        -2.0 * p.sigma**2 * E,
        -(p.excess * p.sigma1**2 * w_x + 2.0 * p.rho * p.sigma * p.sigma1 * E),
        p.cap,
        lambda a: curvature_candidate(p, a, x, w_x, MW_x),
    )


def large_surplus_series(params: ModelParams, m: float) -> tuple[float, float]:
    """(a~0, a~1): the feedback a~(x) = a*(x) + rho sigma1 / sigma tends to
    a~0 + a~1 / x + o(1/x) as x grows, under exponential claims of mean m."""
    p = params
    a_tilde0 = p.excess * m / p.sigma**2
    a_tilde1 = -(1.0 - p.lam / p.r) * p.excess * m * m / p.sigma**2
    return a_tilde0, a_tilde1


def derive_constants(params: ModelParams, claim_mean: float | None = None) -> DerivedConstants:
    """Evaluate every closed-form constant available for these parameters.

    claim_mean feeds the exponential-claims large-surplus family (rho3,
    rho4, the investment limit and its 1/x correction, d0); pass the mean
    of the claim distribution when it is exponential, otherwise leave None.
    """
    p = params
    ex = p.excess
    gamma = p.gamma
    c_rho = p.c_rho
    sigma_rho2 = p.sigma_rho2
    s = math.sqrt(c_rho * c_rho + 2.0 * gamma * sigma_rho2)
    B = (c_rho + s) / sigma_rho2
    # c_rho - B sigma_rho2 = -s exactly, so write eta over -2s and avoid
    # the cancellation of the raw denominator
    eta = -(p.lam - p.r + 2.0 * gamma + B * c_rho) / (2.0 * s)
    a_star_zero = ex / (p.sigma**2 * B) - p.hedge
    tail_exponent = p.lam / p.r - 1.0

    rho1 = ex * p.sigma1 / (2.0 * p.c * p.sigma)
    if p.cap is None:
        rho2 = None
        v_prime_zero = -B
    else:
        rho2 = rho1 - (ex * p.cap**2 + 2.0 * p.c * p.cap) * p.sigma / (2.0 * p.c * p.sigma1)
        v_prime_zero, _ = curvature_best(p, 0.0, 1.0, 0.0)

    rho3 = rho4 = a_tilde0 = a_tilde1 = d0 = None
    if claim_mean is not None:
        m = float(claim_mean)
        if not (math.isfinite(m) and m > 0):
            raise ValueError(f"claim_mean must be positive and finite, got {claim_mean!r}")
        a_tilde0, a_tilde1 = large_surplus_series(p, m)
        rho3 = m * ex / (p.sigma * p.sigma1)
        if p.cap is not None:
            rho4 = rho3 - p.cap * p.sigma / p.sigma1
        d0 = -2.0 * p.r / (sigma_rho2 + ex * ex * m * m / p.sigma**2)

    return DerivedConstants(
        gamma=gamma,
        c_rho=c_rho,
        sigma_rho2=sigma_rho2,
        B=B,
        eta=eta,
        a_star_zero=a_star_zero,
        v_prime_zero=v_prime_zero,
        tail_exponent=tail_exponent,
        rho1=rho1,
        rho2=rho2,
        rho3=rho3,
        rho4=rho4,
        a_tilde0=a_tilde0,
        a_tilde1=a_tilde1,
        d0=d0,
    )


def _on_threshold(rho: float, threshold: float) -> bool:
    return math.isclose(rho, threshold, rel_tol=_THRESHOLD_RTOL, abs_tol=1e-15)


def classify_zero_regime(params: ModelParams) -> RegimeReport:
    """Behaviour of the capped optimal investment as the surplus tends to 0.

    Needs a cap and mu > r.  Below rho2 the whole cap is invested, above
    rho1 nothing is, and between the two the optimum starts at the interior
    point a_star_zero.  Exactly on a threshold the two adjacent regimes
    coincide (the formulas are continuous there), reported as BOUNDARY with
    the matching value noted.
    """
    p = params
    if p.cap is None:
        raise ValueError("zero-surplus regime classification needs an investment cap")
    if p.mu <= p.r:
        raise ValueError("zero-surplus regime classification needs mu > r")
    thresholds = derive_constants(p)
    rho1, rho2 = thresholds.rho1, thresholds.rho2
    if _on_threshold(p.rho, rho2):
        return RegimeReport(
            Regime.BOUNDARY,
            boundary="rho2",
            resolution=Regime.FULL_CAP,
            note="interior optimum meets the cap; both formulas give a = cap",
        )
    if _on_threshold(p.rho, rho1):
        return RegimeReport(
            Regime.BOUNDARY,
            boundary="rho1",
            resolution=Regime.ZERO_INVESTMENT,
            note="interior optimum reaches 0; both formulas give a = 0",
        )
    if p.rho < rho2:
        return RegimeReport(Regime.FULL_CAP)
    if p.rho > rho1:
        return RegimeReport(Regime.ZERO_INVESTMENT)
    return RegimeReport(Regime.INTERIOR)


def classify_infinity_regime(params: ModelParams, claims) -> RegimeReport:
    """Behaviour of the capped optimal investment as the surplus grows.

    Exponential claims only.  `claims` is either the claim mean (a float)
    or a ClaimDistribution, in which case its family is checked.  The
    uncapped investment tends to q_inf = (mu-r) m / sigma^2 - rho sigma1 / sigma;
    the capped optimum follows it when 0 <= q_inf <= cap and saturates
    otherwise.  On a threshold the sign of lam - r decides, and lam = r is
    genuinely unresolved by the expansion.
    """
    p = params
    if p.cap is None:
        raise ValueError("large-surplus regime classification needs an investment cap")
    if p.mu <= p.r:
        raise ValueError("large-surplus regime classification needs mu > r")
    if hasattr(claims, "family"):
        if claims.family != "exponential":
            raise ValueError(
                f"large-surplus regime formulas hold for exponential claims, got {claims.family!r}"
            )
        m = claims.mean
    else:
        m = float(claims)
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"claim mean must be positive and finite, got {m!r}")

    thresholds = derive_constants(p, claim_mean=m)
    rho3, rho4 = thresholds.rho3, thresholds.rho4

    if _on_threshold(p.rho, rho4):
        if p.lam > p.r:
            res, note = Regime.FULL_CAP, "claim load exceeds discounting; the cap stays binding"
        elif p.lam < p.r:
            res, note = Regime.INTERIOR, "discounting dominates; the optimum comes off the cap"
        else:
            res, note = None, "lam = r: first-order expansion cannot split the tie"
        return RegimeReport(Regime.BOUNDARY, boundary="rho4", resolution=res, note=note)
    if _on_threshold(p.rho, rho3):
        if p.lam > p.r:
            res, note = Regime.INTERIOR, "claim load keeps the optimum interior"
        elif p.lam < p.r:
            res, note = Regime.ZERO_INVESTMENT, "discounting pushes the optimum to 0"
        else:
            res, note = None, "lam = r: first-order expansion cannot split the tie"
        return RegimeReport(Regime.BOUNDARY, boundary="rho3", resolution=res, note=note)
    if p.rho < rho4:
        return RegimeReport(Regime.FULL_CAP)
    if p.rho > rho3:
        return RegimeReport(Regime.ZERO_INVESTMENT)
    return RegimeReport(Regime.INTERIOR)
