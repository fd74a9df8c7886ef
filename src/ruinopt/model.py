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
here once: the pointwise minimiser of the HJB, `curvature_best`, over
[0, cap] or over every real a when there is no cap, from which the capped
solver starts and which both solves' certificate calls; the unrestricted
solver's start value v'(0) = -B; and the one threshold rule both capped
regime classifiers share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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
        # the closed forms and node rules square these (Q(a), the cap's
        # rho2, the node's ((mu-r)/sigma)^2), so no square may overflow; they
        # divide by sigma^2 and sigma_rho^2, so those two may not underflow,
        # and the thresholds rho1 and rho2 by 2 c sigma and 2 c sigma1
        tiny = np.finfo(float).tiny
        for name in ("c", "r", "mu", "sigma", "sigma1", "lam", "cap"):
            val = getattr(self, name)
            if val is None and name == "cap":
                continue
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive and finite, got {val!r}")
            least = tiny if name in ("sigma", "sigma1") else 0.0
            if not least <= val * val < math.inf:
                raise ValueError(f"{name} must have a square in the normal float range, got {val!r}")
        if not (math.isfinite(self.rho) and abs(self.rho) < 1.0):
            raise ValueError(f"rho must satisfy |rho| < 1, got {self.rho!r}")
        if not (2.0 * self.c * self.sigma > 0.0 and 2.0 * self.c * self.sigma1 > 0.0):
            raise ValueError(f"c must keep 2 c sigma and 2 c sigma1 above 0, got c={self.c!r}")

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


def _candidates(qa: float, qb: float, qc: float, hi: float) -> list[float]:
    """The amounts in [0, hi], hi > 0, where a smooth objective whose
    interior stationary points solve qa a^2 + qb a + qc = 0 can be least.

    First 0 and hi, then the roots that lie in [0, hi] (a NaN root never
    does), each formed without cancellation.
    """
    candidates = [0.0, hi]
    if qa == 0.0:
        if qb != 0.0:
            a = -qc / qb
            if 0.0 <= a <= hi:
                candidates.append(a)
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0.0:
            root = math.sqrt(disc)
            qq = -0.5 * (qb + math.copysign(root, qb)) if qb != 0.0 else 0.5 * root
            a = qq / qa
            if 0.0 <= a <= hi:
                candidates.append(a)
            if qq != 0.0:
                a = qc / qq
                if 0.0 <= a <= hi:
                    candidates.append(a)
    return candidates


def _best_candidate(qa: float, qb: float, qc: float, hi: float, objective) -> tuple[float, float]:
    """Minimize a smooth objective over [0, hi] whose interior stationary
    points solve qa a^2 + qb a + qc = 0.

    Scans `_candidates`.  Returns (value, argmin): the least value, at the
    smallest investment among exact ties and at the first listed among
    equal amounts (0.0 before a root of -0.0).  NaN values never win; with
    no finite value left the result is (inf, 0.0).
    """
    best_val, best_a = math.inf, 0.0
    for a in _candidates(qa, qb, qc, hi):
        val = objective(a)
        if val < best_val or (val == best_val and a < best_a):
            best_val, best_a = val, a
    return best_val, best_a


def _stationary_roots(p: ModelParams, x, w_x, MW_x) -> list:
    """The two roots in a of curvature_best's stationary quadratic, formed
    as `_candidates` forms them, NaN where a root does not exist."""
    E = MW_x - (p.c + p.r * x) * w_x
    qa = p.excess * p.sigma**2 * w_x
    qb = -2.0 * p.sigma**2 * E
    qc = -(p.excess * p.sigma1**2 * w_x + 2.0 * p.rho * p.sigma * p.sigma1 * E)
    linear = qa == 0.0
    disc = qb * qb - 4.0 * qa * qc
    qq = np.where(qb != 0.0, -0.5 * (qb + np.copysign(np.sqrt(disc), qb)), 0.5 * np.sqrt(disc))
    real = ~linear & (disc >= 0.0)
    return [
        np.where(linear, np.where(qb != 0.0, -qc / qb, np.nan), np.where(real, qq / qa, np.nan)),
        np.where(real & (qq != 0.0), qc / qq, np.nan),
    ]


def curvature_best(params: ModelParams, x, w_x, MW_x):
    """Minimize the candidate curvature over the amounts params.cap allows,
    elementwise: a in [0, cap], or every real a when cap is None.

    Candidates: the interior stationary points, which solve

        (mu-r) sigma^2 w a^2 - 2 sigma^2 E a
            - [ (mu-r) sigma1^2 w + 2 rho sigma sigma1 E ] = 0,

    with E = MW_x - (c + r x) w_x, and with a cap both endpoints.  The
    inputs broadcast; returns (value, argmin) arrays, or floats when every
    input is a scalar.  The roots follow `_candidates` operation for
    operation, and the capped choice is `_best_candidate`'s: out-of-range
    roots and NaN values drop out, exact ties go to the smaller
    investment, and with no candidate left the value is inf at a = 0.  At
    x = 0, w = 1, MW = 0 the value is v'(0+): the capped one, or -B.

    Without a cap the value, the unrestricted solver's L(w), is held at
    most 0, the limit of the candidate curvature as |a| -> inf.  No amount
    attains that limit, so where it wins (mu = r and E >= 0, for positive
    w) the argmin is NaN.
    """
    p = params
    x, w_x, MW_x = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, w_x, MW_x)))
    lo, hi = (-np.inf, np.inf) if p.cap is None else (0.0, p.cap)
    with np.errstate(all="ignore"):
        ends = [] if p.cap is None else [np.zeros_like(x), np.full_like(x, p.cap)]
        cand = np.stack(ends + _stationary_roots(p, x, w_x, MW_x))
        vals = curvature_candidate(p, cand, x, w_x, MW_x)
    # a NaN candidate or value fails every comparison, as in the scalar scan
    ok = (cand >= lo) & (cand <= hi) & (vals < np.inf)
    vals[~ok] = np.inf
    best = vals.min(axis=0)
    # first smallest investment among the exact ties; row 0 when none is left
    k = np.where(ok & (vals == best), cand, np.inf).argmin(axis=0)
    val = np.take_along_axis(vals, k[None], axis=0)[0]
    arg = np.take_along_axis(cand, k[None], axis=0)[0]
    if p.cap is None:
        held = val > 0.0
        val = np.where(held, 0.0, val)
        arg = np.where(held, np.nan, arg)
    if val.ndim == 0:
        return float(val), float(arg)
    return val, arg


def large_surplus_series(params: ModelParams, m: float) -> tuple[float, float]:
    """(a~0, a~1): the feedback a~(x) = a*(x) + rho sigma1 / sigma tends to
    a~0 + a~1 / x + o(1/x) as x grows, under exponential claims of mean m."""
    p = params
    a_tilde0 = p.excess * m / p.sigma**2
    a_tilde1 = -(1.0 - p.lam / p.r) * p.excess * m * m / p.sigma**2
    return a_tilde0, a_tilde1


def _negative_root(l1: float, l2: float, sigma_rho2: float) -> float:
    """Negative root of 0.5 sigma_rho^2 y^2 + l1 y - 0.5 l2^2 = 0.

    Conjugate form when l1 < 0 so the root never loses digits to
    cancellation.  Zero when both coefficients vanish.
    """
    R = math.hypot(l1, math.sqrt(sigma_rho2) * l2)
    if R == 0.0:
        return 0.0
    if l1 >= 0.0:
        return -(l1 + R) / sigma_rho2
    return -(l2 * l2) / (R - l1)


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
    # -B is the negative root of 0.5 sigma_rho^2 y^2 + c_rho y - gamma = 0,
    # the very v'(0) the unrestricted solve starts from.  Then
    # s = sqrt(c_rho^2 + 2 gamma sigma_rho^2) = B sigma_rho^2 - c_rho adds two
    # positive terms when c_rho < 0 and subtracts c_rho <= s from c_rho + s
    # otherwise, so no step cancels.  eta's raw denominator c_rho - B sigma_rho^2
    # is -s, so eta is written over -2s
    B = -_negative_root(c_rho, ex / p.sigma, sigma_rho2)
    s = B * sigma_rho2 - c_rho
    eta = -(p.lam - p.r + 2.0 * gamma + B * c_rho) / (2.0 * s)
    a_star_zero = (ex / (p.sigma**2 * B) if ex else 0.0) - p.hedge
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


def _classify_capped(
    params: ModelParams,
    where: str,
    claim_mean: float | None,
    full: tuple[str, Regime | None, str],
    zero: tuple[str, Regime | None, str],
) -> RegimeReport:
    """The rule both capped classifiers share.

    full and zero are (threshold name, resolution, note) for the full-cap
    and the zero-investment threshold of `derive_constants`.  Below the
    full-cap threshold the whole cap is invested, above the zero threshold
    nothing is, and between the two the optimum is interior.  Within
    _THRESHOLD_RTOL of a threshold the report is BOUNDARY, with that
    threshold's resolution and note.
    """
    p = params
    if p.cap is None:
        raise ValueError(f"{where} regime classification needs an investment cap")
    if p.mu <= p.r:
        raise ValueError(f"{where} regime classification needs mu > r")
    constants = derive_constants(p, claim_mean=claim_mean)
    rho_full, rho_zero = getattr(constants, full[0]), getattr(constants, zero[0])
    for (name, resolution, note), threshold in ((full, rho_full), (zero, rho_zero)):
        if math.isclose(p.rho, threshold, rel_tol=_THRESHOLD_RTOL, abs_tol=1e-15):
            return RegimeReport(Regime.BOUNDARY, boundary=name, resolution=resolution, note=note)
    if p.rho < rho_full:
        return RegimeReport(Regime.FULL_CAP)
    if p.rho > rho_zero:
        return RegimeReport(Regime.ZERO_INVESTMENT)
    return RegimeReport(Regime.INTERIOR)


def classify_zero_regime(params: ModelParams) -> RegimeReport:
    """Behaviour of the capped optimal investment as the surplus tends to 0.

    Needs a cap and mu > r.  Below rho2 the whole cap is invested, above
    rho1 nothing is, and between the two the optimum starts at the interior
    point a_star_zero.  Exactly on a threshold the two adjacent regimes
    coincide (the formulas are continuous there), reported as BOUNDARY with
    the matching value noted.
    """
    return _classify_capped(
        params,
        "zero-surplus",
        None,
        ("rho2", Regime.FULL_CAP, "interior optimum meets the cap; both formulas give a = cap"),
        ("rho1", Regime.ZERO_INVESTMENT, "interior optimum reaches 0; both formulas give a = 0"),
    )


def classify_infinity_regime(params: ModelParams, m: float) -> RegimeReport:
    """Behaviour of the capped optimal investment as the surplus grows.

    Exponential claims of mean m only; the caller checks the family.  The
    uncapped investment tends to q_inf = (mu-r) m / sigma^2 - rho sigma1 / sigma;
    the capped optimum follows it when 0 <= q_inf <= cap and saturates
    otherwise.  On a threshold the sign of lam - r decides, and lam = r is
    genuinely unresolved by the expansion.
    """
    p = params
    if p.lam > p.r:
        on_rho4 = (Regime.FULL_CAP, "claim load exceeds discounting; the cap stays binding")
        on_rho3 = (Regime.INTERIOR, "claim load keeps the optimum interior")
    elif p.lam < p.r:
        on_rho4 = (Regime.INTERIOR, "discounting dominates; the optimum comes off the cap")
        on_rho3 = (Regime.ZERO_INVESTMENT, "discounting pushes the optimum to 0")
    else:
        on_rho4 = on_rho3 = (None, "lam = r: first-order expansion cannot split the tie")
    return _classify_capped(p, "large-surplus", m, ("rho4", *on_rho4), ("rho3", *on_rho3))
