"""Parameter validation, derived constants, and regime classification."""

from __future__ import annotations

import inspect
import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

import ruinopt as ro
from conftest import assert_close


def _params(**kw):
    base = dict(c=0.36, r=0.32, mu=0.42, sigma=0.1, sigma1=0.2, rho=-0.2, lam=0.3)
    base.update(kw)
    return ro.ModelParams(**base)


# ---------------------------------------------------------------- validation

@pytest.mark.parametrize("field", ["c", "r", "mu", "sigma", "sigma1", "lam"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_positive_fields_rejected(field, bad):
    with pytest.raises(ValueError, match=field):
        _params(**{field: bad})


@pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, math.nan])
def test_rho_open_interval(bad):
    with pytest.raises(ValueError, match="rho"):
        _params(rho=bad)


@pytest.mark.parametrize("bad", [0.0, -2.0, math.inf])
def test_cap_positive_when_given(bad):
    with pytest.raises(ValueError, match="cap"):
        _params(cap=bad)


@pytest.mark.parametrize("field", ["c", "r", "mu", "sigma", "sigma1", "lam", "cap"])
def test_squares_stay_in_range(field):
    # no square may overflow, past about 1.3e154; the divisors sigma and
    # sigma1 may not square below the least normal float either, below
    # about 1.5e-154, but a tiny lam (claims switched off) stays allowed
    divisor = field in ("sigma", "sigma1")
    for bad in (1.4e154, 1e300) + ((1e-200, 1.4e-154) if divisor else ()):
        with pytest.raises(ValueError, match=f"^{field} must have a square in the normal float range"):
            _params(**{field: bad})
    for good in (1.5e-154, 1.3e154) + (() if divisor else (1e-300,)):
        assert getattr(_params(**{field: good}), field) == good


def test_cap_has_one_home():
    # the investment cap enters only through ModelParams; apart from it,
    # only the benchmark parameter builders name a cap
    builders = {"ModelParams", "example1_params", "example2_params"}
    takes_cap = [
        name
        for name in ro.__all__
        if name not in builders
        and callable(obj := getattr(ro, name))
        and "cap" in inspect.signature(obj).parameters
    ]
    assert takes_cap == []


def test_params_frozen():
    p = _params()
    with pytest.raises(AttributeError):
        p.c = 1.0


def test_accessors():
    p = _params(cap=1.0)
    assert p.excess == p.mu - p.r
    for a in (-2.0, 0.0, 0.7, 5.0):
        expected = p.sigma**2 * a**2 + 2 * p.rho * p.sigma * p.sigma1 * a + p.sigma1**2
        assert_close(p.quadratic_form(a), expected, 1e-15, f"Q({a})")
        assert p.quadratic_form(a) > 0  # positive definite since |rho| < 1


# ---------------------------------------------------------- derived constants

def test_benchmark1_constants(ex1, k1):
    assert_close(k1.gamma, 0.5, 1e-12, "gamma")
    assert_close(k1.c_rho, 0.4, 1e-12, "c_rho")
    assert_close(k1.sigma_rho2, 0.0384, 1e-12, "sigma_rho2")
    assert_close(k1.B, 22.016175755895873, 1e-12, "B")
    assert_close(k1.eta, -10.985637215194588, 1e-12, "eta")
    assert_close(k1.a_star_zero, 0.8542114902640175, 1e-12, "a_star_zero")
    assert_close(k1.v_prime_zero, -22.016175755895873, 1e-12, "v_prime_zero")
    assert_close(k1.tail_exponent, 0.3 / 0.32 - 1.0, 1e-12, "tail_exponent")
    assert_close(k1.rho1, 0.27777777777777773, 1e-12, "rho1")
    assert k1.rho2 is None  # no cap on the session params
    assert_close(k1.rho3, 5.0, 1e-12, "rho3")
    assert_close(k1.a_tilde0, 10.0, 1e-12, "a_tilde0")
    assert_close(k1.a_tilde1, -0.625, 1e-12, "a_tilde1")
    assert_close(k1.d0, -0.6163328197226506, 1e-12, "d0")


def test_benchmark2_constants(ex2, k2):
    assert_close(k2.B, 4.045502844037299, 1e-12, "B")
    assert_close(k2.eta, -2.2044644583679034, 1e-12, "eta")
    assert_close(k2.a_star_zero, -0.05891969777148058, 1e-12, "a_star_zero")
    assert_close(k2.rho1, 0.04444444444444445, 1e-12, "rho1")
    assert_close(k2.rho3, 0.3555555555555556, 1e-12, "rho3")
    assert_close(k2.a_tilde0, 0.19753086419753088, 1e-12, "a_tilde0")
    assert_close(k2.a_tilde1, 0.5925925925925927, 1e-12, "a_tilde1")


def test_capped_constants(ex1):
    k = ro.derive_constants(replace(ex1, cap=1.0), claim_mean=1.0)
    assert_close(k.rho2, -0.2916666666666668, 1e-12, "rho2")
    assert_close(k.rho4, 4.5, 1e-12, "rho4")
    # interior regime at rho = -0.2: the capped slope equals the open one
    assert_close(k.v_prime_zero, -k.B, 1e-14, "v_prime_zero interior")


def test_mean_free_constants(ex1):
    k = ro.derive_constants(ex1)
    assert k.rho3 is None and k.rho4 is None
    assert k.a_tilde0 is None and k.a_tilde1 is None and k.d0 is None


def test_bad_claim_mean(ex1):
    with pytest.raises(ValueError, match="claim_mean"):
        ro.derive_constants(ex1, claim_mean=-1.0)


def test_curvature_root_identity(k1, k2, ex1, ex2):
    # B solves (sigma_rho2 / 2) B^2 - c_rho B - gamma = 0
    for k in (k1, k2):
        lhs = 0.5 * k.sigma_rho2 * k.B**2 - k.c_rho * k.B - k.gamma
        scale = max(0.5 * k.sigma_rho2 * k.B**2, k.gamma)
        assert abs(lhs) <= 1e-12 * scale


def test_a_star_zero_ties_to_B(k1, ex1, k2, ex2):
    for k, p in ((k1, ex1), (k2, ex2)):
        shifted = k.a_star_zero + p.rho * p.sigma1 / p.sigma
        assert_close(shifted, p.excess / (p.sigma**2 * k.B), 1e-12, "shifted a*(0+)")


def _quadratic_residual(p, a):
    """Stationarity polynomial at the open-form optimum, scale-normalized."""
    ex = p.excess
    terms = (
        ex * p.sigma**2 * a * a,
        2.0 * p.c * p.sigma**2 * a,
        2.0 * p.rho * p.sigma * p.sigma1 * p.c,
        -p.sigma1**2 * ex,
    )
    scale = max(abs(t) for t in terms)
    return abs(sum(terms)) / scale


def zero_surplus_sweep(n=300, seed=20261018):
    """Seeded parameter sets for the zero-surplus closed forms: rho up to
    +-0.999, |mu - r| from 1e-9 to 0.5 of either sign, c_rho of either
    sign; the first is a rho = 0.999 set on which a root with a
    cancellation loses about 270 ulps of B."""
    rng = np.random.default_rng(seed)
    sets = [ro.ModelParams(c=0.05, r=0.1, mu=0.6, sigma=0.5, sigma1=1.0, rho=0.999, lam=0.3)]
    for i in range(n):
        r = float(rng.uniform(0.02, 1.0))
        gap = float(10.0 ** rng.uniform(-9.0, math.log10(0.5)) * rng.choice([-1.0, 1.0]))
        rho = (0.999, -0.999, float(rng.uniform(-0.999, 0.999)))[i % 3]
        sets.append(ro.ModelParams(
            c=float(10.0 ** rng.uniform(-3.0, 0.0)),
            r=r,
            mu=r + gap if r + gap > 0.0 else r - gap,
            sigma=float(10.0 ** rng.uniform(-1.3, 0.3)),
            sigma1=float(rng.uniform(0.2, 2.0)),
            rho=rho,
            lam=float(rng.uniform(0.05, 2.0)),
        ))
    assert {math.copysign(1.0, p.c_rho) for p in sets} == {-1.0, 1.0}
    assert {math.copysign(1.0, p.excess) for p in sets} == {-1.0, 1.0}
    gaps = [abs(p.excess) for p in sets]
    assert min(gaps) < 1e-8 and max(gaps) > 0.3
    return sets


def test_solve_starts_from_the_closed_forms():
    # the march starts from v'(0) = -B of derive_constants, so both start
    # values are the closed forms bit for bit; only node 0 is compared
    grid = ro.Grid(h=1e-8, n=2)
    exp1 = ro.make_exponential(1.0)
    for p in zero_surplus_sweep():
        k = ro.derive_constants(p)
        vg = ro.solve_v(p, exp1, grid)
        assert vg.vprime[0] == -k.B, p
        assert vg.a_star[0] == k.a_star_zero, p


def _reference_B_and_S(p):
    """B and S from their defining formulas in 80-digit arithmetic, on the
    float values of c_rho, sigma_rho^2 and (mu - r)/sigma."""
    with localcontext() as ctx:
        ctx.prec = 80
        c_rho, s2, kappa = Decimal(p.c_rho), Decimal(p.sigma_rho2), Decimal(p.excess / p.sigma)
        s = (c_rho * c_rho + kappa * kappa * s2).sqrt()
        B = (c_rho + s) / s2
        gamma = kappa * kappa / 2
        ex, sigma2 = Decimal(p.excess), Decimal(p.sigma) ** 2
        lam, r = Decimal(p.lam), Decimal(p.r)
        # textbook slope, with a*(0+) + rho sigma1 / sigma = (mu-r) / (sigma^2 B)
        S = ex / sigma2 - ((lam - r + 2 * gamma) * ex / (sigma2 * B) + c_rho * ex / sigma2) / s
        return B, S


def test_zero_surplus_constants_accurate():
    worst_B = worst_S = 0.0
    for p in zero_surplus_sweep():
        k = ro.derive_constants(p)
        ref_B, ref_S = _reference_B_and_S(p)
        worst_B = max(worst_B, float(abs(Decimal(k.B) - ref_B) / ref_B))
        S = ro.strategy_slope_zero(k, p)
        worst_S = max(worst_S, float(abs(Decimal(S) - ref_S) / abs(ref_S)))
    assert worst_B <= 1e-15, worst_B
    assert worst_S <= 1e-13, worst_S


def test_a_star_zero_stationarity(ex1, ex2):
    for p in (ex1, ex2):
        k = ro.derive_constants(p)
        assert _quadratic_residual(p, k.a_star_zero) <= 1e-10


def test_a_star_zero_stationarity_sweep():
    rng = np.random.default_rng(20260816)
    for _ in range(100):
        p = ro.ModelParams(
            c=float(rng.uniform(0.05, 3.0)),
            r=float(rng.uniform(0.02, 0.5)),
            mu=float(rng.uniform(0.02, 0.5)) + float(rng.uniform(0.01, 1.5)),
            sigma=float(rng.uniform(0.1, 1.5)),
            sigma1=float(rng.uniform(0.1, 1.5)),
            rho=float(rng.uniform(-0.85, 0.85)),
            lam=float(rng.uniform(0.05, 2.0)),
        )
        k = ro.derive_constants(p)
        assert k.B > 0
        assert _quadratic_residual(p, k.a_star_zero) <= 1e-10
        shifted = k.a_star_zero + p.rho * p.sigma1 / p.sigma
        assert_close(shifted, p.excess / (p.sigma**2 * k.B), 1e-12, "shifted a*(0+)")


def test_threshold_ordering_sweep():
    rng = np.random.default_rng(7)
    for _ in range(100):
        r = float(rng.uniform(0.02, 0.5))
        p = ro.ModelParams(
            c=float(rng.uniform(0.05, 3.0)),
            r=r,
            mu=r + float(rng.uniform(0.01, 1.5)),
            sigma=float(rng.uniform(0.1, 1.5)),
            sigma1=float(rng.uniform(0.1, 1.5)),
            rho=float(rng.uniform(-0.85, 0.85)),
            lam=float(rng.uniform(0.05, 2.0)),
            cap=float(rng.uniform(0.1, 5.0)),
        )
        k = ro.derive_constants(p, claim_mean=float(rng.uniform(0.2, 4.0)))
        assert k.rho2 < k.rho1
        assert k.rho4 < k.rho3


# ----------------------------------------------------- capped slope at zero

def test_capped_slope_full_cap(ex1):
    p = replace(ex1, rho=-0.5, cap=1.0)
    k = ro.derive_constants(p)
    assert_close(k.v_prime_zero, -2.0 * (p.c + p.excess) / p.quadratic_form(1.0), 1e-12,
                 "full-cap slope")


def test_capped_slope_zero_investment(ex1):
    p = replace(ex1, rho=0.5, cap=1.0)
    k = ro.derive_constants(p)
    assert_close(k.v_prime_zero, -2.0 * p.c / p.sigma1**2, 1e-12, "zero-investment slope")


def test_capped_slope_never_above_endpoints(ex1):
    # the minimized slope can only improve on either endpoint choice
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = replace(ex1, rho=float(rng.uniform(-0.9, 0.9)), cap=float(rng.uniform(0.1, 3.0)))
        k = ro.derive_constants(p)
        g0 = -2.0 * p.c / p.sigma1**2
        gA = -2.0 * (p.c + p.excess * p.cap) / p.quadratic_form(p.cap)
        assert k.v_prime_zero <= min(g0, gA) + 1e-12


# -------------------------------------------------------------- zero regime

def test_zero_regime_table(ex1):
    for rho, expected in ((-0.5, ro.Regime.FULL_CAP), (-0.2, ro.Regime.INTERIOR),
                          (0.5, ro.Regime.ZERO_INVESTMENT)):
        p = replace(ex1, rho=rho, cap=1.0)
        rep = ro.classify_zero_regime(p)
        assert rep.regime is expected, rho


def test_zero_regime_boundaries(ex1):
    k = ro.derive_constants(replace(ex1, cap=1.0))
    on_rho1 = replace(ex1, rho=k.rho1, cap=1.0)
    rep = ro.classify_zero_regime(on_rho1)
    assert rep.regime is ro.Regime.BOUNDARY
    assert rep.boundary == "rho1"
    assert rep.resolution is ro.Regime.ZERO_INVESTMENT

    on_rho2 = replace(ex1, rho=k.rho2, cap=1.0)
    rep = ro.classify_zero_regime(on_rho2)
    assert rep.regime is ro.Regime.BOUNDARY
    assert rep.boundary == "rho2"
    assert rep.resolution is ro.Regime.FULL_CAP


def test_zero_regime_requires_cap_and_edge(ex1):
    with pytest.raises(ValueError, match="cap"):
        ro.classify_zero_regime(ex1)
    flat = replace(ex1, mu=ex1.r, cap=1.0)
    with pytest.raises(ValueError, match="mu"):
        ro.classify_zero_regime(flat)
    inverted = replace(ex1, mu=ex1.r / 2.0, cap=1.0)
    with pytest.raises(ValueError, match="mu"):
        ro.classify_zero_regime(inverted)


# ---------------------------------------------------------- infinity regime

def test_infinity_regime_cases(ex1, ex2):
    p = replace(ex1, cap=1.0)   # open-form limit 10.4 far above the cap
    assert ro.classify_infinity_regime(p, 1.0).regime is ro.Regime.FULL_CAP

    p = replace(ex1, cap=20.0)  # cap clears the limit
    assert ro.classify_infinity_regime(p, 1.0).regime is ro.Regime.INTERIOR

    p = replace(ex2, rho=0.9, cap=1.0)  # drag pushes the limit below zero
    assert ro.classify_infinity_regime(p, 2.0).regime is ro.Regime.ZERO_INVESTMENT


def test_infinity_regime_boundaries(ex2):
    # lam > r on both benchmark 2 thresholds, which lie inside |rho| < 1
    k0 = ro.derive_constants(replace(ex2, cap=0.5), claim_mean=2.0)
    on_rho3 = replace(ex2, rho=k0.rho3, cap=0.5)
    rep = ro.classify_infinity_regime(on_rho3, 2.0)
    assert (rep.regime, rep.boundary, rep.resolution) == (
        ro.Regime.BOUNDARY, "rho3", ro.Regime.INTERIOR)

    on_rho4 = replace(ex2, rho=k0.rho4, cap=0.5)
    rep = ro.classify_infinity_regime(on_rho4, 2.0)
    assert (rep.regime, rep.boundary, rep.resolution) == (
        ro.Regime.BOUNDARY, "rho4", ro.Regime.FULL_CAP)


def test_infinity_regime_tie_unresolved(ex2):
    tied = replace(ex2, lam=ex2.r, cap=0.5)
    k = ro.derive_constants(tied, claim_mean=2.0)
    on_rho3 = replace(tied, rho=k.rho3)
    rep = ro.classify_infinity_regime(on_rho3, 2.0)
    assert rep.regime is ro.Regime.BOUNDARY
    assert rep.resolution is None
    assert "lam = r" in rep.note
