"""Closed-form expansions, tail fitting, and the no-investment oracle."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson

import ruinopt as ro
from conftest import assert_close, textbook_slopes


def test_strategy_slope_frozen(k1, ex1, k2, ex2):
    assert_close(ro.strategy_slope_zero(k1, ex1), 0.020394697973225462, 1e-12, "slope 1")
    assert_close(ro.strategy_slope_zero(k2, ex2), -0.008872551692536784, 1e-12, "slope 2")


def test_slope_dual_forms_agree_on_random_params():
    # with mu - r of at least 0.01 the two textbook forms keep enough digits
    # to agree with the product form to 1e-10; sweep a parameter cloud
    rng = np.random.default_rng(20260816)
    for _ in range(100):
        r = float(rng.uniform(0.05, 1.0))
        p = ro.ModelParams(
            c=float(rng.uniform(0.1, 2.0)),
            r=r,
            mu=r + float(rng.uniform(0.01, 1.0)),
            sigma=float(rng.uniform(0.05, 2.0)),
            sigma1=float(rng.uniform(0.05, 2.0)),
            rho=float(rng.uniform(-0.95, 0.95)),
            lam=float(rng.uniform(0.05, 2.0)),
        )
        k = ro.derive_constants(p)
        s = ro.strategy_slope_zero(k, p)
        for form in textbook_slopes(k, p):
            assert abs(form - s) <= 1e-10 * abs(s), (p, form, s)


def test_slope_zero_edge(ex1):
    p = replace(ex1, mu=ex1.r)  # no stock edge, nothing to unwind
    assert ro.strategy_slope_zero(ro.derive_constants(p), p) == 0.0


def test_value_expansion_matches_solver_near_zero(k1, vg40):
    expansion = ro.value_expansion_zero(k1)
    x = 0.005
    approx = expansion(x)
    solved = float(np.interp(x, vg40.x, vg40.V))
    assert abs(solved - approx) <= 0.01 * approx
    # vectorized evaluation and the parabola shape itself
    xs = np.array([0.0, 0.01, 0.02])
    np.testing.assert_allclose(expansion(xs), xs - 0.5 * k1.B * xs**2, rtol=0, atol=0)


def test_infinity_expansion_frozen(ex1, ex2):
    lim1, c1 = ro.strategy_expansion_infinity_exp(ex1, 1.0)
    assert_close(lim1, 10.4, 1e-12, "limit 1")
    assert_close(c1, -0.625, 1e-12, "coeff 1")
    lim2, c2 = ro.strategy_expansion_infinity_exp(ex2, 2.0)
    assert_close(lim2, 0.11419753086419755, 1e-12, "limit 2")
    assert_close(c2, 0.5925925925925927, 1e-12, "coeff 2")
    with pytest.raises(ValueError):
        ro.strategy_expansion_infinity_exp(ex1, -1.0)


def test_ruin_tail_shape(ex1):
    # compensating the tail must give back the constant exactly
    K1 = 0.37
    m = 1.0
    for x in (2.0, 5.0, 10.0, 20.0):
        val = ro.ruin_tail_exp(ex1, m, K1, x)
        comp = val * math.exp(x / m) * x ** (1.0 - ex1.lam / ex1.r)
        assert_close(comp, K1, 1e-12, f"compensated tail at {x}")
    with pytest.raises(ValueError):
        ro.ruin_tail_exp(ex1, m, K1, 0.0)
    with pytest.raises(ValueError):
        ro.ruin_tail_exp(ex1, m, K1, np.array([1.0, -2.0]))


def test_fit_tail_constant(vg40, ex1):
    fit = ro.fit_tail_constant(vg40, ex1, 1.0)
    assert fit.ok
    assert fit.window == (30.0, 40.0)
    assert fit.plateau_ratio <= 1.02        # observed 1.0013
    assert fit.K_vprime > 0 and fit.K1_ruin > 0
    norm = ro.normalize_delta(vg40, claim_mean=1.0)
    assert_close(fit.K1_ruin, 1.0 * fit.K_vprime / norm.v_inf_hat, 1e-12, "K1 link")


def test_fit_window_not_asymptotic(ex1, exp1):
    # a grid ending at 0.5 puts the window on [0.375, 0.5], hugging the
    # origin, where v decays at rate B ~ 22 rather than 1/m, so the
    # compensated product is nowhere near flat
    vg = ro.solve_v(ex1, exp1, ro.Grid.from_xmax(5e-3, 0.5))
    fit = ro.fit_tail_constant(vg, ex1, 1.0)
    assert fit.window == (0.375, 0.5)
    assert not fit.ok
    assert fit.plateau_ratio > 1.05


def test_fit_window_validation(ex1, exp1):
    # a grid ending at 0.01 leaves one node in the window [0.0075, 0.01]
    vg = ro.solve_v(ex1, exp1, ro.Grid.from_xmax(5e-3, 0.01))
    with pytest.raises(ValueError, match="fewer than 4"):
        ro.fit_tail_constant(vg, ex1, 1.0)


def test_constrained_infinity_cases(ex1, ex2):
    p = replace(ex1, cap=1.0)
    assert ro.classify_infinity_regime(p, 1.0).regime is ro.Regime.FULL_CAP
    assert ro.constrained_infinity_strategy(p, 1.0) == (1.0, 0.0)

    p = replace(ex1, cap=20.0)
    assert ro.classify_infinity_regime(p, 1.0).regime is ro.Regime.INTERIOR
    limit, coeff = ro.constrained_infinity_strategy(p, 1.0)
    assert_close(limit, 10.4, 1e-12, "interior limit")
    assert_close(coeff, -0.625, 1e-12, "interior coeff")

    p = replace(ex2, rho=0.9, cap=1.0)
    assert ro.classify_infinity_regime(p, 2.0).regime is ro.Regime.ZERO_INVESTMENT
    assert ro.constrained_infinity_strategy(p, 2.0) == (0.0, 0.0)


def test_capped_large_surplus_law_matches_the_solve(ex1, ex2, exp1):
    # bench 1, cap 1, FULL_CAP: a* sits on the cap from x = 1 to 40
    p = replace(ex1, cap=1.0)
    assert ro.constrained_infinity_strategy(p, 1.0) == (1.0, 0.0)
    vg = ro.solve_v(p, exp1, ro.Grid.from_xmax(5e-3, 40.0))
    assert np.all(vg.a_star[vg.x >= 1.0] == 1.0)

    # bench 2, exponential claims of mean 2, cap 1, INTERIOR: a* meets
    # limit + coeff / x up to O(1/x^2), x^2 |gap| about 0.39 to 0.40
    p = replace(ex2, cap=1.0)
    assert ro.classify_infinity_regime(p, 2.0).regime is ro.Regime.INTERIOR
    limit, coeff = ro.constrained_infinity_strategy(p, 2.0)
    vg = ro.solve_v(p, ro.make_exponential(0.5), ro.Grid.from_xmax(5e-3, 80.0))
    for x in (20.0, 40.0, 80.0):
        a = float(vg.a_star[round(x / 5e-3)])
        gap = x * x * abs(a - (limit + coeff / x))
        assert 0.3 <= gap <= 0.5, (x, gap)


def test_no_investment_reference_against_direct_quadrature(ex1):
    # same two integrals, rebuilt with a dense Simpson rule instead of quad
    c, r, lam, m = ex1.c, ex1.r, ex1.lam, 1.0
    expo = lam / r - 1.0
    u = np.arange(0.0, 200.0 + 1e-12, 1e-4)
    f = np.exp(-u / m) * (1.0 + r * u / c) ** expo
    full = simpson(f, x=u)
    x0 = 1.0
    mask = u >= x0
    upper = simpson(f[mask], x=u[mask])
    direct = upper / (c / lam + full)
    val = ro.no_investment_ruin_reference(c, r, lam, m, x0)
    assert_close(val, direct, 1e-8, "no-investment ruin at 1")


def test_no_investment_reference_shape(ex1):
    c, r, lam, m = ex1.c, ex1.r, ex1.lam, 1.0
    psi0 = ro.no_investment_ruin_reference(c, r, lam, m, 0.0)
    assert 0.0 < psi0 < 1.0
    vals = [ro.no_investment_ruin_reference(c, r, lam, m, x) for x in (0.0, 1.0, 5.0, 20.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert ro.no_investment_ruin_reference(c, r, lam, m, 50.0) < 1e-20
    with pytest.raises(ValueError):
        ro.no_investment_ruin_reference(-c, r, lam, m, 1.0)
    with pytest.raises(ValueError):
        ro.no_investment_ruin_reference(c, r, lam, m, -1.0)


def test_asymptote_report(ex1, k1):
    rep = ro.asymptote_report(ex1, claim_mean=1.0)
    assert rep.a_star_zero == k1.a_star_zero
    assert rep.B == k1.B
    assert_close(rep.strategy_slope_zero, 0.020394697973225462, 1e-12, "report slope")
    assert_close(rep.infinity_limit, 10.4, 1e-12, "report limit")
    assert_close(rep.infinity_coeff, -0.625, 1e-12, "report coeff")
    assert rep.tail_exponent == k1.tail_exponent

    bare = ro.asymptote_report(ex1)
    assert bare.infinity_limit is None and bare.infinity_coeff is None and bare.tail_exponent is None
