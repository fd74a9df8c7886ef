"""Seeded property sweep over both value-slope solvers.

Draws parameter sets at the regime boundaries (rho = rho1, rho = rho2),
with mu <= r and lam = r among them, over every claim family and both a
fine and a coarse step, on short grids.  Each solve either fails at the
first node with the documented "trapezoid anchor went nonpositive" error,
exactly when the closed-form slope at 0 makes the first anchor
1 + h/2 v'(0) nonpositive, or returns v > 0 with the cap respected and,
unrestricted, v non-increasing.

The capped value slope is not asserted monotone: when the claim outflow
outweighs the drift, the capped survival probability is convex there (v
rises), as the constant-strategy ODE confirms, and the solver reproduces it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ruinopt as ro

FAMILIES = {
    "exponential": st.tuples(st.floats(0.5, 3.0)),
    "half_normal": st.tuples(st.floats(0.3, 2.0)),
    "log_normal": st.tuples(st.floats(-1.0, 0.5), st.floats(0.3, 1.5)),
    "weibull": st.tuples(st.floats(0.3, 2.0), st.floats(0.4, 3.0)),
    "pareto": st.tuples(st.floats(0.5, 3.0), st.floats(1.2, 4.0)),
}


@st.composite
def cases(draw):
    c = draw(st.floats(0.2, 1.0))
    r = draw(st.floats(0.02, 0.4))
    sigma = draw(st.floats(0.2, 1.0))
    sigma1 = draw(st.floats(0.1, 0.6))
    cap = draw(st.floats(0.1, 1.5))
    lam = r if draw(st.booleans()) else draw(st.floats(0.05, 1.0))
    edge = draw(st.sampled_from(["mu < r", "mu = r", "mu > r"]))
    if edge == "mu < r":
        mu = r - draw(st.floats(0.01, 0.9)) * r
    elif edge == "mu = r":
        mu = r
    else:
        mu = r + draw(st.floats(0.01, 0.2))
    base = ro.ModelParams(c=c, r=r, mu=mu, sigma=sigma, sigma1=sigma1, rho=0.0, lam=lam, cap=cap)
    k = ro.derive_constants(base)
    rho = draw(st.sampled_from(["rho1", "rho2"]))
    rho = k.rho1 if rho == "rho1" else k.rho2
    assume(abs(rho) < 0.99)
    family = draw(st.sampled_from(sorted(FAMILIES)))
    dist = ro.from_config(family, *draw(FAMILIES[family]))
    grid = ro.Grid.from_xmax(draw(st.sampled_from([5e-3, 2e-2])), draw(st.sampled_from([1.0, 2.0])))
    return replace(base, rho=rho), dist, grid


@pytest.mark.parametrize("capped", [False, True], ids=["unconstrained", "constrained"])
@given(case=cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_solver_sweep(capped, case):
    params, dist, grid = case
    if not capped:
        params = replace(params, cap=None)
    h = grid.h
    first_anchor = 1.0 + 0.5 * h * ro.derive_constants(params).v_prime_zero
    try:
        vg = ro.solve_v(params, dist, grid)
    except RuntimeError as exc:
        assert f"trapezoid anchor went nonpositive at x={h:.6g};" in str(exc)
        assert first_anchor <= 1e-12, first_anchor
        return
    assert first_anchor > -1e-12, first_anchor
    assert np.all(vg.v > 0.0)
    if capped:
        # the solver and derive_constants share one minimiser
        assert vg.vprime[0] == ro.derive_constants(params).v_prime_zero
        assert np.all((vg.a_star >= 0.0) & (vg.a_star <= params.cap))
    else:
        assert np.all(np.diff(vg.v) <= 0.0)
