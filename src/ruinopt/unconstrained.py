"""Value-slope solver for unrestricted investment.

With no cap on the invested amount, the pointwise optimization inside the
dynamic programming equation can be carried out in closed form, leaving a
first-order integro-differential equation for the scaled value slope
v = V' / V'(0), v(0) = 1:

    v'(x) = L(v)(x),

where L(v) is the negative root of the curvature quadratic

    0.5 * sigma_rho^2 * y^2 + L1(v)(x) * y - 0.5 * L2(v)(x)^2 = 0,

built from the drift-and-claims functional

    L1(v)(x) = (c_rho + r x) v(x) - lam * int_0^x H(y) v(x - y) dy

and the excess-return functional L2(v)(x) = (mu - r) / sigma * v(x).
H is the claim-size tail; integrating the claims term against H instead
of the density keeps it stable where v has decayed by many orders of
magnitude.  At x = 0, with v(0) = 1, the quadratic's negative root is
v'(0) = -B; the march takes it from `model.derive_constants`, which forms
it without cancellation.

The march discretizes v(x_j) = v(x_{j-1}) + int of v' with the trapezoid
rule, so node j solves w = alpha + h/2 * y with y = L(w) and
alpha = v_{j-1} + h/2 v'_{j-1}.  The claims integral at node j is
q_j + lam h/2 w, with q_j the trapezoid sum over the history, so with
kappa = (mu - r) / sigma and p_j = c_rho + r x_j - lam h/2 the slope y is
the negative root of

    0.5 * sigma_rho^2 * y^2 + (p_j w - q_j) * y - 0.5 * kappa^2 * w^2 = 0.

Substituting w = alpha + h/2 * y leaves one quadratic A y^2 + B y + C = 0:

    A = 0.5 sigma_rho^2 + h/2 p_j - 0.5 (kappa h/2)^2,
    B = p_j alpha - q_j - kappa^2 alpha h/2,
    C = -0.5 (kappa alpha)^2.

It is <= 0 at y = 0 (w = alpha) and > 0 at y = -2 alpha/h (w = 0), so it
has exactly one root in (-2 alpha/h, 0]: the node, solved in closed form
with the cancellation-free pair of root formulas.  B >= 0 forces
p_j >= kappa^2 h/2 and so A > 0, the case that divides by A.  Then
v_j = alpha + h/2 y, v'_j = y and a*_j = -(mu-r) v_j / (sigma^2 y) - rho
sigma1 / sigma (the hedge alone, undivided, when mu = r).  Each solve
hands the march one node rule, `_node_solver`, which forms the
node-independent scalars once and keeps the grouping above.  An explicit
sweep would have local amplification h/2 * |dL/dw| well above 1 at large
x; the implicit closure has none.  The equation is
causal: node j sees only v_0 .. v_{j-1} and itself, so the single forward
pass of `numerics.march_value_slope` is the exact discrete solution.

The certificate, `hjb_residual`, shares none of this root algebra: it is
the capped solver's (`results.HjbResidual`), with T(v) the HJB's own
minimum of the candidate curvature, `model.curvature_best`, over every
real a.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .claims import ClaimDistribution
from .model import ModelParams, derive_constants
from .numerics import Grid, march_value_slope
from .results import HjbResidual, ValueGrid

__all__ = [
    "solve_v_unconstrained",
    "hjb_residual",
]


def _node_solver(p: ModelParams, h: float):
    """The node rule of a march with step h: (x, q, alpha) -> (v_j, v'_j,
    a*_j), from the closed-form root of w = alpha + h/2 L(w) at surplus x."""
    half_h = 0.5 * h
    kappa = p.excess / p.sigma
    c_rho, r, lam_half_h = p.c_rho, p.r, p.lam * half_h
    half_sr2, shrink = 0.5 * p.sigma_rho2, 0.5 * (kappa * half_h) ** 2
    neg_excess, s2, hedge = -p.excess, p.sigma**2, p.hedge

    def solve(x: float, q: float, alpha: float) -> tuple[float, float, float]:
        pj = c_rho + r * x - lam_half_h
        A = half_sr2 + half_h * pj - shrink
        B = pj * alpha - q - kappa * kappa * alpha * half_h
        C = -0.5 * (kappa * alpha) ** 2
        R = math.sqrt(B * B - 4.0 * A * C)
        y = -(B + R) / (2.0 * A) if B >= 0.0 else 2.0 * C / (R - B)
        w = alpha + half_h * y
        if not (math.isfinite(w) and w > 0.0):
            raise RuntimeError(f"unconstrained node solve found no positive root at x={x:.6g}")
        # without an excess return y may be -0.0: the hedge alone, undivided
        return w, y, (neg_excess * w / (s2 * y) - hedge if neg_excess else -hedge)

    return solve


def solve_v_unconstrained(params: ModelParams, dist: ClaimDistribution, grid: Grid) -> ValueGrid:
    """March the scaled value slope v across the grid; v(0) = 1.

    Returns the slope v, its prefix integral V, the operator values
    v' = L(v) and the optimal investment

        a*(x_j) = -(mu-r) v / (sigma^2 v') - rho sigma1 / sigma,

    which each node takes from its own operator value, never a finite
    difference of v.  Investment is unrestricted here: params.cap, if set,
    is ignored.

    The march starts from v'(0) = -B and a*(0) of `derive_constants` (the
    hedge alone when mu = r), so both equal the closed forms bit for bit.  It stops with RuntimeError
    ("trapezoid anchor went nonpositive") at the first node, x = h, when
    h >= 2 / B, with B close to 2 c_rho / sigma_rho^2 when c_rho > 0 and
    sigma_rho^2 is small.  The seeded sweep in
    tests/test_solver_sweep.py finds it at no later node.
    """
    p = params
    k = derive_constants(p)
    start = (-k.B, k.a_star_zero if p.excess else -p.hedge)
    return ValueGrid(grid, *march_value_slope(grid, dist, p.lam, start, _node_solver(p, grid.h)))


def hjb_residual(vg: ValueGrid, params: ModelParams, dist: ClaimDistribution) -> HjbResidual:
    """The residual certificate of an unrestricted solve: T minimises over
    every real a, since the solve ignores params.cap."""
    return HjbResidual.of(vg, replace(params, cap=None), dist)
