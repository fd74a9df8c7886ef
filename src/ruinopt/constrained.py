"""Value-slope solver for capped investment.

When the invested amount is restricted to [0, cap], with the cap taken from
ModelParams.cap (its only source), the dynamic programming equation for the
scaled value slope v (v(0) = 1) reads v' = T(v) with

    T(w)(x) = min over a in [0, cap] of
        2 * [ M(W)(x) - (c + r x + (mu-r) a) w(x) ] / Q(a),

where Q(a) = sigma^2 a^2 + 2 rho sigma sigma1 a + sigma1^2 is the combined
diffusion coefficient, W is the prefix integral of w, and the claims term
is evaluated through the claim tail H:

    M(W)(x) = lam * int_0^x H(y) w(x - y) dy.

For fixed x and w the candidate curvature is a smooth ratio in a, so the
minimum sits at an endpoint or at a root of an explicit quadratic; no line
search is ever needed.  This minimiser, `curvature_best`, lives in
`model.py`, where `derive_constants` also takes the capped v'(0+) from it.
The march uses the same implicit trapezoid closure as the unrestricted
solver: node j solves w = alpha + h/2 * min_a G_a(w), where G_a is the
candidate curvature with the claims term q_j + lam h/2 w (q_j the
trapezoid sum over the history).  For a fixed a the equation is affine
in w, with root w_a = N(a) / D(a):

    N(a) = alpha Q(a) + h q_j,
    D(a) = Q(a) + h (c + r x_j + (mu-r) a) - lam h^2 / 2.

N > 0 for every a (alpha > 0, Q > 0, q_j >= 0), so
w - alpha - h/2 G_a(w) = (D(a) w - N(a)) / Q(a) is negative at w = 0 and
the node is where the largest of these lines first reaches 0:

    w* = 1 / max over a in [0, cap] of D(a) / N(a).

An a with D(a) <= 0 never reaches 0, so no contraction check is needed;
the node has a positive root exactly when the maximum is positive.  The
maximiser is an endpoint or a root of the stationary quadratic of D/N,

    (mu-r) sigma^2 alpha a^2 + 2 sigma^2 E a
        + 2 rho sigma sigma1 E - (mu-r) (alpha sigma1^2 + h q_j) = 0,

with E = alpha (c + r x_j - lam h/2) - q_j, and it is also the argmin of
the candidate curvature at w*: the node returns it as the strategy a*_j.
As in the unrestricted solver, node j sees only v_0 .. v_{j-1} and itself
(the equation is causal), so the single forward pass of
`numerics.march_value_slope` is the exact discrete solution.

The march solves one node at a time, since each node needs the one
before it; each solve hands it one node rule, `_node_solver`, which forms
the node-independent scalars once.  The node is told which amounts it may
take; for the capped solve these are `model._candidates` (0, cap, then the
roots in [0, cap]).  It evaluates D/N at each inline, grouping Q(a) and
the curvature as `quadratic_form` and `curvature_candidate` do, and keeps
a candidate whose ratio is strictly larger, or equal at a smaller amount,
so it picks the amount `model._best_candidate` picks.  The certificate,
`hjb_residual`, is the one both solvers share (`results.HjbResidual`): it
has every v_j at hand, so it evaluates T(v) at all nodes in one call of
the array `curvature_best`, which picks the same candidate bit for bit.

With the amount given instead of chosen, the same node prices any
feedback strategy a: `evaluate_policy` hands `_node_solver` the one amount
a_j at node j, so node j is w = 1 / (D(a_j) / N(a_j)), which has a
positive root exactly when that ratio is positive, and it starts from
v'(0) = -2 (c + (mu-r) a_0) / Q(a_0).  Fed a capped solve's own a*, it
returns that solve bit for bit.  Its psi, through `results.normalize_delta`,
is the ruin probability under a, from which `simulate` takes the level
where its paths stop.
"""

from __future__ import annotations

import math

import numpy as np

from .claims import ClaimDistribution
from .model import ModelParams, _candidates, curvature_best
from .numerics import Grid, march_value_slope
from .results import HjbResidual, ValueGrid

__all__ = [
    "solve_v_constrained",
    "evaluate_policy",
    "hjb_residual",
]


def _node_solver(p: ModelParams, h: float, choices=None):
    """The node rule of a march with step h: (x, q, alpha) -> (v_j, v'_j,
    a_j), with w = 1 / max D(a) / N(a) at surplus x, maximised at a_j over
    the amounts choices(drift, q, alpha) gives (drift = c + r x).  By
    default these are the capped candidates in [0, params.cap]."""
    half_h = 0.5 * h
    c, r, excess = p.c, p.r, p.excess
    lam_half_h, lam_h_half_h = p.lam * half_h, p.lam * h * half_h
    s2, two_rss, s12 = p.sigma**2, 2.0 * p.rho * p.sigma * p.sigma1, p.sigma1**2
    if choices is None:
        cap = p.cap

        def choices(drift: float, q: float, alpha: float) -> list[float]:
            E = alpha * (drift - lam_half_h) - q
            qc = two_rss * E - excess * (alpha * s12 + h * q)
            return _candidates(excess * s2 * alpha, 2.0 * s2 * E, qc, cap)

    def solve(x: float, q: float, alpha: float) -> tuple[float, float, float]:
        drift = c + r * x
        hq = h * q
        # the largest D/N, at the smallest amount among exact ties; a NaN
        # ratio never wins.  Q(a) is grouped as ModelParams.quadratic_form
        best, a, Qa = -math.inf, 0.0, s12
        for b in choices(drift, q, alpha):
            Qb = s2 * b * b + two_rss * b + s12
            ratio = (Qb + h * (drift + excess * b) - lam_h_half_h) / (alpha * Qb + hq)
            if ratio > best or (ratio == best and b < a):
                best, a, Qa = ratio, b, Qb
        if not best > 0.0:
            raise RuntimeError(f"node solve found no positive root at x={x:.6g}")
        w = 1.0 / best
        # curvature_candidate(p, a, x, w, q + lam h/2 w), grouped as it groups
        return w, 2.0 * (q + lam_half_h * w - (drift + excess * a) * w) / Qa, a

    return solve


def evaluate_policy(params: ModelParams, dist: ClaimDistribution, grid: Grid, a) -> ValueGrid:
    """March the scaled value slope of the fixed feedback strategy a; v(0) = 1.

    a holds the amount invested at each grid node, shape (grid.n,), and
    params.cap is not read.  Node j is `_node_solver`'s node with a_j its
    only choice, so fed a capped solve's own a* the march gives that solve
    back bit for bit.  The start is v'(0) = -2 (c + (mu-r) a_0) / Q(a_0).
    The returned ValueGrid's a* is a itself, so `normalize_delta` prices
    the strategy: its psi is the ruin probability under a.

    Raises RuntimeError naming x_j at the first node whose D(a_j) / N(a_j)
    is not positive: D(a_j) <= 0, where the node has no positive root, or
    NaN, as when a_j is NaN or Q(a_j) overflows.  The march raises as the
    solvers do on a nonpositive anchor or an underflowing v.
    """
    p = params
    amounts = np.asarray(a, dtype=float)
    if amounts.shape != (grid.n,):
        raise ValueError(f"need one amount per grid node, shape ({grid.n},), got shape {amounts.shape}")
    amounts = amounts.tolist()
    later = iter(amounts[1:])   # the march solves each node once, in order
    solve = _node_solver(p, grid.h, lambda drift, q, alpha: (next(later),))
    a0 = amounts[0]
    start = (-2.0 * (p.c + p.excess * a0) / p.quadratic_form(a0), a0)
    return ValueGrid(grid, *march_value_slope(grid, dist, p.lam, start, solve))


def solve_v_constrained(params: ModelParams, dist: ClaimDistribution, grid: Grid) -> ValueGrid:
    """March the scaled value slope of the capped problem; v(0) = 1.

    The cap is params.cap.  Each node's minimizing investment is recorded
    as a* alongside v, so the strategy is exactly the argmin of each
    node's solve.

    The march stops with RuntimeError ("trapezoid anchor went nonpositive")
    at the first node, x = h, when h >= 2 / |v'(0)|, with v'(0) the
    minimum of -2 (c + (mu-r) a) / Q(a) over a in [0, cap]
    (`derive_constants(...).v_prime_zero`).  The seeded sweep in
    tests/test_solver_sweep.py finds it at no later node.  Unlike the
    unrestricted slope, v may rise where the claim outflow outweighs the
    drift: the capped survival probability can be convex there.
    """
    p = params
    if p.cap is None:
        raise ValueError("capped solve needs an investment cap (params.cap)")
    start = curvature_best(p, 0.0, 1.0, 0.0)
    return ValueGrid(grid, *march_value_slope(grid, dist, p.lam, start, _node_solver(p, grid.h)))


def hjb_residual(vg: ValueGrid, params: ModelParams, dist: ClaimDistribution) -> HjbResidual:
    """The residual certificate of a capped solve: T minimises over [0, params.cap]."""
    return HjbResidual.of(vg, params, dist)
