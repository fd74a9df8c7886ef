"""Value-slope solver for unrestricted and capped investment.

The dynamic programming equation for the scaled value slope v (v(0) = 1)
reads v' = T(v) with

    T(w)(x) = min over the allowed a of
        2 * [ M(W)(x) - (c + r x + (mu-r) a) w(x) ] / Q(a),

where Q(a) = sigma^2 a^2 + 2 rho sigma sigma1 a + sigma1^2 is the combined
diffusion coefficient, W is the prefix integral of w, and the claims term
is evaluated through the claim tail H:

    M(W)(x) = lam * int_0^x H(y) w(x - y) dy.

Integrating the claims term against H instead of the density keeps it
stable where v has decayed by many orders of magnitude.  The allowed
amounts come from ModelParams.cap, their only source: every real a when
it is None, [0, cap] otherwise.  `solve_v` reads it there and is the one
place that picks the node rule and the start from it.

Both solves march one implicit trapezoid closure: node j solves
w = alpha + h/2 * y with y = T(w) at x_j, alpha = v_{j-1} + h/2 v'_{j-1},
and the claims integral q_j + lam h/2 w, q_j the trapezoid sum over the
history.  An explicit sweep would have local amplification
h/2 * |dT/dw| well above 1 at large x; the implicit closure has none.
The equation is causal: node j sees only v_0 .. v_{j-1} and itself, so
the single forward pass of `numerics.march_value_slope`, one node at a
time, is the exact discrete solution.  Each solve hands it one node
rule, which forms the node-independent scalars once.

Unrestricted investment (`_unrestricted_node`).  With no cap the
pointwise minimisation is carried out in closed form, leaving a
first-order integro-differential equation

    v'(x) = L(v)(x),

where L(v) is the negative root of the curvature quadratic

    0.5 * sigma_rho^2 * y^2 + L1(v)(x) * y - 0.5 * L2(v)(x)^2 = 0,

built from the drift-and-claims functional

    L1(v)(x) = (c_rho + r x) v(x) - lam * int_0^x H(y) v(x - y) dy

and the excess-return functional L2(v)(x) = (mu - r) / sigma * v(x).
At x = 0, with v(0) = 1, the quadratic's negative root is v'(0) = -B;
the march takes it from `model.derive_constants`, which forms it without
cancellation.  With kappa = (mu - r) / sigma and
p_j = c_rho + r x_j - lam h/2, the node's slope y is the negative root of

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
sigma1 / sigma (the hedge alone, undivided, when mu = r).  C and B^2
scale like v^2, so they leave the normal range long before v does (below
v of about 1.5e-154 / kappa) and the root loses its digits: the node
refuses, with FloatingPointError naming x, where either is nonzero and
below the least normal double.

Capped investment (`_capped_node`).  For fixed x and w the candidate
curvature is a smooth ratio in a, so the minimum over [0, cap] sits at an
endpoint or at a root of an explicit quadratic; no line search is ever
needed.  This minimiser, `curvature_best`, lives in `model.py`, where
`derive_constants` also takes the capped v'(0+) from it.  Node j solves
w = alpha + h/2 * min_a G_a(w), where G_a is the candidate curvature with
the claims term q_j + lam h/2 w.  For a fixed a the equation is affine in
w, with root w_a = N(a) / D(a):

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
The node is told which amounts it may take; for the capped solve these
are `model._candidates` (0, cap, then the roots in [0, cap]).  It
evaluates D/N at each inline, grouping Q(a) and the curvature as
`quadratic_form` and `curvature_candidate` do, and keeps a candidate
whose ratio is strictly larger, or equal at a smaller amount, so it picks
the amount `model._best_candidate` picks.

With the amount given instead of chosen, the same node prices any
feedback strategy a: `evaluate_policy` hands `_capped_node` the one amount
a_j at node j, so node j is w = 1 / (D(a_j) / N(a_j)).  Its psi, through
`results.normalize_delta`, is the ruin probability under a, from which
`simulate` takes the level where its paths stop.

The certificate, `results.hjb_residual`, shares none of the node algebra:
it evaluates T(v), the HJB's own minimum over the amounts params.cap
allows, at all nodes in one call of the array `curvature_best`, which
picks the capped node's candidate bit for bit.  It forms M(W) as above,
one tail convolution of the solved v, and both of its channels read it:
the generator's M(V) too, for the stability the tail form gives here.
"""

from __future__ import annotations

import math

import numpy as np

from .claims import ClaimDistribution
from .model import ModelParams, _candidates, curvature_best, derive_constants
from .numerics import _TINY, Grid, _out_of_range, march_value_slope
from .results import ValueGrid

__all__ = ["solve_v", "evaluate_policy"]


def _unrestricted_node(p: ModelParams, h: float):
    """The node rule of an unrestricted march with step h: (x, q, alpha) ->
    (v_j, v'_j, a*_j), the closed-form root of w = alpha + h/2 L(w) at x."""
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
        BB = B * B
        if 0.0 < -C < _TINY or 0.0 < BB < _TINY:   # a square that has lost digits
            raise _out_of_range("the node's quadratic", x)
        R = math.sqrt(BB - 4.0 * A * C)
        y = -(B + R) / (2.0 * A) if B >= 0.0 else 2.0 * C / (R - B)
        w = alpha + half_h * y
        if not (math.isfinite(w) and w > 0.0):
            raise RuntimeError(f"unconstrained node solve found no positive root at x={x:.6g}")
        # without an excess return y may be -0.0: the hedge alone, undivided
        return w, y, (neg_excess * w / (s2 * y) - hedge if neg_excess else -hedge)

    return solve


def _capped_node(p: ModelParams, h: float, choices=None):
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


def solve_v(params: ModelParams, dist: ClaimDistribution, grid: Grid) -> ValueGrid:
    """March the scaled value slope of the optimal strategy; v(0) = 1.

    The amounts allowed are those of params.cap: every real a when it is
    None, [0, cap] otherwise.  Returns v, its prefix integral V, the
    operator values v' = T(v) and the optimal investment a*, which each
    node takes from its own minimisation, never a finite difference of v
    (unrestricted, a* = -(mu-r) v / (sigma^2 v') - rho sigma1 / sigma).
    The march starts from v'(0) = -B and a*(0) of `derive_constants` (the
    hedge alone when mu = r) unrestricted, and from `curvature_best` at
    x = 0 capped, so both equal the closed forms bit for bit.

    It stops with RuntimeError ("trapezoid anchor went nonpositive") at
    the first node, x = h, when h >= 2 / |v'(0)|; unrestricted, |v'(0)| = B
    is close to 2 c_rho / sigma_rho^2 when c_rho > 0 and sigma_rho^2 is
    small.  The seeded sweep in tests/test_solver_sweep.py finds it at no
    later node.
    It stops with FloatingPointError, naming x and carrying it as the
    attribute x, at the first node whose v, or unrestricted whose C or
    B^2, leaves the normal range (bench 2 with half-normal(1) claims:
    x = 136.185 unrestricted, 251.535 capped).  The capped v may rise
    where the claim outflow outweighs the drift: the capped survival
    probability can be convex there.
    """
    p = params
    if p.cap is None:
        k = derive_constants(p)
        start, node = (-k.B, k.a_star_zero if p.excess else -p.hedge), _unrestricted_node(p, grid.h)
    else:
        start, node = curvature_best(p, 0.0, 1.0, 0.0), _capped_node(p, grid.h)
    return ValueGrid(grid, *march_value_slope(grid, dist, p.lam, start, node))


def evaluate_policy(params: ModelParams, dist: ClaimDistribution, grid: Grid, a) -> ValueGrid:
    """March the scaled value slope of the fixed feedback strategy a; v(0) = 1.

    a holds the amount invested at each grid node, shape (grid.n,), and
    params.cap is not read.  Node j is `_capped_node`'s node with a_j its
    only choice, so fed a capped solve's own a* the march gives that solve
    back bit for bit.  The start is v'(0) = -2 (c + (mu-r) a_0) / Q(a_0).
    The returned ValueGrid's a* is a itself, so `normalize_delta` prices
    the strategy: its psi is the ruin probability under a.

    Raises RuntimeError naming x_j at the first node whose D(a_j) / N(a_j)
    is not positive: D(a_j) <= 0, where the node has no positive root, or
    NaN, as when a_j is NaN or Q(a_j) overflows.  The march raises as the
    solve does on a nonpositive anchor or an underflowing v.
    """
    p = params
    amounts = np.asarray(a, dtype=float)
    if amounts.shape != (grid.n,):
        raise ValueError(f"need one amount per grid node, shape ({grid.n},), got shape {amounts.shape}")
    amounts = amounts.tolist()
    later = iter(amounts[1:])   # the march solves each node once, in order
    solve = _capped_node(p, grid.h, lambda drift, q, alpha: (next(later),))
    a0 = amounts[0]
    start = (-2.0 * (p.c + p.excess * a0) / p.quadratic_form(a0), a0)
    return ValueGrid(grid, *march_value_slope(grid, dist, p.lam, start, solve))
