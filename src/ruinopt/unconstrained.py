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
magnitude.

The march discretizes v(x_j) = v(x_{j-1}) + int of v' with the trapezoid
rule and solves each node's scalar implicit equation by safeguarded
Newton.  The implicit closure matters: an explicit sweep has local
amplification h/2 * |dL/dw| well above 1 at large x, while the implicit
equation F(w) = w - alpha - h/2 * L(w) has F' >= 1 whenever the net drift
stays positive, so each node has exactly one positive root.  The equation
is causal: node j sees only v_0 .. v_{j-1} and itself, so the single
forward pass of `numerics.march_value_slope` is the exact discrete
solution.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .claims import ClaimDistribution
from .model import ModelParams
from .numerics import Grid, convolve_tail_all, march_value_slope
from .results import StrategyCurve, ValueGrid, generator_residual

__all__ = [
    "solve_v_unconstrained",
    "extract_strategy_unconstrained",
    "HjbResidual",
    "hjb_residual",
]


_EPS = sys.float_info.epsilon


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


def solve_v_unconstrained(params: ModelParams, dist: ClaimDistribution, grid: Grid) -> ValueGrid:
    """March the scaled value slope v across the grid; v(0) = 1.

    Returns the slope v, its prefix integral V, the operator values
    v' = L(v), and the node-equation evaluations spent per node.

    The march stops with RuntimeError ("trapezoid anchor went nonpositive")
    at the first node, x = h, when h >= 2 / |v'(0)|, with v'(0) = -B
    (`derive_constants(...).B`), close to -2 c_rho / sigma_rho^2 when
    c_rho > 0 and sigma_rho^2 is small.  The seeded sweep in
    tests/test_solver_sweep.py finds it at no later node.
    """
    p = params
    h = grid.h
    half_h = 0.5 * h
    x = grid.points
    ex = p.excess
    sigma_rho2 = p.sigma1**2 * (1.0 - p.rho * p.rho)
    srho = math.sqrt(sigma_rho2)
    c_rho = p.c - p.rho * ex * p.sigma1 / p.sigma
    kappa1 = ex / p.sigma
    H = np.asarray(dist.tail(x), dtype=float)

    def solve_node(j: int, q: float, alpha: float) -> tuple[float, float, int]:
        pj = c_rho + p.r * x[j] - p.lam * half_h
        evals = 0

        def F_and_slope(w: float) -> tuple[float, float, float]:
            nonlocal evals
            evals += 1
            l1 = pj * w - q
            l2 = kappa1 * w
            R = math.hypot(l1, srho * l2)
            if R == 0.0:
                return w - alpha, 1.0, 0.0
            if l1 >= 0.0:
                L = -(l1 + R) / sigma_rho2
            else:
                L = -(l2 * l2) / (R - l1)
            dF = 1.0 + half_h * (pj + (l1 * pj + sigma_rho2 * kappa1 * kappa1 * w) / R) / sigma_rho2
            return w - alpha - half_h * L, dF, L

        # the root lies in (0, alpha]: L <= 0 gives F(w) >= w - alpha,
        # and F(0) = -alpha < 0; Newton starts from alpha, which is at
        # most v_{j-1} because v' = L <= 0
        lo, hi = 0.0, alpha
        w = alpha
        for _ in range(80):
            F, dF, L = F_and_slope(w)
            # converged once the Newton step is below an ulp of w; tested
            # first, since a converged iterate sits on a bracket end
            if abs(F) <= _EPS * abs(dF * w):
                return w, L, evals
            if F < 0.0:
                lo = w
            else:
                hi = w
            if dF <= 0.0:
                w_next = 0.5 * (lo + hi)
            else:
                w_next = w - F / dF
                if not (lo < w_next < hi):
                    w_next = 0.5 * (lo + hi)
            if abs(w_next - w) <= 1e-16 * abs(w_next):
                _, _, L = F_and_slope(w_next)
                return w_next, L, evals
            w = w_next
        raise RuntimeError(f"unconstrained node solve did not converge at x={x[j]:.6g}")

    v, vp, V, node_evals = march_value_slope(
        grid, H, p.lam, _negative_root(c_rho, kappa1, sigma_rho2), solve_node
    )
    return ValueGrid(grid=grid, v=v, V=V, vprime=vp, mode="unconstrained", node_evals=node_evals)


def extract_strategy_unconstrained(vg: ValueGrid, params: ModelParams) -> StrategyCurve:
    """Optimal invested amount a*(x_j) = -(mu-r) v / (sigma^2 v') - rho sigma1 / sigma.

    Uses the solver's operator values for v', never a finite difference of
    v, so the extraction is exact at x = 0 where the closed form lives.
    """
    p = params
    if p.excess == 0.0:
        a = np.full(vg.grid.n, -p.rho * p.sigma1 / p.sigma)
    else:
        a = -p.excess * vg.v / (p.sigma**2 * vg.vprime) - p.rho * p.sigma1 / p.sigma
    return StrategyCurve(grid=vg.grid, values=a)


@dataclass
class HjbResidual:
    """Two residual channels for a solved grid.

    self_consistency plugs the solver's own v' back into the curvature
    quadratic; it vanishes identically in exact arithmetic, so it measures
    round-off and root-solve tolerance, not discretization error.
    independent rebuilds the controlled generator with a centered finite
    difference for the curvature and the extracted strategy, so it carries
    the full O(h^2) discretization error and halves like h^2.
    """

    self_consistency: float
    self_consistency_at: float
    independent: float
    independent_at: float
    pointwise: np.ndarray


def hjb_residual(
    vg: ValueGrid,
    strategy: StrategyCurve,
    params: ModelParams,
    dist: ClaimDistribution,
) -> HjbResidual:
    p = params
    x = vg.grid.points
    h = vg.grid.h
    sigma_rho2 = p.sigma1**2 * (1.0 - p.rho * p.rho)
    c_rho = p.c - p.rho * p.excess * p.sigma1 / p.sigma
    gamma = p.excess**2 / (2.0 * p.sigma**2)

    conv = convolve_tail_all(vg.v, dist.tail(x), h)
    L1 = (c_rho + p.r * x) * vg.v - p.lam * conv
    res1 = 0.5 * sigma_rho2 * vg.vprime**2 + L1 * vg.vprime - gamma * vg.v**2
    k1 = int(np.argmax(np.abs(res1)))

    pw, sup2, at2 = generator_residual(vg, strategy, params, dist)
    return HjbResidual(
        self_consistency=float(abs(res1[k1])),
        self_consistency_at=float(x[k1]),
        independent=sup2,
        independent_at=at2,
        pointwise=pw,
    )
