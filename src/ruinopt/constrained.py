"""Value-slope solver for capped investment.

When the invested amount is restricted to [0, cap], the dynamic programming
equation for the scaled value slope v (v(0) = 1) reads v' = T(v) with

    T(w)(x) = min over a in [0, cap] of
        2 * [ M(W)(x) - (c + r x + (mu-r) a) w(x) ] / Q(a),

where Q(a) = sigma^2 a^2 + 2 rho sigma sigma1 a + sigma1^2 is the combined
diffusion coefficient, W is the prefix integral of w, and the claims term
is evaluated through the claim tail H:

    M(W)(x) = lam * int_0^x H(y) w(x - y) dy.

For fixed x and w the candidate curvature is a smooth ratio in a, so the
minimum sits at an endpoint or at a root of an explicit quadratic; no line
search is ever needed.  The march uses the same implicit trapezoid closure
as the unrestricted solver, alternating the exact affine solve in w (for a
fixed a) with an argmin refresh; the affine solutions decrease monotonically
onto the fixed point, and a guarded bisection handles the rare corner.  As
there, node j sees only v_0 .. v_{j-1} and itself (the equation is causal),
so the single forward pass of `numerics.march_value_slope` is the exact
discrete solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .claims import ClaimDistribution
from .model import ModelParams
from .numerics import Grid, convolve_tail_all, march_value_slope
from .results import StrategyCurve, ValueGrid, generator_residual

__all__ = [
    "curvature_candidate",
    "curvature_best",
    "solve_v_constrained",
    "extract_strategy_constrained",
    "fixed_point_residual",
    "CappedHjbResidual",
    "hjb_residual",
]


def curvature_candidate(params: ModelParams, a: float, x: float, w_x: float, MW_x: float) -> float:
    """Candidate curvature when the amount a is invested at surplus x."""
    p = params
    return 2.0 * (MW_x - (p.c + p.r * x + p.excess * a) * w_x) / p.quadratic_form(a)


def curvature_best(
    params: ModelParams, cap: float, x: float, w_x: float, MW_x: float
) -> tuple[float, float]:
    """Minimize the candidate curvature over a in [0, cap].

    Candidates: both endpoints plus interior stationary points, which solve

        (mu-r) sigma^2 w a^2 - 2 sigma^2 E a
            - [ (mu-r) sigma1^2 w + 2 rho sigma sigma1 E ] = 0,

    with E = MW_x - (c + r x) w_x.  Returns (value, argmin); exact ties go
    to the smaller investment.
    """
    p = params
    E = MW_x - (p.c + p.r * x) * w_x
    qa = p.excess * p.sigma**2 * w_x
    qb = -2.0 * p.sigma**2 * E
    qc = -(p.excess * p.sigma1**2 * w_x + 2.0 * p.rho * p.sigma * p.sigma1 * E)
    candidates = [0.0, cap]
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
    for a in sorted(c for c in candidates if 0.0 <= c <= cap):
        val = curvature_candidate(p, a, x, w_x, MW_x)
        if val < best_val:
            best_val, best_a = val, a
    return best_val, best_a


def solve_v_constrained(
    params: ModelParams, dist: ClaimDistribution, grid: Grid, *, cap: float | None = None
) -> ValueGrid:
    """March the scaled value slope of the capped problem; v(0) = 1.

    The per-node minimizing investment is recorded alongside v so the
    strategy extraction is exactly the argmin the solve converged with.

    The march stops with RuntimeError ("trapezoid anchor went nonpositive")
    at the first node, x = h, when h >= 2 / |v'(0)|, with v'(0) the
    minimum of -2 (c + (mu-r) a) / Q(a) over a in [0, cap]
    (`derive_constants(...).v_prime_zero`).  The seeded sweep in
    tests/test_solver_sweep.py finds it at no later node.  Unlike the
    unrestricted slope, v may rise where the claim outflow outweighs the
    drift: the capped survival probability can be convex there.
    """
    p = params
    A = cap if cap is not None else p.cap
    if A is None:
        raise ValueError("capped solve needs an investment cap (params.cap or cap=...)")
    h = grid.h
    half_h = 0.5 * h
    x = grid.points
    H = np.asarray(dist.tail(x), dtype=float)

    argmin = np.empty(grid.n)
    vp0, argmin[0] = curvature_best(p, A, 0.0, 1.0, 0.0)

    def solve_node(j: int, q0: float, alpha: float) -> tuple[float, float, int]:
        xj = x[j]
        evals = 0

        def affine_solve(a: float) -> float:
            # w = alpha + h/2 * G_a(w) is affine in w:
            # G_a(w) = [2 q0 + (lam h - 2 P(a)) w] / Q(a)
            Qa = p.quadratic_form(a)
            Pa = p.c + p.r * xj + p.excess * a
            denom = 1.0 - half_h * (p.lam * h - 2.0 * Pa) / Qa
            return (alpha + h * q0 / Qa) / denom

        def best_at(w: float) -> tuple[float, float]:
            nonlocal evals
            evals += 1
            return curvature_best(p, A, xj, w, q0 + p.lam * half_h * w)

        a_cur = argmin[j - 1]
        w_cur = affine_solve(a_cur)
        for _ in range(60):
            _, a_cur = best_at(w_cur)
            w_new = affine_solve(a_cur)
            # stop on w alone: at the fixed point the argmin can flip in its
            # last ulp between two values whose affine solves agree
            ok = abs(w_new - w_cur) <= 1e-15 * abs(w_new)
            w_cur = w_new
            if ok:
                break
        if not (ok and w_cur > 0.0):
            # guarded bisection on psi(w) = w - alpha - h/2 * min_a G_a(w);
            # psi(0) < 0 and psi grows at least linearly once w dominates
            def psi(w: float) -> float:
                val, _ = best_at(w)
                return w - alpha - half_h * val

            lo, hi = 0.0, alpha
            guard = 0
            while psi(hi) < 0.0:
                hi *= 2.0
                guard += 1
                if guard > 200:
                    raise RuntimeError(f"capped node solve failed to bracket at x={xj:.6g}")
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:  # lo and hi are adjacent floats
                    break
                if psi(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            else:
                raise RuntimeError(f"capped node solve did not converge at x={xj:.6g}")
            w_cur = hi
            _, a_cur = best_at(w_cur)
            w_cur = affine_solve(a_cur)
        argmin[j] = a_cur
        val = curvature_candidate(p, a_cur, xj, w_cur, q0 + p.lam * half_h * w_cur)
        return w_cur, val, evals

    v, vp, V, node_evals = march_value_slope(grid, H, p.lam, vp0, solve_node)
    return ValueGrid(
        grid=grid, v=v, V=V, vprime=vp, mode="constrained", cap=A, argmin=argmin,
        node_evals=node_evals,
    )


def extract_strategy_constrained(vg: ValueGrid, params: ModelParams, cap: float | None = None) -> StrategyCurve:
    """Strategy curve from the per-node argmins recorded during the solve."""
    A = cap if cap is not None else vg.cap
    if vg.argmin is None:
        raise ValueError("value grid carries no argmin record; was it solved capped?")
    return StrategyCurve(grid=vg.grid, values=vg.argmin.copy(), lo=0.0, hi=A)


def fixed_point_residual(
    vg: ValueGrid, params: ModelParams, dist: ClaimDistribution, cap: float | None = None
) -> tuple[float, float]:
    """sup_j |v'_j - T(v)(x_j)| recomputed from the converged slope.

    The recomputation runs the full tail convolution and the candidate
    minimization from scratch, so it verifies that the stored operator
    values are the fixed point of T, not of some drifted variant.
    """
    A = cap if cap is not None else vg.cap
    if A is None:
        raise ValueError("fixed-point residual needs the cap")
    x = vg.grid.points
    MW = params.lam * convolve_tail_all(vg.v, dist.tail(x), vg.grid.h)
    worst, worst_x = 0.0, 0.0
    for j in range(vg.grid.n):
        val, _ = curvature_best(params, A, float(x[j]), float(vg.v[j]), float(MW[j]))
        dev = abs(val - vg.vprime[j])
        if dev > worst:
            worst, worst_x = dev, float(x[j])
    return worst, worst_x


@dataclass
class CappedHjbResidual:
    """Residual channels for a capped solve.

    fixed_point recomputes T(v) from scratch and compares it with the
    stored v'; it measures solver convergence, not discretization.
    independent rebuilds the controlled generator with a centered finite
    difference for the curvature and the recorded argmin strategy, so it
    carries the O(h^2) discretization error.
    """

    fixed_point: float
    fixed_point_at: float
    independent: float
    independent_at: float
    pointwise: np.ndarray


def hjb_residual(
    vg: ValueGrid,
    strategy: StrategyCurve,
    params: ModelParams,
    dist: ClaimDistribution,
) -> CappedHjbResidual:
    fp, fp_at = fixed_point_residual(vg, params, dist)
    pw, sup2, at2 = generator_residual(vg, strategy, params, dist)
    return CappedHjbResidual(
        fixed_point=fp,
        fixed_point_at=fp_at,
        independent=sup2,
        independent_at=at2,
        pointwise=pw,
    )
