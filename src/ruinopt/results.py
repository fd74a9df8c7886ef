"""Solver output containers, survival normalization, and residual checks.

Every solve produces the scaled value slope v = V'/V'(0), so that
v(0) = 1, on a uniform grid, plus its integral V and the strategy a* that
attains the minimum at each node; every solve returns them together in a
ValueGrid.  The ruin probability needs V(inf), which the grid never
reaches; normalize_delta estimates the missing tail mass and flags the
cases where truncation actually matters.  Where it cannot (v not
decaying on the grid), delta is NaN and psi keeps the value 1.

The optimal strategy the Monte Carlo simulates is the solved a* alone,
from one march on a grid that reaches mc.safe_level, so it covers every
level where the paths may stop; the large-surplus laws in asymptotics.py
are checks on the solve, not inputs to the simulation.  That level comes
from psi on the scenario's own grid, the march's first nodes:
NormalizedSurvival.absorb_level is the first node where psi falls to a
hundredth of the estimate's standard error.

Every solve is certified the same way, by hjb_residual with the params
it was solved with: the fixed-point channel of its HjbResidual
recomputes T(v), the HJB's minimum over the amounts params.cap allows
(`model.curvature_best`), and the independent channel applies the
controlled generator with the solve's a*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .claims import ClaimDistribution
from .model import ModelParams, curvature_best
from .numerics import Grid, SampledFn, convolve_tail_all

__all__ = [
    "ValueGrid",
    "NormalizedSurvival",
    "normalize_delta",
    "generator_residual",
    "fixed_point_residual",
    "HjbResidual",
    "hjb_residual",
]


@dataclass
class ValueGrid:
    """Scaled value slope v, its integral V, its slope v', and the strategy a*."""

    grid: Grid
    v: np.ndarray
    V: np.ndarray
    vprime: np.ndarray
    a_star: np.ndarray  # investment at each node: the solve's minimizer (or a fixed strategy)

    @property
    def x(self) -> np.ndarray:
        return self.grid.points


@dataclass
class NormalizedSurvival:
    """Ruin-scale normalization of a solved value grid.

    delta(x) approximates V(x) / V(inf): the survival advantage of starting
    at x, with delta(0) = 0 and delta -> 1.  psi is the ruin probability
    1 - delta, formed as the integral of v from x on over V(inf) so that it
    keeps its digits where delta rounds to 1.  tail_remainder is the
    estimated integral of v beyond the grid; truncated flags remainders
    over 1% of V(x_max), meaning the grid should have been longer.  When
    V(inf) is not finite, delta is NaN at every node and psi is 1.
    """

    delta: SampledFn
    psi: SampledFn
    v_inf_hat: float
    tail_remainder: float
    tail_slope: float | None
    truncated: bool

    def absorb_level(self, x0: float, n_paths: int, ceiling: float) -> tuple[float, float | None]:
        """(L, psi(L)): where n_paths Monte Carlo paths from x0 may stop as safe.

        L is the first grid node above x0 and below ceiling with
        psi(L) <= SE / 100, SE = sqrt(delta(x0) (1 - delta(x0)) / n_paths)
        the estimate's standard error.  A path absorbed at L survives with
        probability 1 - psi(L), so the estimate then targets
        delta(x0) / delta(L), at most about psi(L) off delta(x0).  psi falls
        monotonically (v > 0), so no later node fails the bound.  Returns
        (ceiling, None) when no node qualifies, or when the normalisation
        is truncated or V(inf) is not finite.
        """
        if self.truncated or not math.isfinite(self.v_inf_hat):
            return ceiling, None
        d = float(self.delta(x0))
        bound = math.sqrt(d * (1.0 - d) / n_paths) / 100.0
        x = self.psi.grid.points
        ok = (self.psi.values <= bound) & (x > x0) & (x < ceiling)
        k = int(np.argmax(ok))
        if not ok[k]:
            return ceiling, None
        return float(x[k]), float(self.psi.values[k])


def normalize_delta(vg: ValueGrid, claim_mean: float | None = None) -> NormalizedSurvival:
    """Estimate V(inf) and rescale V to the survival probability delta.

    With an exponential claim mean m the remainder integral is exactly
    m * v(x_max) in the large-x limit; otherwise the log-slope of v over
    the last tenth of the grid extrapolates a geometric tail.
    """
    grid = vg.grid
    v_end = float(vg.v[-1])
    V_end = float(vg.V[-1])
    slope = None
    if claim_mean is not None:
        remainder = float(claim_mean) * v_end
    else:
        j0 = int(math.floor(0.9 * (grid.n - 1)))
        j0 = min(max(j0, 0), grid.n - 2)
        xs = grid.points[j0:]
        vs = vg.v[j0:]
        if np.all(vs > 0.0):
            coeffs = np.polyfit(xs, np.log(vs), 1)
            slope = -float(coeffs[0])
        if slope is not None and slope > 0.0 and v_end > 0.0:
            remainder = v_end / slope
        else:
            # tail is not decaying on the grid; remainder unknown, flag it
            remainder = math.inf
    truncated = not (remainder <= 0.01 * V_end)
    v_inf = V_end + remainder
    if math.isfinite(v_inf) and v_inf > 0.0:
        delta_vals = vg.V / v_inf
        # V's trapezoids summed from the far end onto the remainder: 1 - delta
        # would cancel to 0 where psi falls below eps
        steps = grid.h * (vg.v[1:] + vg.v[:-1]) / 2.0
        psi_vals = np.cumsum(np.append(remainder, steps[::-1]))[::-1] / v_inf
    else:
        # V(inf) unknown: delta is unknown, not 0 (certain ruin)
        delta_vals = np.full_like(vg.V, np.nan)
        psi_vals = np.ones_like(vg.V)
    return NormalizedSurvival(
        delta=SampledFn(grid, delta_vals),
        psi=SampledFn(grid, psi_vals),
        v_inf_hat=v_inf,
        tail_remainder=remainder,
        tail_slope=slope,
        truncated=truncated,
    )


def generator_residual(
    vg: ValueGrid, params: ModelParams, dist: ClaimDistribution
) -> tuple[np.ndarray, float, float]:
    """Pointwise residual of the controlled generator applied to V.

    Evaluates 0.5 Q(a) V'' + (c + (mu-r) a + r x) V' - M(V) at each interior
    node with a centered finite difference for V'' = v' and the solve's own
    a = a*, so the check is independent of how the solver represented the
    curvature.  The claims term M(V) uses the density form when the density
    is bounded at 0 and the tail-convolution form otherwise.  Returns
    (residuals, sup, x_at_sup) with NaN at the two endpoint nodes where the
    stencil does not exist.
    """
    grid = vg.grid
    x = grid.points
    h = grid.h
    n = grid.n

    vpp = np.full(n, np.nan)
    vpp[1:-1] = (vg.v[2:] - vg.v[:-2]) / (2.0 * h)

    f0 = float(dist.pdf(0.0))
    if math.isfinite(f0):
        conv = convolve_tail_all(vg.V, dist.pdf(x), h)
        M = params.lam * (vg.V - conv)
    else:
        # unbounded density at 0 (e.g. small-shape Weibull): integrate by
        # parts against the bounded tail instead
        M = params.lam * convolve_tail_all(vg.v, dist.tail(x), h)

    Q = params.quadratic_form(vg.a_star)
    P = params.c + params.excess * vg.a_star + params.r * x
    res = 0.5 * Q * vpp + P * vg.v - M
    res[0] = np.nan
    res[-1] = np.nan
    interior = res[1:-1]
    k = int(np.argmax(np.abs(interior)))
    return res, float(abs(interior[k])), float(x[k + 1])


def fixed_point_residual(vg: ValueGrid, params: ModelParams, dist: ClaimDistribution) -> tuple[float, float]:
    """sup_j |v'_j - T(v)(x_j)| recomputed from the solved slope.

    T(v) is the HJB's own minimum, `curvature_best` over the amounts
    params.cap allows, fed by the full tail convolution, both run from
    scratch, so it verifies that the stored operator values are the fixed
    point of T, not of some drifted variant.  Returns (sup, x at the sup);
    a NaN deviation is reported as nan at the first node that has one.
    """
    x = vg.grid.points
    MW = params.lam * convolve_tail_all(vg.v, dist.tail(x), vg.grid.h)
    val, _ = curvature_best(params, x, vg.v, MW)
    dev = np.abs(val - vg.vprime)
    k = int(np.argmax(dev))
    return float(dev[k]), float(x[k])


@dataclass
class HjbResidual:
    """The residual certificate of a solve: two channels.

    fixed_point recomputes T(v) from scratch and compares it with the
    stored v'; it measures round-off and solver convergence, not
    discretization.  Its convolution is exact, so for a claim law with a
    tail_mixture it also carries the fit's error in the march's far
    history, up to 1e-14 relative of each history sum.
    independent rebuilds the controlled generator with a centered finite
    difference for the curvature and the solve's a*, so it carries the
    full O(h^2) discretization error and halves like h^2.
    """

    fixed_point: float
    fixed_point_at: float
    independent: float
    independent_at: float
    pointwise: np.ndarray


def hjb_residual(vg: ValueGrid, params: ModelParams, dist: ClaimDistribution) -> HjbResidual:
    """Both channels of the certificate of a solve of params' problem, T
    minimising over the amounts params.cap allows.  Given other params
    than the solve's, fixed_point reads the gap between the two problems."""
    fp, fp_at = fixed_point_residual(vg, params, dist)
    pw, sup, at = generator_residual(vg, params, dist)
    return HjbResidual(fp, fp_at, sup, at, pw)
