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
controlled generator with the solve's a*.  Both read one claims term, the
tail convolution lam int_0^x H(y) v(x - y) dy, the only place the
certificate reads the claim law.  The generator's M(V) is that
convolution for every law: the density form lam (V - int V(x - y) f(y) dy)
is a difference of two terms near V(inf), and its quadrature errors, which
do not cancel, swamp the residual where v has decayed.
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


@dataclass
class HjbResidual:
    """The residual certificate of a solve: two channels.

    Both read one claims term, the paper's M(W)(x) = lam int_0^x H(y)
    v(x - y) dy, the tail convolution of v.
    fixed_point recomputes T(v) from scratch and compares it with the
    stored v'; it measures round-off and solver convergence, not
    discretization.  Its convolution is exact, so for a claim law with a
    tail_mixture it also carries the fit's error in the march's far
    history, up to 1e-14 relative of each history sum.
    independent rebuilds the controlled generator with a centered finite
    difference for the curvature and the solve's a*, so it carries the
    full O(h^2) discretization error and halves like h^2.  Its M(V) is the
    same tail convolution, V - int V(x - y) f(y) dy integrated by parts
    (the module docstring says why not the density form), so pointwise is
    O(h^2) v at every node, also where v has decayed.  independent, an
    absolute sup, sits where v is largest; relative is the sup of
    |pointwise| / v, which fails where v has decayed if the generator does.
    """

    fixed_point: float
    fixed_point_at: float
    independent: float
    independent_at: float
    relative: float
    relative_at: float
    pointwise: np.ndarray


def hjb_residual(vg: ValueGrid, params: ModelParams, dist: ClaimDistribution) -> HjbResidual:
    """Both channels of the certificate of a solve of params' problem, T
    minimising over the amounts params.cap allows.  Given other params
    than the solve's, fixed_point reads the gap between the two problems.

    fixed_point is sup_j |v'_j - T(v)(x_j)|, T(v) being `curvature_best`
    fed the claims term; a NaN deviation is reported as nan at the first
    node that has one.  independent is the sup over interior nodes of
    0.5 Q(a*) v' + (c + (mu-r) a* + r x) v - M(V), v' by a centered
    difference of v, and relative the sup over the same nodes of its ratio
    to v; pointwise holds it at every node, NaN at the two endpoints where
    the stencil does not exist.
    """
    x = vg.grid.points
    h = vg.grid.h
    MW = params.lam * convolve_tail_all(vg.v, dist.tail(x), h)

    val, _ = curvature_best(params, x, vg.v, MW)
    dev = np.abs(val - vg.vprime)
    k = int(np.argmax(dev))
    fp, fp_at = float(dev[k]), float(x[k])

    vpp = np.full(vg.grid.n, np.nan)
    vpp[1:-1] = (vg.v[2:] - vg.v[:-2]) / (2.0 * h)
    Q = params.quadratic_form(vg.a_star)
    P = params.c + params.excess * vg.a_star + params.r * x
    res = 0.5 * Q * vpp + P * vg.v - MW
    res[0] = np.nan
    res[-1] = np.nan
    interior = np.abs(res[1:-1])
    k = int(np.argmax(interior))
    rel = interior / vg.v[1:-1]
    j = int(np.argmax(rel))
    return HjbResidual(fp, fp_at, float(interior[k]), float(x[k + 1]), float(rel[j]), float(x[j + 1]), res)
