"""Independent ODE routes to the exponential-claims solution.

Under exponential claims the integro-differential equations collapse to
genuine ODEs, giving two cross-checks that share no code with the grid
solvers:

* the feedback function a~(x) = -(mu-r)/sigma^2 * V'(x)/V''(x) satisfies an
  explicit first-order ODE; the optimal investment is a~(x) - rho sigma1/sigma,
  so integrating it forward from a large-x series seed reproduces the
  solver's strategy with no dynamic programming, and the value slope
  follows from the curve by one quadrature (reconstruct_vprime),

* for a constant strategy the value slope satisfies a linear second-order
  ODE with polynomial coefficients, integrable to machine accuracy.

Forward is the stable direction for the feedback ODE: a perturbation d(x)
of the bounded solution decays like exp(d0 (x^2 - x0^2) / 2) with d0 < 0,
so integrating backward amplifies seed error instead.

The feedback ODE's right-hand side depends on x only through two
coefficients linear in x, b2(x) and b1(x) (`_feedback_terms`, which
a_tilde_rhs also uses), and its cubic numerator is evaluated in Horner
form.  RK4 runs in blocks of at most 64 equal steps, each of
h = max(step, min(step (1 + x/2), 0.5 / |df/da|)) at the block's first
node: a~ is smooth on the scale of x, so far out only the stiffness
df/da ~ d0 x limits h, and `step` is the smallest step.  A block tables b2
and b1 at its stage abscissae and runs the stages on Python floats in the
operations and order of a_tilde_rhs, so its output equals a plain
step-by-step loop over a_tilde_rhs on the same nodes bit for bit.

The curve keeps each step's first stage, a~' at its node, and is read
between nodes by the cubic Hermite interpolant on those slopes, RK4's own
dense output (Shampine 1985, SIAM J. Numer. Anal. 22): O(h^4), as the nodes
are.  reconstruct_vprime stays O(h^4) too: its trapezoid of 1/a~ takes the
end correction on every interval, and it reads the integral by Hermite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, large_surplus_series
from .numerics import MAX_NODES, Grid, prefix_trapezoid
from .results import ValueGrid

__all__ = [
    "a_tilde_rhs",
    "TildeACurve",
    "solve_a_tilde",
    "reconstruct_vprime",
    "reconstruct_log_vprime",
    "LinearOdeCoeffs",
    "linear_ode_coeffs",
    "solve_linear_const_strategy",
]

# nodes whose coefficients solve_linear_const_strategy tables at once.  The
# tables are Python floats: for a 40,000-step span, tabling it whole raised
# peak memory by 13.7 MB, and blocks of this size by 1.6 MB
_BLOCK = 2048

# the feedback ODE's mesh (module docstring); KAPPA keeps h |df/da| well
# inside RK4's real stability interval (-RK4_LIMIT, 0), which the floor at
# `step` leaves where step |df/da| reaches RK4_LIMIT
_MESH_BLOCK = 64
X_ACC = 2.0
KAPPA = 0.5
RK4_LIMIT = 2.785


def a_tilde_rhs(x: float, a: float, params: ModelParams, m: float) -> float:
    """Right-hand side of the feedback ODE for the optimal investment.

        [sigma^2 a^2 + sigma_rho^2] a' =
            -(sigma^2/m) a^3
            - 2 [ r - lam + c_rho/m - gamma + (r/m) x ] (sigma^2/(mu-r)) a^2
            + 2 [ c_rho + r x + sigma_rho^2/(2m) ] a
            - sigma_rho^2 (mu-r)/sigma^2.

    Exponential claims with mean m; needs mu != r.
    """
    q3, q0, s2, sigma_rho2, b = _feedback_terms(params, m)
    b2, b1 = b(x)
    return (((-q3 * a - b2) * a + b1) * a - q0) / (s2 * a * a + sigma_rho2)


def _feedback_terms(p: ModelParams, m: float):
    """(q3, q0, s2, sigma_rho2, b) with the right-hand side written as

        (-q3 a^3 - b2(x) a^2 + b1(x) a - q0) / (s2 a^2 + sigma_rho2),

    where b(x) = (b2(x), b1(x)) is linear in x and takes arrays.
    """
    ex = p.excess
    if ex == 0.0:
        raise ValueError("feedback ODE needs mu != r (the a^2 coefficient divides by mu - r)")
    c_rho, r, sigma_rho2 = p.c_rho, p.r, p.sigma_rho2
    s2 = p.sigma**2
    q3, q2, q1, q0 = s2 / m, s2 / ex, sigma_rho2 / (2.0 * m), sigma_rho2 * ex / s2
    drift, slope = r - p.lam + c_rho / m - p.gamma, r / m

    def b(x):
        return 2.0 * (drift + slope * x) * q2, 2.0 * (c_rho + r * x + q1)

    return q3, q0, s2, sigma_rho2, b


@dataclass
class TildeACurve:
    """Feedback-ODE solution with its seed bookkeeping."""

    x: np.ndarray
    a: np.ndarray
    da: np.ndarray                       # a~' at the nodes, for the Hermite interpolant
    x_seed: float
    seed: float
    series: tuple[float, float]          # (limit, 1/x coefficient) used for seeding
    seed_note: str | None = None

    def __call__(self, xq):
        return _hermite(self.x, self.a, self.da, xq)


def _hermite(x: np.ndarray, y: np.ndarray, dy: np.ndarray, xq):
    """Cubic Hermite interpolant of values y and slopes dy on the increasing
    nodes x, at xq; outside [x[0], x[-1]] it holds the end values."""
    xq = np.clip(np.asarray(xq, dtype=float), x[0], x[-1])
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
    h = x[i + 1] - x[i]
    t = (xq - x[i]) / h
    s = 1.0 - t
    out = (s * s * ((1.0 + 2.0 * t) * y[i] + t * h * dy[i])
           + t * t * ((3.0 - 2.0 * t) * y[i + 1] - s * h * dy[i + 1]))
    return out if np.ndim(out) else float(out)


def _rk4(p: ModelParams, m: float, x0: float, y0: float, x1: float, step: float):
    """Classic Runge-Kutta of the feedback ODE from x0 to x1 on the graded mesh.

    Each block's step is set at its first node; the last block is shortened
    to land on x1.  b2 and b1 are tabled at the stage abscissae x_i,
    x_i + h_i/2 and x_{i+1}, h_i = x_{i+1} - x_i; the stages run on Python
    floats in the operations and order of a_tilde_rhs, so the result equals
    a step-by-step loop over it on the same nodes bit for bit.  Returns x,
    a~ and a~' (each step's first stage; at x1, one more).  A ValueError
    names the first block's node at which step |df/da| reaches RK4_LIMIT.
    """
    q3, q0, s2, sigma_rho2, b = _feedback_terms(p, m)
    nq3 = -q3   # -q3 * a parses as (-q3) * a
    nodes, out = [np.array([x0])], [y0]   # y0, then k1 and the new a~ of each step
    x, y = x0, y0
    while x < x1:
        b2, b1 = b(x)
        d = s2 * y * y + sigma_rho2
        f = (((nq3 * y - b2) * y + b1) * y - q0) / d
        stiff = abs(((-3.0 * q3 * y - 2.0 * b2) * y + b1 - f * 2.0 * s2 * y) / d)
        if step * stiff >= RK4_LIMIT:
            raise ValueError(
                f"the feedback ODE is too stiff for RK4 at x = {x:.6g}: step |df/da| = "
                f"{step * stiff:.6g} at step {step!r} leaves its stability interval (-{RK4_LIMIT}, 0)"
            )
        h = step * (1.0 + x / X_ACC)
        if h * stiff > KAPPA:
            h = KAPPA / stiff
        h = max(step, h)
        n = max(1, math.ceil((x1 - x) / h - 1e-12))
        if n > _MESH_BLOCK:
            xb = x + h * np.arange(_MESH_BLOCK + 1)
        else:
            xb = x + (x1 - x) / n * np.arange(n + 1)
            xb[-1] = x1
        hb = np.diff(xb)
        b2s, b1s = (t.tolist() for t in b(np.stack((xb[:-1], xb[:-1] + 0.5 * hb, xb[1:]))))
        for h, b2, b2m, b2e, b1, b1m, b1e in zip(hb.tolist(), *b2s, *b1s):
            half_h, sixth_h = 0.5 * h, h / 6.0
            a = y
            k1 = (((nq3 * a - b2) * a + b1) * a - q0) / (s2 * a * a + sigma_rho2)
            a = y + half_h * k1
            k2 = (((nq3 * a - b2m) * a + b1m) * a - q0) / (s2 * a * a + sigma_rho2)
            a = y + half_h * k2
            k3 = (((nq3 * a - b2m) * a + b1m) * a - q0) / (s2 * a * a + sigma_rho2)
            a = y + h * k3
            k4 = (((nq3 * a - b2e) * a + b1e) * a - q0) / (s2 * a * a + sigma_rho2)
            y = y + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out += k1, y
        nodes.append(xb[1:])
        x = float(xb[-1])
    out.append(a_tilde_rhs(x1, y, p, m))
    return np.concatenate(nodes), np.array(out[0::2]), np.array(out[1::2])


def solve_a_tilde(
    params: ModelParams,
    m: float,
    x_seed: float,
    x_end: float,
    step: float = 2.5e-3,
    seed_value: float | None = None,
) -> TildeACurve:
    """Integrate the feedback ODE from a seed at x_seed forward to x_end.

    RK4 on the graded mesh of the module docstring.  `step` is its smallest
    step, but for the last block's, so it never takes more steps than the
    uniform mesh at `step`; at most numerics.MAX_NODES of those.  Past the
    x where the stiffness leaves RK4 unstable at `step`, a ValueError names
    that x.  Default
    seed is the two-term large-x series limit + coeff / x_seed; when the
    dropped next order is not obviously negligible at x_seed a note is
    attached (and a warning emitted).
    """
    p = params
    if not (0.0 < x_seed < x_end < math.inf):
        raise ValueError(f"need 0 < x_seed < x_end < inf, got x_seed={x_seed!r}, x_end={x_end!r}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    steps = (x_end - x_seed) / step - 1e-12
    n = max(1, math.ceil(steps)) if math.isfinite(steps) else MAX_NODES + 1
    if n > MAX_NODES:
        raise ValueError(
            f"step is too small for the span [{x_seed!r}, {x_end!r}], got {step!r}: "
            f"at most {MAX_NODES} steps"
        )
    a0, a1 = large_surplus_series(p, m)
    note = None
    if seed_value is None:
        seed = a0 + a1 / x_seed
        rel_next = abs(a1) / (x_seed * x_seed * max(abs(a0), 1e-300))
        if rel_next >= 1e-3:
            note = (
                f"series seed at x={x_seed:g} drops a term of relative size "
                f"~{rel_next:.2e}; seed farther out or supply seed_value"
            )
            warnings.warn(note)
    else:
        seed = float(seed_value)

    xs, ys, ks = _rk4(p, m, x_seed, seed, x_end, step)
    return TildeACurve(x=xs, a=ys, da=ks, x_seed=x_seed, seed=seed, series=(a0, a1), seed_note=note)


def reconstruct_vprime(
    curve: TildeACurve, params: ModelParams, anchor: tuple[float, float], x
) -> np.ndarray:
    """Rebuild the value slope at the abscissae x from the feedback curve alone.

    V'(x) = V'(x0) * exp( -(mu-r)/sigma^2 * int_{x0}^x dy / a~(y) ),
    anchored at anchor = (x0, V'(x0)); the exponent is
    reconstruct_log_vprime's with V'(x0) = 1.
    """
    x0, val0 = anchor
    return val0 * np.exp(reconstruct_log_vprime(curve, params, (x0, 1.0), x))


def reconstruct_log_vprime(
    curve: TildeACurve, params: ModelParams, anchor: tuple[float, float], x
) -> np.ndarray:
    """log V'(x) = log V'(x0) - (mu-r)/sigma^2 * int_{x0}^x dy / a~(y), at the
    abscissae x, anchored at anchor = (x0, V'(x0)); finite where V' itself
    underflows.  x0 and x must lie inside the curve.

    Each mesh interval takes h/2 (g_i + g_{i+1}) + h^2/12 (g'_i - g'_{i+1}),
    g = 1/a~, exact for cubics on any mesh, and the integral is read at x0
    and x by the cubic Hermite interpolant with slope g: O(h^4), as the
    curve is.  Interpolating V' between the curve's nodes would not be.
    """
    p = params
    x0, val0 = anchor
    xs = curve.x
    xq = np.asarray(x, dtype=float)
    if not (xs[0] <= x0 <= xs[-1]):
        raise ValueError(f"anchor x0={x0!r} outside the curve range [{xs[0]}, {xs[-1]}]")
    if not np.all((xs[0] <= xq) & (xq <= xs[-1])):
        raise ValueError(f"abscissae outside the curve range [{xs[0]}, {xs[-1]}]")
    if np.any(curve.a == 0.0):
        raise ValueError("feedback curve crosses zero; slope reconstruction undefined")
    g = 1.0 / curve.a
    dg = -curve.da * g * g
    h = np.diff(xs)
    I = np.concatenate(([0.0], np.cumsum(h / 2.0 * (g[:-1] + g[1:]) + h * h / 12.0 * (dg[:-1] - dg[1:]))))
    return math.log(val0) + -p.excess / p.sigma**2 * (_hermite(xs, I, g, xq) - _hermite(xs, I, g, x0))


@dataclass(frozen=True)
class LinearOdeCoeffs:
    """phi'' + (a2 x + a1) phi' + (a4 x + a3) phi = 0 for the constant-strategy slope."""

    A_rho2: float
    a1: float
    a2: float
    a3: float
    a4: float


def linear_ode_coeffs(params: ModelParams, A: float, m: float) -> LinearOdeCoeffs:
    """Coefficients of the linear slope ODE under strategy a = A, exponential claims.

    A = 0 is allowed (no investment, the perturbation diffusion remains).
    """
    p = params
    if A < 0:
        raise ValueError(f"constant strategy must be nonnegative, got {A!r}")
    k = 1.0 / m
    A_rho2 = p.quadratic_form(A)
    a1 = (2.0 * p.c + 2.0 * p.excess * A) / A_rho2 + k
    a2 = 2.0 * p.r / A_rho2
    a3 = 2.0 * ((p.r - p.lam) + k * p.c + k * A * p.excess) / A_rho2
    a4 = 2.0 * p.r * k / A_rho2
    return LinearOdeCoeffs(A_rho2=A_rho2, a1=a1, a2=a2, a3=a3, a4=a4)


def solve_linear_const_strategy(params: ModelParams, A: float, m: float, grid: Grid) -> ValueGrid:
    """Integrate the constant-strategy slope ODE across the grid.

    phi(0) = 1, phi'(0) = -2 (c + (mu-r) A) / A_rho2.  Implicit trapezoid
    on the first-order system: the stiff eigenvalue grows like -a2 x, which
    an explicit integrator cannot take across a long grid at a fixed step.
    Returns the same container the grid solvers use, with a* = A at every
    node.
    """
    co = linear_ode_coeffs(params, A, m)
    a1, a2, a3, a4 = co.a1, co.a2, co.a3, co.a4
    h = grid.h
    x = grid.points
    n = grid.n
    phi = np.empty(n)
    psi = np.empty(n)
    phi[0] = f = 1.0
    psi[0] = g = -2.0 * (params.c + params.excess * A) / co.A_rho2

    # a block of nodes at a time on Python floats; the coefficients at
    # x_j are carried to the next step, where they are the ones at x_{j-1}
    half_h = 0.5 * h
    p1 = a2 * 0.0 + a1
    q1 = a4 * 0.0 + a3
    for start in range(1, n, _BLOCK):
        fs, gs = [], []
        for xj in x[start : start + _BLOCK].tolist():
            pj, qj = p1, q1
            p1 = a2 * xj + a1
            q1 = a4 * xj + a3
            # rhs = (I + h/2 M_j) y_j with M = [[0, 1], [-q, -p]]
            r0 = f + half_h * g
            r1 = g + half_h * (-qj * f - pj * g)
            # solve (I - h/2 M_{j+1}) y = r, closed-form 2x2
            det = (1.0 + half_h * p1) + half_h * half_h * q1
            f = ((1.0 + half_h * p1) * r0 + half_h * r1) / det
            g = (-half_h * q1 * r0 + r1) / det
            fs.append(f)
            gs.append(g)
        phi[start : start + len(fs)] = fs
        psi[start : start + len(gs)] = gs

    V = prefix_trapezoid(phi, h)
    return ValueGrid(grid=grid, v=phi, V=V, vprime=psi, a_star=np.full(n, A))
