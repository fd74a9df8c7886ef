"""Claim-size distributions.

Each distribution bundles the density, CDF, tail (survival) function, mean,
and inverse CDF on [0, inf).  The tail is always computed from a direct
closed form, never as 1 - cdf, because the solvers convolve against it far
into the range where 1 - cdf is pure cancellation.  Monte Carlo samples
by inverse CDF, dist.ppf(u), so it consumes exactly one uniform per claim.

A tail that is a positive sum of decaying exponentials also carries that
sum as `tail_mixture`, which lets the slope march carry its far history in
a few decaying states (see `numerics.march_value_slope`).  The exponential
tail is one term, exactly.  The Pareto tail is a positive mixture of
exponentials,

    (1 + y/u)^{-v} = Gamma(v)^{-1} int e^{v s - e^s} e^{-e^s y/u} ds,

and the trapezoid rule in s fits it with positive weights and an error
that falls geometrically with 1/step (Beylkin & Monzon 2005, Appl. Comput.
Harmon. Anal. 19).  The fit depends on the law alone, never on a grid.
It is kept only up to shape 10, where it still holds to 1e-14 relative;
a Pareto law of larger shape has no tail_mixture.

Only the half-normal and log-normal laws (erf, erfc, erfinv, ndtri) use
scipy.special, and each imports it when the law is built; the Pareto fit
needs log Gamma and the inverse of the upper incomplete gamma function,
which math and a few lines here give.  Importing this module, or building
an exponential, Weibull or Pareto law, loads no scipy module: the import
takes about 0.3 s on a 2-CPU host, half of a cold start of the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ClaimDistribution",
    "make_exponential",
    "make_half_normal",
    "make_log_normal",
    "make_weibull",
    "make_pareto",
    "from_config",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ClaimDistribution:
    """Positive claim-size distribution with vectorized evaluators.

    pdf/cdf/tail take y >= 0, ppf takes u in [0, 1).  All accept arrays.
    The solve and its certificate read the law through tail, and the
    Monte Carlo through ppf.  pdf and cdf have no reader in the package
    but stay for the tests: pdf for the density at 0 that a second-order
    low-surplus expansion needs, and cdf for the F(X-) that a conditional
    Monte Carlo of psi needs.

    tail_mixture is None, or (weights, rates, y_max): positive tuples with
    tail(y) = sum_k weights[k] e^{-rates[k] y} to within 1e-14 relative
    for every y in [0, y_max].
    """

    family: str
    params: tuple
    mean: float
    pdf: Callable = field(repr=False)
    cdf: Callable = field(repr=False)
    tail: Callable = field(repr=False)
    ppf: Callable = field(repr=False)
    tail_mixture: tuple | None = field(default=None, repr=False)

    @property
    def exponential_mean(self) -> float | None:
        """The mean when the family is exponential, else None."""
        return self.mean if self.family == "exponential" else None


def _positive(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def _finite_mean(name: str, value: float, mean) -> float:
    """mean(), refused as a ValueError about the parameter `name` when it
    overflows: a law without a finite mean has no ruin problem to solve."""
    try:
        m = mean()
    except OverflowError:
        m = math.inf
    if not math.isfinite(m):
        raise ValueError(f"{name} must give a finite mean, got {value!r}")
    return m


def make_exponential(k: float) -> ClaimDistribution:
    """Exponential claims with rate k: tail e^{-k y}, mean 1/k."""
    k = _positive("rate k", k)

    def pdf(y):
        y = np.asarray(y, dtype=float)
        return k * np.exp(-k * y)

    def cdf(y):
        y = np.asarray(y, dtype=float)
        return -np.expm1(-k * y)

    def tail(y):
        y = np.asarray(y, dtype=float)
        return np.exp(-k * y)

    def ppf(u):
        u = np.asarray(u, dtype=float)
        return -np.log1p(-u) / k

    mean = _finite_mean("rate k", k, lambda: 1.0 / k)
    return ClaimDistribution("exponential", (k,), mean, pdf, cdf, tail, ppf, ((1.0,), (k,), math.inf))


def make_half_normal(v: float) -> ClaimDistribution:
    """|Z| scaled: density sqrt(2/pi)/v * e^{-y^2/(2 v^2)}, mean v sqrt(2/pi)."""
    from scipy import special
    v = _positive("scale v", v)

    def pdf(y):
        y = np.asarray(y, dtype=float)
        return math.sqrt(2.0 / math.pi) / v * np.exp(-(y * y) / (2.0 * v * v))

    def cdf(y):
        y = np.asarray(y, dtype=float)
        return special.erf(y / (v * _SQRT2))

    def tail(y):
        y = np.asarray(y, dtype=float)
        return special.erfc(y / (v * _SQRT2))

    def ppf(u):
        u = np.asarray(u, dtype=float)
        return v * _SQRT2 * special.erfinv(u)

    mean = v * math.sqrt(2.0 / math.pi)
    return ClaimDistribution("half_normal", (v,), mean, pdf, cdf, tail, ppf)


def make_log_normal(u: float, v: float) -> ClaimDistribution:
    """Log-normal: ln Y ~ N(u, v^2); mean e^{u + v^2/2}."""
    from scipy import special
    u = float(u)
    if not math.isfinite(u):
        raise ValueError(f"log-location u must be finite, got {u!r}")
    v = _positive("log-scale v", v)

    def pdf(y):
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        out = np.zeros_like(y)
        pos = y > 0
        z = (np.log(y[pos]) - u) / v
        out[pos] = np.exp(-0.5 * z * z) / (y[pos] * v * math.sqrt(2.0 * math.pi))
        return out[0] if scalar else out

    def cdf(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            z = np.where(y > 0, (np.log(np.where(y > 0, y, 1.0)) - u) / v, -np.inf)
        return 0.5 * special.erfc(-z / _SQRT2)

    def tail(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            z = np.where(y > 0, (np.log(np.where(y > 0, y, 1.0)) - u) / v, -np.inf)
        return 0.5 * special.erfc(z / _SQRT2)

    def ppf(q):
        q = np.asarray(q, dtype=float)
        return np.exp(u + v * special.ndtri(q))

    # the larger term of the exponent is the one at fault
    at_fault = ("log-location u", u) if u > 0.5 * v * v else ("log-scale v", v)
    mean = _finite_mean(*at_fault, lambda: math.exp(u + 0.5 * v * v))
    return ClaimDistribution("log_normal", (u, v), mean, pdf, cdf, tail, ppf)


def make_weibull(u: float, v: float) -> ClaimDistribution:
    """Weibull with scale u and shape v: tail e^{-(y/u)^v}, mean u Gamma(1 + 1/v).

    For shape v < 1 the density is unbounded at 0 (still integrable).
    """
    u = _positive("scale u", u)
    v = _positive("shape v", v)

    def pdf(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            z = y / u
            return (v / u) * z ** (v - 1.0) * np.exp(-(z**v))

    def cdf(y):
        y = np.asarray(y, dtype=float)
        return -np.expm1(-((y / u) ** v))

    def tail(y):
        y = np.asarray(y, dtype=float)
        return np.exp(-((y / u) ** v))

    def ppf(q):
        q = np.asarray(q, dtype=float)
        return u * (-np.log1p(-q)) ** (1.0 / v)

    g = _finite_mean("shape v", v, lambda: math.gamma(1.0 + 1.0 / v))
    mean = _finite_mean("scale u", u, lambda: u * g)
    return ClaimDistribution("weibull", (u, v), mean, pdf, cdf, tail, ppf)


# The Pareto mixture's trapezoid rule: the fit holds on [0, _MIX_SPAN u];
# each cut end of the s range holds at most _MIX_CUT of the tail there,
# and the step is the largest of 0.25, 0.25 * 0.98, ... whose aliasing
# error 2 |Gamma(v + 2 pi i / step)| / Gamma(v) is at most _MIX_ALIAS.
# The weights' rounding grows with the shape (their power's base carries
# (t + ln Gamma(v)) eps): the fit stays within 1e-14 of the tail up to
# shape 10 (at most 8.4e-15 there) but not beyond 14 or so, so shapes
# above _MIX_MAX_SHAPE get no fit
_MIX_SPAN = 1e6
_MIX_CUT = 1e-17
_MIX_ALIAS = 5e-15
_MIX_MAX_SHAPE = 10.0

# Stirling's series of log Gamma(z) to its z^-7 term, B_2k / (2k (2k - 1)):
# the aliasing test only asks it at |z| >= 2 pi / 0.25 > 25, where the next
# term is below 3e-16 and |Re log Gamma| above 7
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680)


def _re_log_gamma(z: complex) -> float:
    """Re log Gamma(z) for Re z > 0 and |z| >= 25."""
    log_z = complex(math.log(abs(z)), math.atan2(z.imag, z.real))
    series = sum(b * z ** (1 - 2 * k) for k, b in enumerate(_STIRLING, 1))
    return ((z - 0.5) * log_z - z + series).real + 0.5 * math.log(2.0 * math.pi)


def _log_upper_gamma_inverse(v: float, q: float) -> float:
    """log x where Q(v, x) = q, Q the regularised upper incomplete gamma
    function, for 1 < v <= 10 and q = _MIX_CUT (x is 39 to 60 there).
    Q(v, x) is x^v e^{-x} f / Gamma(v), f the continued fraction
    1/(x + 1 - v - 1 (1 - v)/(x + 3 - v - ...)) evaluated by Lentz's
    method, and d log Q / dx = -1/(x f).  Five Newton steps on log Q from
    x = v - log q reach round-off at every such shape (the error squares
    each step: 1.8, 9e-4, 2e-10 at v = 2)."""
    x = v - math.log(q)
    for _ in range(5):
        b = x + 1.0 - v
        c, d = math.inf, 1.0 / b
        f = d
        for i in range(1, 100):   # 10 terms at most at x >= 39
            a = -i * (i - v)
            b += 2.0
            d = 1.0 / (a * d + b)
            c = b + a / c
            f *= c * d
            if c * d == 1.0:
                break
        x += (v * math.log(x) - x - math.lgamma(v) + math.log(f) - math.log(q)) * x * f
    return math.log(x)


def _pareto_mixture(u: float, v: float) -> tuple | None:
    """(weights, rates, y_max) of the trapezoid fit of (1 + y/u)^{-v}, or
    None for a shape above _MIX_MAX_SHAPE or a scale so small (below
    about 1e-307) that a rate overflows."""
    if v > _MIX_MAX_SHAPE:
        return None
    log_gamma = math.lgamma(v)
    step = 0.25
    while 2.0 * math.exp(_re_log_gamma(complex(v, 2.0 * math.pi / step)) - log_gamma) > _MIX_ALIAS:
        step *= 0.98
    # above s_hi the integrand holds Q(v, e^{s_hi}) of the tail at y = 0;
    # below s_lo, about (e^{s_lo} (1 + y/u))^v / Gamma(v + 1) of it at y
    s_hi = _log_upper_gamma_inverse(v, _MIX_CUT)
    s_lo = (math.log(_MIX_CUT) + math.lgamma(v + 1.0)) / v - math.log1p(_MIX_SPAN)
    s = s_hi - step * np.arange(math.ceil((s_hi - s_lo) / step) + 1)[::-1]
    t = np.exp(s)
    # t^v e^{-t} / Gamma(v), raised as one power so it cannot overflow; the
    # rounding of an exponent like v s - t, up to 100 in size, would cost
    # several times more
    weights = step * (t * np.exp(-(t + log_gamma) / v)) ** v
    with np.errstate(over="ignore"):
        rates = t / u
    if not np.isfinite(rates[-1]):   # t grows along s
        return None
    return tuple(weights.tolist()), tuple(rates.tolist()), _MIX_SPAN * u


def make_pareto(u: float, v: float) -> ClaimDistribution:
    """Shifted Pareto: tail (u / (u + y))^v with v > 1; mean u / (v - 1)."""
    u = _positive("scale u", u)
    v = float(v)
    if not (math.isfinite(v) and v > 1):
        raise ValueError(f"pareto shape v must exceed 1 for a finite mean, got {v!r}")

    def pdf(y):
        y = np.asarray(y, dtype=float)
        return (v / u) * (u / (u + y)) ** (v + 1.0)

    def cdf(y):
        y = np.asarray(y, dtype=float)
        return -np.expm1(v * np.log(u / (u + y)))

    def tail(y):
        y = np.asarray(y, dtype=float)
        return (u / (u + y)) ** v

    def ppf(q):
        q = np.asarray(q, dtype=float)
        return u * np.expm1(-np.log1p(-q) / v)

    # v - 1 >= 2^-52, so only a scale near the float limit overflows
    mean = _finite_mean("scale u", u, lambda: u / (v - 1.0))
    return ClaimDistribution("pareto", (u, v), mean, pdf, cdf, tail, ppf, _pareto_mixture(u, v))


_FAMILIES = {
    "exponential": (make_exponential, 1),
    "half_normal": (make_half_normal, 1),
    "log_normal": (make_log_normal, 2),
    "weibull": (make_weibull, 2),
    "pareto": (make_pareto, 2),
}


def from_config(family: str, p1: float, p2: float | None = None) -> ClaimDistribution:
    """Build a distribution from a (family, p1[, p2]) configuration triple."""
    try:
        factory, arity = _FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown claim family {family!r}; known: {known}") from None
    if arity == 1:
        if p2 is not None:
            raise ValueError(f"claim family {family!r} takes one parameter, got two")
        return factory(p1)
    if p2 is None:
        raise ValueError(f"claim family {family!r} needs two parameters, got one")
    return factory(p1, p2)
