"""Claim-size distributions: tails, densities, quantiles, sampling."""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import ruinopt as ro
import ruinopt.claims
import ruinopt.solve
from conftest import assert_close

# the six laws the benchmarks use, plus shape variants that stress the
# unbounded-density and heavy-tail corners
CASES = [
    ("exponential", ro.make_exponential(1.0), 1.0),
    ("exponential", ro.make_exponential(0.5), 2.0),
    ("half_normal", ro.make_half_normal(math.sqrt(math.pi / 2.0)), 1.0),
    ("log_normal", ro.make_log_normal(-0.5, 1.0), 1.0),
    ("weibull", ro.make_weibull(1.0, 0.5), 2.0),
    ("weibull", ro.make_weibull(1.0, 2.0), math.gamma(1.5)),
    ("pareto", ro.make_pareto(2.0, 2.0), 2.0),
]


@pytest.mark.parametrize("family,dist,mean", CASES)
def test_family_and_mean(family, dist, mean):
    assert dist.family == family
    assert_close(dist.mean, mean, 1e-12, "mean")


@pytest.mark.parametrize("family,dist,mean", CASES)
def test_tail_cdf_complement(family, dist, mean):
    y = np.linspace(0.0, 12.0 * mean, 10_001)
    H = dist.tail(y)
    F = dist.cdf(y)
    assert np.all((H >= 0) & (H <= 1))
    assert np.all(np.diff(H) <= 0)          # tail non-increasing
    assert np.max(np.abs(1.0 - H - F)) <= 1e-12
    assert H[0] == 1.0 and F[0] == 0.0


@pytest.mark.parametrize("family,dist,mean", CASES)
def test_tail_integrates_to_mean(family, dist, mean):
    # integral of the survival function over [0, inf) recovers the mean;
    # adaptive quadrature so the slow pareto tail is handled exactly
    got, _ = quad(lambda y: float(dist.tail(y)), 0.0, np.inf, limit=200)
    assert_close(got, mean, 1e-7, "integral of tail")


@pytest.mark.parametrize("family,dist,mean", CASES)
def test_density_matches_cdf(family, dist, mean):
    # trapezoid of f between interior points reproduces cdf increments;
    # start away from 0 since weibull with shape < 1 has an unbounded density
    lo = 0.05 * mean
    for hi_mult in (0.3, 0.8, 1.5, 3.0, 6.0):
        hi = hi_mult * mean
        y = np.linspace(lo, hi, 50_001)
        inc = np.trapezoid(dist.pdf(y), y)
        assert abs(inc - (dist.cdf(hi) - dist.cdf(lo))) <= 1e-6


@pytest.mark.parametrize("family,dist,mean", CASES)
def test_ppf_inverts_cdf(family, dist, mean):
    q = np.linspace(1e-6, 1.0 - 1e-6, 501)
    y = dist.ppf(q)
    assert np.all(np.diff(y) > 0)
    assert np.max(np.abs(dist.cdf(y) - q)) <= 1e-9


@pytest.mark.parametrize("family,dist,mean", CASES)
def test_sampling_matches_cdf(family, dist, mean):
    rng = np.random.default_rng(99)
    draws = dist.ppf(rng.random(20_000))
    assert np.all(draws >= 0)
    for q in (0.25, 0.5, 0.75, 0.9):
        y = dist.ppf(q)
        assert abs(np.mean(draws <= y) - q) <= 0.02


@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
@settings(max_examples=200, deadline=None)
def test_exponential_memoryless(s, t):
    dist = ro.make_exponential(1.0)
    lhs = dist.tail(s + t)
    rhs = float(dist.tail(s)) * float(dist.tail(t))
    assert abs(lhs - rhs) <= 1e-12


@given(st.floats(0.05, 4.0), st.lists(st.floats(0.0, 30.0), min_size=2, max_size=30))
@settings(max_examples=100, deadline=None)
def test_tail_bounded_and_monotone(rate, ys):
    dist = ro.make_exponential(rate)
    y = np.sort(np.asarray(ys))
    H = dist.tail(y)
    assert np.all((H >= 0.0) & (H <= 1.0))
    assert np.all(np.diff(H) <= 1e-15)


def test_weibull_density_edge():
    # shape below 1 diverges at 0, shape 1 lands on the exponential rate,
    # shape above 1 vanishes
    assert ro.make_weibull(1.0, 0.5).pdf(0.0) == math.inf
    assert_close(ro.make_weibull(2.0, 1.0).pdf(0.0), 0.5, 1e-12, "shape-1 density at 0")
    assert ro.make_weibull(1.0, 2.0).pdf(0.0) == 0.0


def test_pareto_requires_finite_mean():
    with pytest.raises(ValueError):
        ro.make_pareto(1.0, 1.0)
    with pytest.raises(ValueError):
        ro.make_pareto(1.0, 0.5)


@pytest.mark.parametrize("shape", [1.1, 2.0, 5.0, 10.0])
@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_pareto_tail_mixture(scale, shape):
    # the Pareto tail as a positive sum of exponentials, to 1e-14 relative
    # on the whole of its stated range [0, y_max]
    dist = ro.make_pareto(scale, shape)
    weights, rates, y_max = dist.tail_mixture
    w, r = np.array(weights), np.array(rates)
    assert np.all(w > 0.0) and np.all(r > 0.0)
    assert y_max == 1e6 * scale
    y = np.concatenate([[0.0], np.geomspace(1e-6 * scale, y_max, 10_000)])
    fit = np.exp(-np.outer(y, r)) @ w
    gap = np.max(np.abs(fit / dist.tail(y) - 1.0))
    assert gap <= 1e-14, f"max relative error {gap:.2e}"
    assert ro.make_pareto(scale, shape).tail_mixture == dist.tail_mixture


# shapes at which the fit's s_hi is scipy's to the bit, and 200 seeded ones
# in (1, 10] where it may round the other way
NAMED_SHAPES = [1.0001, 1.5, 2.0, 2.2, 3.0, 5.0, 7.5, 10.0]
SEEDED_SHAPES = (10.0 - 9.0 * np.random.default_rng(2005).random(200)).tolist()


def _scipy_fit(v):
    """(step, K, s_hi, ys) of the Pareto fit built with scipy.special: ys are
    the imaginary parts the aliasing test visits."""
    from scipy import special
    log_gamma = special.gammaln(v)
    step, ys = 0.25, [2.0 * math.pi / 0.25]
    while 2.0 * abs(np.exp(special.loggamma(v + 1j * ys[-1]) - log_gamma)) > 5e-15:
        step *= 0.98
        ys.append(2.0 * math.pi / step)
    s_hi = math.log(special.gammainccinv(v, 1e-17))
    s_lo = (math.log(1e-17) + special.gammaln(v + 1.0)) / v - math.log1p(1e6)
    return step, math.ceil((s_hi - s_lo) / step) + 1, s_hi, ys


def test_pareto_fit_nodes_are_scipys():
    # the same step and term count K as the scipy-built fit, and an s_hi
    # within one ulp of scipy's (its own rounding differs at about one shape
    # in ten), equal at the named shapes
    for v in NAMED_SHAPES + SEEDED_SHAPES:
        step, K, s_hi, _ = _scipy_fit(v)
        mine = ruinopt.claims._log_upper_gamma_inverse(v, 1e-17)
        assert abs(mine - s_hi) <= math.ulp(s_hi) and (mine == s_hi or v not in NAMED_SHAPES), v
        rates = ro.make_pareto(1.0, v).tail_mixture[1]
        assert rates == tuple(np.exp(mine - step * np.arange(K)[::-1]).tolist()), v


def test_re_log_gamma_is_scipys():
    # at every point the aliasing test visits, to 1e-15 relative (the series
    # without its last term is 4e-15 off)
    from scipy import special
    for v in NAMED_SHAPES + SEEDED_SHAPES:
        for y in _scipy_fit(v)[3]:
            want = special.loggamma(complex(v, y)).real
            assert abs(ruinopt.claims._re_log_gamma(complex(v, y)) - want) <= 1e-15 * abs(want), (v, y)


def test_pareto_2_2_fit_is_pinned():
    # benchmark 2's law: the fit scipy.special once built, to the bit
    digest = hashlib.sha256(repr(ro.make_pareto(2.0, 2.0).tail_mixture).encode()).hexdigest()
    assert digest == "8c359a47815894b5a2fde4f7085c506ab6572271abc2e436e66538ced246230a"


def test_tail_mixture_of_each_family():
    # the exponential tail is its own one-term sum; tails that are not
    # completely monotone, or whose mixing law is not elementary, have none;
    # nor has a Pareto tail above shape 10, which the fit cannot hold to 1e-14
    assert ro.make_exponential(1.5).tail_mixture == ((1.0,), (1.5,), math.inf)
    assert ro.make_pareto(2.0, 10.0).tail_mixture is not None
    for dist in (ro.make_half_normal(1.0), ro.make_log_normal(-0.5, 1.0), ro.make_weibull(1.0, 0.5),
                 ro.make_pareto(2.0, 10.5), ro.make_pareto(2.0, 50.0)):
        assert dist.tail_mixture is None


def test_pareto_tail_mixture_at_tiny_scales():
    # below a scale of about 1e-307 a rate t/u would overflow to inf: such a
    # law has no fit, and neither it nor a scenario with it warns
    text = ("mu = 0.2\nr = 0.12\nc = 0.5\nlambda = 0.3\nrho = 0.15\nsigma = 0.9\nsigma1 = 0.5\n"
            "claim.family = pareto\nclaim.p1 = 1e-308\nclaim.p2 = 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ro.make_pareto(1e-308, 2.0).tail_mixture is None
        assert ro.parse_scenario(text).dist.tail_mixture is None
        weights, rates, y_max = ro.make_pareto(1e-306, 2.0).tail_mixture
    assert len(weights) == len(rates) == 149
    assert np.all(np.isfinite(rates)) and min(rates) > 0.0 and min(weights) > 0.0
    assert y_max == 1e6 * 1e-306


def test_tail_mixture_does_not_depend_on_the_grid(monkeypatch):
    # both solves hand the march the law's own fit, on every grid, so a
    # longer grid repeats a shorter one's nodes
    seen = []
    real = ruinopt.solve.march_value_slope

    def spy(grid, law, lam, start, node):
        seen.append(law.tail_mixture)
        return real(grid, law, lam, start, node)

    monkeypatch.setattr(ruinopt.solve, "march_value_slope", spy)
    dist = ro.make_pareto(2.0, 2.0)
    for h, x_max in ((5e-3, 2.0), (1e-2, 4.0)):
        for cap in (None, 1.0):
            ro.solve_v(ro.example2_params(cap=cap), dist, ro.Grid.from_xmax(h, x_max))
    assert len(seen) == 4 and all(fit is dist.tail_mixture for fit in seen)


def test_from_config_families():
    assert ro.from_config("exponential", 2.0).family == "exponential"
    assert ro.from_config("half_normal", 1.0).family == "half_normal"
    assert ro.from_config("log_normal", 0.0, 1.0).family == "log_normal"
    assert ro.from_config("weibull", 1.0, 2.0).family == "weibull"
    assert ro.from_config("pareto", 1.0, 3.0).family == "pareto"


def test_from_config_arity_and_unknown():
    with pytest.raises(ValueError):
        ro.from_config("exponential", 1.0, 2.0)  # one-parameter family
    with pytest.raises(ValueError):
        ro.from_config("log_normal", 0.0)        # needs both parameters
    with pytest.raises(ValueError):
        ro.from_config("gamma", 1.0, 1.0)        # not a supported family


def test_benchmark_distribution_sets():
    d1 = ro.example1_distributions()
    assert set(d1) == {"exponential", "half_normal", "log_normal"}
    for dist in d1.values():
        assert_close(dist.mean, 1.0, 1e-12, "benchmark 1 mean")
    d2 = ro.example2_distributions()
    assert set(d2) == {"exponential", "weibull", "pareto"}
    for dist in d2.values():
        assert_close(dist.mean, 2.0, 1e-12, "benchmark 2 mean")


# the half-normal and log-normal laws, which load scipy.special, and Pareto
# laws on both sides of the mixture fit's shape limit, which load no scipy
COLD_LAWS = [("half_normal", 1.3, None), ("log_normal", -0.5, 1.0), ("pareto", 2.0, 2.0),
             ("pareto", 2.0, 10.5)]


def _law_bits(dist):
    y = np.concatenate([np.linspace(0.0, 40.0, 401), [1e3, 1e6]])
    u = np.linspace(0.0, 0.999, 400)
    return [dist.cdf(y).tobytes().hex(), dist.tail(y).tobytes().hex(), dist.ppf(u).tobytes().hex(),
            repr(dist.tail_mixture)]


def _cold_run(code, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


def test_laws_built_before_scipy_loads_give_the_same_bits():
    # scipy.special is imported by the factories that need it; built in a
    # process where no scipy module has loaded yet, each law must give the
    # same bits as here
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "import ruinopt as ro\n"
        + inspect.getsource(_law_bits)
        + "cold = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "bits = [_law_bits(ro.from_config(*law)) for law in json.loads(sys.argv[1])]\n"
        "print(json.dumps([cold, 'scipy.special' in sys.modules, bits]))\n"
    )
    out = _cold_run(code, json.dumps(COLD_LAWS))
    assert out.returncode == 0, out.stderr
    cold, loaded, bits = json.loads(out.stdout.splitlines()[-1])
    assert cold == [] and loaded
    assert bits == [_law_bits(ro.from_config(*law)) for law in COLD_LAWS]


@pytest.mark.parametrize("family,params", [("half_normal", "claim.p1 = 1.0"),
                                           ("log_normal", "claim.p1 = -0.5\nclaim.p2 = 1.0")],
                         ids=["half_normal", "log_normal"])
def test_constants_from_cold(tmp_path, family, params):
    scenario = (Path(__file__).parent / "pinned" / "bench2_pareto.scn").read_text(encoding="utf-8")
    path = tmp_path / "scenario.txt"
    path.write_text(f"{scenario[: scenario.index('claim.family')]}claim.family = {family}\n{params}\n",
                    encoding="utf-8")
    out = _cold_run("import sys; from ruinopt.cli import main; sys.exit(main(sys.argv[1:]))",
                    "constants", str(path))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["scenario"]["claim.family"] == family
