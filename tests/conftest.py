"""Shared fixtures: benchmark parameter sets and pre-solved grids.

The two reference solves are session-scoped because every consumer treats
them as read-only; re-solving per test would dominate the suite runtime.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import ruinopt as ro

# mu << r and a large cap: at h = 0.1 and small x, some invested amounts give
# a capped node map that does not contract (D(a) <= 0 in solve.py)
NONCONTRACTING = ro.ModelParams(
    c=0.0286, r=0.3387, mu=0.1038, sigma=0.0877, sigma1=0.1351, rho=-0.469, lam=0.882, cap=9.89
)


@pytest.fixture(scope="session")
def ex1():
    return ro.example1_params()


@pytest.fixture(scope="session")
def ex2():
    return ro.example2_params()


@pytest.fixture(scope="session")
def exp1():
    return ro.make_exponential(1.0)


@pytest.fixture(scope="session")
def k1(ex1):
    return ro.derive_constants(ex1, claim_mean=1.0)


@pytest.fixture(scope="session")
def k2(ex2):
    return ro.derive_constants(ex2, claim_mean=2.0)


@pytest.fixture(scope="session")
def grid40():
    return ro.Grid.from_xmax(5e-3, 40.0)


@pytest.fixture(scope="session")
def vg40(ex1, exp1, grid40):
    """Benchmark 1 unconstrained solve on the reporting grid."""
    return ro.solve_v(ex1, exp1, grid40)


@pytest.fixture(scope="session")
def vg_front(ex1, exp1):
    """Benchmark 1 solve on a short, fine front grid: h = 1e-5 to x = 1e-3.

    The march is causal, so these nodes are what a grid of the same step
    but any length gives at the front; the near-zero checks read its a*.
    """
    return ro.solve_v(ex1, exp1, ro.Grid.from_xmax(1e-5, 1e-3))


@pytest.fixture(scope="session")
def vgc1(ex1, exp1):
    """Benchmark 1 constrained solve, cap 1, shorter grid."""
    grid = ro.Grid.from_xmax(5e-3, 10.0)
    return ro.solve_v(replace(ex1, cap=1.0), exp1, grid)


def _acceptance_lines(config) -> list[str]:
    lines = getattr(config, "_acceptance_lines", None)
    if lines is None:
        lines = []
        config._acceptance_lines = lines
    return lines


@pytest.fixture(scope="session")
def acceptance(request):
    """Collector for the per-criterion verdict lines.

    record(n, ok, detail) stores the line for the end-of-run summary and
    returns ok so the caller can assert on it; the line is emitted whether
    or not the assertion passes.
    """
    lines = _acceptance_lines(request.config)

    def record(n: int, ok: bool, detail: str) -> bool:
        lines.append(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
        return ok

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


def assert_close(actual, expected, rtol, label=""):
    """Scalar closeness with a diagnostic that shows both values."""
    actual = float(actual)
    expected = float(expected)
    err = abs(actual - expected) / max(abs(expected), 1e-300)
    assert err <= rtol, f"{label}: {actual!r} vs {expected!r} (rel {err:.3e} > {rtol:.1e})"


def max_rel_dev(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def textbook_slopes(k, p):
    """The two textbook forms of the initial slope S of a*, each with a
    subtraction that loses digits when mu is close to r: the explicit form,
    and the one through the second-order coefficient eta."""
    ex = p.excess
    s = math.sqrt(k.c_rho**2 + 2.0 * k.gamma * k.sigma_rho2)
    explicit = ex / p.sigma**2 - (
        (p.lam - p.r + 2.0 * k.gamma) * (k.a_star_zero + p.hedge) + k.c_rho * ex / p.sigma**2
    ) / s
    via_eta = ex / p.sigma**2 * (1.0 + 2.0 * k.eta / k.B)
    return explicit, via_eta


def node_residual(vg):
    """max_j |v_j - v_{j-1} - h/2 (v'_j + v'_{j-1})| / v_j over j >= 1.

    The implicit-trapezoid node equation each solver solves; it is met to
    round-off whatever the node solver's stop rule.
    """
    v, vp = vg.v, vg.vprime
    res = np.abs(v[1:] - v[:-1] - 0.5 * vg.grid.h * (vp[1:] + vp[:-1]))
    return float(np.max(res / v[1:]))


def node_draws(seed, n, lam, x_max):
    """Seeded (h, x, alpha, q) draws for one node of either march.

    q, the claims history sum, is drawn as a fraction of lam * alpha.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n):
        h = float(rng.choice([5e-3, 2e-2, 0.1]))
        alpha = float(rng.uniform(1e-3, 1.0))
        yield h, float(rng.uniform(0.0, x_max)), alpha, float(rng.uniform(0.0, 1.0)) * lam * alpha


def front_line_fit(vg, x_fit):
    """Least-squares line (slope, intercept) through a*(x_j) for x_j in [h, x_fit]."""
    m = int(round(x_fit / vg.grid.h))
    x = vg.grid.points[1 : m + 1]
    slope, intercept = np.polyfit(x, vg.a_star[1 : m + 1], 1)
    return float(slope), float(intercept)


def richardson_slope_zero(vg):
    """a*'(0+) as 2 D(h) - D(2h), D(s) = (a*(s) - a*(0)) / s.

    The combination cancels the quadratic term of a* at 0, so the error is
    O(h^2) and no fit window is involved.
    """
    a = vg.a_star
    return float((4.0 * a[1] - a[2] - 3.0 * a[0]) / (2.0 * vg.grid.h))
