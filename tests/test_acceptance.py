"""Acceptance gate: ten pinned criteria, one printed pass/fail line each.

Each test measures, records its line through the `acceptance` fixture, and
then asserts, so a red criterion is a red test and the summary still shows
every measured number.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

import ruinopt as ro
from ruinopt.exp_ode import reconstruct_log_vprime, solve_a_tilde, solve_linear_const_strategy
from ruinopt.mc import SimConfig, estimate_survival
from conftest import front_line_fit, max_rel_dev, node_residual, richardson_slope_zero, textbook_slopes

A_STAR_0 = 0.8542115          # printed anchors for benchmark 1
SLOPE_0 = 0.02039470
V_PRIME_0 = -22.016174
SHIFT1 = -0.2 * 0.2 / 0.1     # rho sigma1 / sigma


@pytest.fixture(scope="module")
def timed_solve(ex1, exp1):
    grid = ro.Grid.from_xmax(5e-3, 40.0)
    t0 = time.perf_counter()
    vg = ro.solve_v(ex1, exp1, grid)
    runtime = time.perf_counter() - t0
    return SimpleNamespace(vg=vg, runtime=runtime)


def test_criterion_1_closed_form_anchor(acceptance, ex1):
    ro.strategy_slope_zero(ro.derive_constants(ex1), ex1)  # warm caches
    t0 = time.perf_counter()
    cons = ro.derive_constants(ex1)
    slope = ro.strategy_slope_zero(cons, ex1)
    elapsed = time.perf_counter() - t0
    dev_a = abs(cons.a_star_zero - A_STAR_0)
    dev_s = abs(slope - SLOPE_0)
    ok = dev_a <= 1e-6 and dev_s <= 1e-6 and elapsed < 1e-3
    assert acceptance(
        1, ok,
        f"a*(0+) dev {dev_a:.2e}, slope dev {dev_s:.2e} (tol 1e-6), {elapsed * 1e6:.0f} us",
    )


def test_criterion_2_large_x_anchor(acceptance, ex1):
    limit, coeff = ro.strategy_expansion_infinity_exp(ex1, 1.0)
    dev_l = abs(limit - 10.4)
    dev_c = abs(abs(coeff) - 0.625)
    ok = dev_l <= 1e-12 and dev_c <= 1e-12 and coeff < 0
    assert acceptance(
        2, ok, f"limit dev {dev_l:.2e}, |coeff| dev {dev_c:.2e} (tol 1e-12)"
    )


def test_criterion_3_solver_vs_asymptote(acceptance, timed_solve, vg_front):
    # a*(0+) - S x holds to 10% in slope only for x below about 6e-4 (the
    # quadratic coefficient measures about 3.22), so the near-zero reading
    # uses the fine front grid: the intercept from a line on [h, 3e-4], the
    # slope from the Richardson quotient, which needs no window
    h = vg_front.grid.h
    x_fit = 3e-4
    _, fit_intercept = front_line_fit(vg_front, x_fit)
    slope = richardson_slope_zero(vg_front)
    dev_i = abs(fit_intercept - A_STAR_0)
    dev_s = abs(slope - (-SLOPE_0)) / SLOPE_0
    vp0 = float(timed_solve.vg.vprime[0])
    dev_v = abs(vp0 - V_PRIME_0) / abs(V_PRIME_0)
    ok = (
        timed_solve.runtime <= 60.0
        and dev_i <= 1e-3
        and dev_s <= 0.10
        and dev_v <= 1e-4
    )
    assert acceptance(
        3, ok,
        f"front grid h={h:g} to x={vg_front.grid.points[-1]:g}: line on "
        f"[{h:g}, {x_fit:g}] intercept {fit_intercept:.7f} (target {A_STAR_0}, "
        f"dev {dev_i:.2e} vs 1e-3), Richardson slope 2D(h)-D(2h) {slope:+.7f} "
        f"(target {-SLOPE_0}, rel dev {dev_s:.1e} vs 0.1); "
        f"v'(0) rel dev {dev_v:.1e} (tol 1e-4); solve {timed_solve.runtime:.2f}s",
    )


def test_criterion_4_tail_plateau(acceptance, timed_solve, ex1):
    x = timed_solve.vg.x
    mask = (x >= 30.0) & (x <= 40.0)
    xs = x[mask]

    def plateau(vals):
        logc = np.log(vals) + xs - (ex1.lam / ex1.r - 1.0) * np.log(xs)
        return float(np.exp(logc.max() - logc.min()))

    r_solver = plateau(timed_solve.vg.v[mask])
    curve = solve_a_tilde(ex1, 1.0, 8.0, 40.0)
    r_ode = plateau(np.exp(reconstruct_log_vprime(curve, ex1, (10.0, 1.0), xs)))   # scale-free
    ok = r_solver <= 1.02 and r_ode <= 1.02
    assert acceptance(
        4, ok,
        f"compensated slope max/min on [30, 40]: solver {r_solver:.6f}, "
        f"feedback-ODE reconstruction {r_ode:.6f} (tol 1.02)",
    )


def test_criterion_5_oracle_equivalence(acceptance, timed_solve, ex1, k1):
    t0 = time.perf_counter()
    slope = ro.strategy_slope_zero(k1, ex1)
    x_seed = 1e-4
    seed = (k1.a_star_zero - slope * x_seed) + SHIFT1
    curve = solve_a_tilde(ex1, 1.0, x_seed, 40.0, seed_value=seed)
    ode_runtime = time.perf_counter() - t0
    x = timed_solve.vg.x
    mask = (x >= 1.0) & (x <= 10.0)
    atil_solver = timed_solve.vg.a_star[mask] + SHIFT1
    dev = max_rel_dev(curve(x[mask]), atil_solver)
    total = timed_solve.runtime + ode_runtime
    ok = dev <= 1e-3 and total <= 60.0
    assert acceptance(
        5, ok,
        f"solver vs feedback ODE on [1, 10]: max rel dev {dev:.2e} (tol 1e-3), "
        f"runtime {total:.2f}s",
    )


def test_criterion_6_regime_matrix(acceptance, ex1, exp1):
    grid = ro.Grid.from_xmax(5e-3, 5.0)
    rows = []
    ok = True
    for rho in (-0.5, -0.2, 0.5):
        p = replace(ex1, rho=rho, cap=1.0)
        rep = ro.classify_zero_regime(p)
        vg = ro.solve_v(p, exp1, grid)
        a0 = float(vg.a_star[0])
        if rho == -0.5:
            good = a0 == 1.0 and rep.regime is ro.Regime.FULL_CAP
        elif rho == -0.2:
            good = abs(a0 - A_STAR_0) <= 1e-3 and rep.regime is ro.Regime.INTERIOR
        else:
            good = a0 == 0.0 and rep.regime is ro.Regime.ZERO_INVESTMENT
        ok = ok and good
        rows.append(f"rho={rho:+.1f}: a(0)={a0:.7f} [{rep.regime.value}]")
    assert acceptance(6, ok, "; ".join(rows))


def test_criterion_7_node_certificate(acceptance, timed_solve, vgc1):
    # the march is one pass, so the certificate is per node: the node
    # equation met to round-off
    grids = (timed_solve.vg, vgc1)
    worst = max(node_residual(vg) for vg in grids)
    ok = worst <= 1e-14
    assert acceptance(
        7, ok,
        f"{sum(vg.grid.n - 1 for vg in grids)} nodes solved in closed form; "
        f"max node residual {worst:.1e} v_j (tol 1e-14)",
    )


def test_criterion_8_monte_carlo(acceptance, timed_solve, ex1, exp1):
    cfg = SimConfig(dt=1e-3, horizon=200.0, n_paths=100_000, safe_level=60.0, master_seed=2026)
    # the paths stop as safe at the largest level any of the three
    # strategies' solves certifies, psi^a(L) <= SE/100, so common random
    # numbers still couple them; each strategy's estimate then targets
    # delta^a(1) / delta^a(L).  The solve on [0, 40] reaches L, and the
    # strategy is that solve's a*, as `simulate` runs it
    vg = timed_solve.vg
    grid = vg.grid
    norms = {
        "optimal": ro.normalize_delta(vg, claim_mean=1.0),
        **{A: ro.normalize_delta(ro.evaluate_policy(ex1, exp1, grid, np.full(grid.n, A)), claim_mean=1.0)
           for A in (0.0, 0.8542)},
    }
    levels = {name: norm.absorb_level(1.0, cfg.n_paths, cfg.safe_level) for name, norm in norms.items()}
    level = max(L for L, _ in levels.values())
    certified = all(psi is not None for _, psi in levels.values())
    cfg = replace(cfg, safe_level=level)
    norm = norms["optimal"]
    target = float(norm.delta(1.0)) / float(norm.delta(level))
    curve = ro.SampledFn(grid=grid, values=vg.a_star)
    t0 = time.perf_counter()
    rep_opt = estimate_survival(ex1, exp1, curve, 1.0, cfg)
    rep_zero = estimate_survival(ex1, exp1, 0.0, 1.0, cfg)
    rep_const = estimate_survival(ex1, exp1, 0.8542, 1.0, cfg)
    elapsed = time.perf_counter() - t0

    dev = abs(rep_opt.survival - target)
    pooled_zero = math.hypot(rep_opt.stderr, rep_zero.stderr)
    pooled_const = math.hypot(rep_opt.stderr, rep_const.stderr)
    ok = (
        certified
        and level < grid.x_max
        and elapsed <= 600.0
        and dev <= 3.0 * rep_opt.stderr
        and rep_opt.survival >= rep_zero.survival - 2.0 * pooled_zero
        and rep_opt.survival >= rep_const.survival - 2.0 * pooled_const
    )
    assert acceptance(
        8, ok,
        f"MC optimal {rep_opt.survival:.5f} +- {rep_opt.stderr:.5f} vs delta(1)/delta(L) "
        f"{target:.5f} (|z| = {dev / rep_opt.stderr:.2f}, tol 3); a=0 "
        f"{rep_zero.survival:.5f}, a=0.8542 {rep_const.survival:.5f}; absorbed at L = {level:g}, "
        f"max psi^a(L) {max(float(n.psi(level)) for n in norms.values()):.1e}; "
        f"{elapsed:.0f}s for 3 x 1e5 paths",
    )


def test_criterion_9_constant_strategy(acceptance, ex1, exp1):
    target = -2.0 * (ex1.c + ex1.excess) / ex1.quadratic_form(1.0)
    grid = ro.Grid.from_xmax(5e-3, 40.0)
    vg = solve_linear_const_strategy(ex1, 1.0, 1.0, grid)
    vp0 = float(vg.vprime[0])
    dev_vp = abs(vp0 - target)
    printed_dev = abs(vp0 - (-21.904762))  # the 8-digit print of the same number
    norm = ro.normalize_delta(vg, claim_mean=1.0)

    cfg = SimConfig(dt=1e-3, horizon=200.0, n_paths=30_000, safe_level=60.0, master_seed=9)
    # the three runs share their paths' random numbers; they stop as safe
    # at the largest level the ODE's psi certifies for any of them, and each
    # estimate targets delta(x0) / delta(L)
    x0s = (0.5, 1.0, 2.0)
    levels = [norm.absorb_level(x0, cfg.n_paths, cfg.safe_level) for x0 in x0s]
    level = max(L for L, _ in levels)
    cfg = replace(cfg, safe_level=level)
    zs = []
    ok = dev_vp <= 1e-9 and printed_dev <= 5e-7 and all(psi is not None for _, psi in levels)
    t0 = time.perf_counter()
    for x0 in x0s:
        rep = estimate_survival(ex1, exp1, 1.0, x0, cfg)
        z = abs(rep.survival - float(norm.delta(x0)) / float(norm.delta(level))) / rep.stderr
        zs.append(f"x0={x0:g}: |z|={z:.2f}")
        ok = ok and z <= 3.0
    elapsed = time.perf_counter() - t0
    assert acceptance(
        9, ok,
        f"phi'(0) = {vp0:.12f}, dev {dev_vp:.1e} from -0.92/0.042 (tol 1e-9); "
        f"MC under a=1 vs ODE survival delta(x0)/delta(L): " + ", ".join(zs) + " (tol 3); "
        f"absorbed at L = {level:g}, psi(L) {float(norm.psi(level)):.1e}; {elapsed:.0f}s for 3 x 3e4 paths",
    )


def test_criterion_10_property_suites(acceptance, ex1, ex2, exp1, timed_solve):
    checks: dict[str, bool] = {}

    # quadratic-form identity of the zero-curvature root, random sweep
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(200):
        r = float(rng.uniform(0.05, 1.0))
        p = ro.ModelParams(
            c=float(rng.uniform(0.1, 2.0)),
            r=r,
            mu=r + float(rng.uniform(0.01, 1.0)),
            sigma=float(rng.uniform(0.05, 2.0)),
            sigma1=float(rng.uniform(0.05, 2.0)),
            rho=float(rng.uniform(-0.95, 0.95)),
            lam=float(rng.uniform(0.05, 2.0)),
        )
        k = ro.derive_constants(p)
        terms = (0.5 * k.sigma_rho2 * k.B**2, -k.c_rho * k.B, -k.gamma)
        resid = abs(sum(terms)) / max(abs(t) for t in terms)
        worst = max(worst, resid)
    checks["quadratic identity"] = worst <= 1e-10

    # HJB residual bounds on the acceptance step, both benchmarks
    grid10 = ro.Grid.from_xmax(5e-3, 10.0)
    exp2 = ro.from_config("exponential", 0.5)
    for name, p, d in (("bench1", ex1, exp1), ("bench2", ex2, exp2)):
        vg = ro.solve_v(p, d, grid10)
        res = ro.hjb_residual(vg, p, d)
        checks[f"residual {name}"] = (
            res.fixed_point <= 1e-6 and res.independent <= 5e-3 * p.lam
        )

    # independent residual shrinks at least 0.6x per halving
    sups = []
    for h in (1e-2, 5e-3):
        g = ro.Grid.from_xmax(h, 10.0)
        vg = ro.solve_v(ex1, exp1, g)
        sups.append(ro.hjb_residual(vg, ex1, exp1).independent)
    checks["h-refinement"] = sups[1] <= 0.6 * sups[0]

    # positivity / monotonicity of the solved slope and its integral; V's
    # increments sink below its own epsilon once v ~ 1e-14, so strictness
    # is only meaningful on the front of the grid
    vg40 = timed_solve.vg
    front = vg40.x <= 20.0
    checks["slope shape"] = bool(
        np.all(vg40.v > 0)
        and np.all(np.diff(vg40.v) < 0)
        and np.all(np.diff(vg40.V) >= 0)
        and np.all(np.diff(vg40.V[front]) > 0)
    )

    # claim tails: start at 1, never increase, integrate to the mean
    tails_ok = True
    for dists in (ro.example1_distributions(), ro.example2_distributions()):
        for d in dists.values():
            ys = np.linspace(0.0, 50.0 * d.mean, 2001)
            H = np.asarray(d.tail(ys), dtype=float)
            mean_quad = quad(lambda y: float(d.tail(y)), 0.0, np.inf, limit=200)[0]
            tails_ok = tails_ok and (
                H[0] == 1.0
                and np.all(np.diff(H) <= 1e-12)
                and np.all((H >= 0.0) & (H <= 1.0))
                and abs(mean_quad - d.mean) <= 1e-7 * d.mean
            )
    checks["claim tails"] = tails_ok

    # MC reproducibility at desk scale
    cfg = SimConfig(dt=1e-2, horizon=10.0, n_paths=200, safe_level=10.0, master_seed=5)
    checks["mc reproducible"] = estimate_survival(
        ex1, exp1, 0.8542, 1.0, cfg
    ) == estimate_survival(ex1, exp1, 0.8542, 1.0, cfg)

    # both benchmarks: each textbook form of the initial slope agrees with
    # the product form strategy_slope_zero evaluates
    k2 = ro.derive_constants(ex2, claim_mean=2.0)
    dual = True
    for p, k in ((ex1, ro.derive_constants(ex1)), (ex2, k2)):
        slope = ro.strategy_slope_zero(k, p)
        dual = dual and all(abs(f - slope) <= 1e-12 * abs(slope) for f in textbook_slopes(k, p))
    checks["dual-form slope"] = dual

    # benchmark 2: the printed legacy constants are NOT targets; the run must
    # instead satisfy the formula-level identities
    checks["bench2 legacy differs"] = (
        abs(k2.a_star_zero - (-0.05274736)) > 1e-3
        and abs(ro.strategy_expansion_infinity_exp(ex2, 2.0)[0] - 0.163580) > 1e-2
    )

    failed = [name for name, good in checks.items() if not good]
    ok = not failed
    detail = (
        f"all {len(checks)} invariant groups pass"
        if ok
        else "failed: " + ", ".join(failed)
    )
    assert acceptance(10, ok, detail)
