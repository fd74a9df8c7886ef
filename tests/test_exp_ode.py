"""Exponential-claims ODE routes checked against the grid solver."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ruinopt as ro
from ruinopt.exp_ode import (
    _MESH_BLOCK,
    TildeACurve,
    a_tilde_rhs,
    linear_ode_coeffs,
    reconstruct_log_vprime,
    solve_a_tilde,
    solve_linear_const_strategy,
)
from conftest import assert_close, max_rel_dev


SHIFT1 = -0.2 * 0.2 / 0.1  # rho sigma1 / sigma for benchmark 1


def test_rhs_needs_stock_edge(ex1):
    flat = replace(ex1, mu=ex1.r)
    with pytest.raises(ValueError, match="mu != r"):
        a_tilde_rhs(1.0, 0.5, flat, 1.0)


@pytest.mark.parametrize("which", ["ex1", "ex2"])
def test_rhs_attractivity_matches_d0(which, ex1, ex2, k1, k2):
    # near the limit the rhs slope in a is d0 x + O(1); d0 < 0 is what makes
    # forward integration the stable direction
    p, k, m = (ex1, k1, 1.0) if which == "ex1" else (ex2, k2, 2.0)
    a_inf = p.excess * m / p.sigma**2
    x = 1000.0
    eps = 1e-6
    der = (a_tilde_rhs(x, a_inf + eps, p, m) - a_tilde_rhs(x, a_inf - eps, p, m)) / (2 * eps)
    assert k.d0 < 0
    assert_close(der, k.d0 * x, 1e-2, "attractivity slope")


def test_seed_validation(ex1):
    for x_seed, x_end in ((-1.0, 10.0), (8.0, 8.0), (float("nan"), 10.0), (8.0, float("nan")), (8.0, float("inf"))):
        with pytest.raises(ValueError, match="x_seed"):
            solve_a_tilde(ex1, 1.0, x_seed, x_end)


@pytest.mark.parametrize("step", [-1e-3, 0.0, float("inf"), float("nan"), 1e-12, 5e-324])
def test_bad_step_refused(ex1, step):
    # 1e-12 over [8, 40] is 3.2e13 steps, above numerics.MAX_NODES; the
    # span over 5e-324 overflows
    with pytest.raises(ValueError, match="step"):
        solve_a_tilde(ex1, 1.0, 8.0, 40.0, step=step)


def _plain_rk4(p, m, xs, y0):
    """Classic RK4 with one call of a_tilde_rhs per stage, on the nodes xs:
    the oracle for solve_a_tilde."""
    xs = xs.tolist()
    y = y0
    ys = [y]
    for xi, xn in zip(xs[:-1], xs[1:]):
        h = xn - xi
        k1 = a_tilde_rhs(xi, y, p, m)
        k2 = a_tilde_rhs(xi + 0.5 * h, y + 0.5 * h * k1, p, m)
        k3 = a_tilde_rhs(xi + 0.5 * h, y + 0.5 * h * k2, p, m)
        k4 = a_tilde_rhs(xn, y + h * k3, p, m)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys.append(y)
    return np.array(ys)


@pytest.mark.parametrize(
    "which, m, x_seed, seed, x_end",
    [
        # the exp-validate span and seed on benchmark 1, and on benchmark 2
        # with exponential claims: graded steps, then stiffness-capped ones
        ("ex1", 1.0, 1e-4, 0.4542, 40.0),
        ("ex2", 0.5, 1e-4, 0.0244, 40.0),
        ("ex1", 1.0, 8.0, 8.9, 12.3),       # a last block shorter than the others
        ("ex1", 1.0, 8.0, 8.9, 8.0005),     # a single step
    ],
)
def test_rk4_equals_plain_loop_bit_for_bit(which, m, x_seed, seed, x_end, ex1, ex2):
    p = ex1 if which == "ex1" else ex2
    curve = solve_a_tilde(p, m, x_seed, x_end, seed_value=seed)
    assert curve.x[0] == x_seed and curve.x[-1] == x_end and np.all(np.diff(curve.x) > 0)
    ys = _plain_rk4(p, m, curve.x, seed)
    assert np.array_equal(curve.a.view(np.int64), ys.view(np.int64))


def _exp_validate_curve(p, k, m, step=2.5e-3, x_end=40.0):
    """The feedback curve exp-validate integrates on a grid to x_end."""
    seed = k.a_star_zero - ro.strategy_slope_zero(k, p) * 1e-4 + p.hedge
    return solve_a_tilde(p, m, 1e-4, x_end, step=step, seed_value=seed)


@pytest.mark.parametrize("which, x_end, most", [("ex1", 40.0, 3000), ("ex2", 40.0, 3300), ("ex1", 400.0, 100_000)])
def test_graded_mesh_never_takes_more_steps_than_the_uniform_one(which, x_end, most, ex1, ex2, k1, k2):
    # every step but the last block's is at least `step`, so the mesh takes
    # no more steps than the uniform one (16,000 and 160,000 here); observed
    # 2,805, 3,122 and 97,856
    p, k, m = (ex1, k1, 1.0) if which == "ex1" else (ex2, k2, 2.0)
    steps = np.diff(_exp_validate_curve(p, k, m, x_end=x_end).x)
    assert len(steps) <= min(most, math.ceil((x_end - 1e-4) / 2.5e-3))
    assert np.all(steps[:-_MESH_BLOCK] >= 2.5e-3 * (1.0 - 1e-12))


@pytest.mark.parametrize("which", ["ex1", "ex2"])
def test_default_step_reads_the_window_to_1e_8(which, ex1, ex2, k1, k2):
    # the default step read through the Hermite interpolant against a run at
    # step/8, on exp-validate's window nodes (h = 5e-3, [1, 10]): observed
    # 3.0e-9 on benchmark 1 and 4.5e-10 on benchmark 2 (mean-2 claims)
    p, k, m = (ex1, k1, 1.0) if which == "ex1" else (ex2, k2, 2.0)
    x = ro.Grid.from_xmax(5e-3, 10.0).points[200:]
    ref = _exp_validate_curve(p, k, m, step=2.5e-3 / 8)(x)
    dev = max_rel_dev(_exp_validate_curve(p, k, m)(x), ref)
    assert dev <= 1e-8, f"default step deviates {dev:.3e} from step/8"


@pytest.mark.parametrize("which", ["ex1", "ex2"])
def test_reconstruction_quadrature_is_fourth_order_on_any_mesh(which, ex1, ex2, k1, k2):
    # one curve on two meshes: the step/8 curve, and its values, with their
    # slopes from a_tilde_rhs, at the default mesh's nodes.  Anchored at 10,
    # the slope on [10, 40] at the coarse nodes: observed 8.9e-14 and
    # 7.8e-14; the trapezoid without its end correction reads 2.4e-8 and
    # 4.4e-7
    p, k, m = (ex1, k1, 1.0) if which == "ex1" else (ex2, k2, 2.0)
    x = _exp_validate_curve(p, k, m).x
    fine = _exp_validate_curve(p, k, m, step=2.5e-3 / 8)
    a = fine(x)
    da = np.array([a_tilde_rhs(xi, ai, p, m) for xi, ai in zip(x.tolist(), a.tolist())])
    coarse = replace(fine, x=x, a=a, da=da)
    xq = x[x >= 10.0]
    dev = max_rel_dev(np.exp(reconstruct_log_vprime(coarse, p, (10.0, 1.0), xq)),
                      np.exp(reconstruct_log_vprime(fine, p, (10.0, 1.0), xq)))
    assert dev <= 1e-11, f"quadrature deviates {dev:.3e} from the step/8 mesh's"


@pytest.mark.parametrize("which, bound", [("ex1", 1e-9), ("ex2", 2e-8)], ids=["ex1", "ex2"])
def test_reconstruction_at_the_default_step_is_fourth_order(which, bound, ex1, ex2, k1, k2):
    # anchored at 10, away from the seed, the slope on [10, 40] at the
    # default mesh's nodes against the step/8 curve's: observed 2.6e-10 and
    # 6.3e-9, against 3.2e-13 and 1.2e-12 on the uniform mesh of 16,000
    # steps that the graded one replaced.  The trapezoid without its end
    # correction reads 2.5e-8 and 4.5e-7
    p, k, m = (ex1, k1, 1.0) if which == "ex1" else (ex2, k2, 2.0)
    curve = _exp_validate_curve(p, k, m)
    xq = curve.x[curve.x >= 10.0]
    fine = np.exp(reconstruct_log_vprime(_exp_validate_curve(p, k, m, step=2.5e-3 / 8), p, (10.0, 1.0), xq))
    dev = max_rel_dev(np.exp(reconstruct_log_vprime(curve, p, (10.0, 1.0), xq)), fine)
    assert dev <= bound, f"reconstruction deviates {dev:.3e} from step/8"


def test_curve_holds_its_end_values_outside_its_span(ex1):
    curve = solve_a_tilde(ex1, 1.0, 8.0, 12.3)
    out = curve(np.array([-1.0, 7.999, 12.3001, 1e300, -np.inf, np.inf]))
    assert out.tolist() == [curve.a[0]] * 2 + [curve.a[-1]] * 2 + [curve.a[0], curve.a[-1]]
    assert curve(8.0) == curve.a[0] and curve(12.3) == curve.a[-1]
    assert curve(float(curve.x[7])) == curve.a[7]


def test_series_seed_advisory(ex1):
    # dropped next order ~ |a1|/(x^2 a0): 2.5e-3 at x=5 (warn), 9.8e-4 at 8
    with pytest.warns(UserWarning, match="series seed"):
        curve = solve_a_tilde(ex1, 1.0, 5.0, 6.0)
    assert curve.seed_note is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = solve_a_tilde(ex1, 1.0, 8.0, 9.0)
    assert curve.seed_note is None
    limit, coeff = ro.strategy_expansion_infinity_exp(ex1, 1.0)
    assert_close(curve.series[0], limit + SHIFT1, 1e-12, "series limit")
    assert_close(curve.series[1], coeff, 1e-12, "series coeff")
    assert_close(curve.seed, curve.series[0] + curve.series[1] / 8.0, 1e-15, "series seed")


def test_explicit_seed_respected(ex1):
    curve = solve_a_tilde(ex1, 1.0, 5.0, 6.0, seed_value=9.9)
    assert curve.seed == 9.9
    assert curve.seed_note is None


def test_forward_matches_grid_solver(ex1, vg40):
    # no dynamic programming here: series seed + RK4 must land on the
    # strategy the windowed fixed point produced
    curve = solve_a_tilde(ex1, 1.0, 8.0, 40.0)
    x = vg40.x
    mask = (x >= 10.0) & (x <= 35.0)
    atil_solver = vg40.a_star[mask] + SHIFT1
    dev = max_rel_dev(curve(x[mask]), atil_solver)
    assert dev <= 1e-4, f"feedback ODE deviates {dev:.3e}"   # observed 2.1e-6


def test_forward_approach_is_monotone(ex1):
    curve = solve_a_tilde(ex1, 1.0, 8.0, 40.0)
    gap = np.abs(curve.a - curve.series[0])
    assert np.all(np.diff(gap) <= 1e-12)
    assert gap[-1] < gap[0] / 4


def test_reconstruct_vprime_matches_solver(ex1, vg40):
    curve = solve_a_tilde(ex1, 1.0, 8.0, 40.0)
    x0 = 10.0
    v0 = float(np.interp(x0, vg40.x, vg40.v))
    mask = (vg40.x >= 10.0) & (vg40.x <= 35.0)
    dev = max_rel_dev(v0 * np.exp(reconstruct_log_vprime(curve, ex1, (x0, 1.0), vg40.x[mask])), vg40.v[mask])
    assert dev <= 1e-6, f"reconstruction deviates {dev:.3e}"  # observed 1.3e-8


def test_reconstruct_log_vprime_is_the_log_of_the_slope(ex1):
    # far out, where the slope underflows, the log stays finite, and the
    # anchor's value only shifts it
    curve = solve_a_tilde(ex1, 1.0, 8.0, 800.0)
    xq = np.linspace(10.0, 800.0, 4001)
    log_v = reconstruct_log_vprime(curve, ex1, (10.0, 1.0), xq)
    assert np.all(np.isfinite(log_v)) and log_v[-1] < math.log(np.finfo(float).smallest_subnormal)
    shifted = reconstruct_log_vprime(curve, ex1, (10.0, 0.25), xq)
    assert np.max(np.abs(shifted - (log_v + math.log(0.25)))) <= 1e-12


def test_stiffness_past_rk4s_stability_interval_is_refused(ex1):
    # at step 2.5e-3 the floor of the mesh meets step |df/da| = 2.785 near
    # x = 1804.6 on benchmark 1, where RK4 turns unstable; up to 1800 it runs
    curve = solve_a_tilde(ex1, 1.0, 1500.0, 1800.0)
    assert abs(curve.a[-1] - 10.0) < 1e-3
    with pytest.raises(ValueError, match=r"too stiff for RK4 at x = 1804\.6"):
        solve_a_tilde(ex1, 1.0, 1500.0, 1900.0)


def test_reconstruct_anchor_validation(ex1):
    curve = solve_a_tilde(ex1, 1.0, 8.0, 12.0)
    with pytest.raises(ValueError, match="anchor"):
        reconstruct_log_vprime(curve, ex1, (5.0, 1.0), [9.0])
    with pytest.raises(ValueError, match="abscissae"):
        reconstruct_log_vprime(curve, ex1, (9.0, 1.0), [9.0, 12.5])
    bad = TildeACurve(
        x=np.array([1.0, 2.0, 3.0]), a=np.array([1.0, 0.0, -1.0]), da=np.array([-1.0, -1.0, -1.0]),
        seed=1.0, series=(1.0, 0.0),
    )
    with pytest.raises(ValueError, match="crosses zero"):
        reconstruct_log_vprime(bad, ex1, (2.0, 1.0), [2.5])


def test_linear_coeffs_frozen(ex1):
    co = linear_ode_coeffs(ex1, 1.0, 1.0)
    assert_close(co.A_rho2, 0.042, 1e-12, "quadratic form at 1")
    assert_close(co.a1, 0.92 / 0.042 + 1.0, 1e-12, "a1")
    assert_close(co.a2, 0.64 / 0.042, 1e-12, "a2")
    assert_close(co.a3, 0.96 / 0.042, 1e-12, "a3")
    assert_close(co.a4, 0.64 / 0.042, 1e-12, "a4")

    co0 = linear_ode_coeffs(ex1, 0.0, 1.0)
    assert_close(co0.A_rho2, 0.04, 1e-12, "sigma1^2 at a = 0")
    assert_close(co0.a1, 19.0, 1e-12, "a1 at 0")
    assert_close(co0.a2, 16.0, 1e-12, "a2 at 0")

    with pytest.raises(ValueError):
        linear_ode_coeffs(ex1, -0.5, 1.0)


def test_linear_solve_shape_and_slope(ex1):
    grid = ro.Grid.from_xmax(5e-3, 10.0)
    vg = solve_linear_const_strategy(ex1, 1.0, 1.0, grid)
    assert np.array_equal(vg.a_star, np.full(grid.n, 1.0))
    assert vg.v[0] == 1.0
    assert_close(vg.vprime[0], -0.92 / 0.042, 1e-12, "slope at 0")
    assert np.all(vg.v > 0)
    assert np.all(np.diff(vg.v) < 0)


def _plain_linear_const_strategy(params, A, m, grid):
    """The constant-strategy trapezoid loop on numpy scalars, as first
    written: the oracle for solve_linear_const_strategy's (phi, psi)."""
    co = linear_ode_coeffs(params, A, m)
    h = grid.h
    x = grid.points
    n = grid.n
    phi = np.empty(n)
    psi = np.empty(n)
    phi[0] = 1.0
    psi[0] = -2.0 * (params.c + params.excess * A) / co.A_rho2
    half_h = 0.5 * h
    for j in range(1, n):
        pj = co.a2 * x[j - 1] + co.a1
        qj = co.a4 * x[j - 1] + co.a3
        p1 = co.a2 * x[j] + co.a1
        q1 = co.a4 * x[j] + co.a3
        r0 = phi[j - 1] + half_h * psi[j - 1]
        r1 = psi[j - 1] + half_h * (-qj * phi[j - 1] - pj * psi[j - 1])
        det = (1.0 + half_h * p1) + half_h * half_h * q1
        phi[j] = ((1.0 + half_h * p1) * r0 + half_h * r1) / det
        psi[j] = (-half_h * q1 * r0 + r1) / det
    return phi, psi


@pytest.mark.parametrize(
    "which, A, m, h, x_max",
    [
        ("ex1", 1.0, 1.0, 5e-3, 40.0),                # criterion 9's reference grid
        ("ex1", 0.8542114902640175, 1.0, 5e-3, 10.0),  # perfbench's mc reference strategy
        ("ex1", 0.0, 1.0, 5e-3, 10.245),              # n = 2050: one node past a full block
        ("ex2", 2.0, 0.5, 1e-2, 20.48),               # n = 2049: node 0 and one full block
        ("ex2", 9.091604752856423, 2.0, 0.1, 0.1),    # n = 2: a single step
    ],
)
def test_linear_solve_equals_plain_loop_bit_for_bit(which, A, m, h, x_max, ex1, ex2):
    p = ex1 if which == "ex1" else ex2
    grid = ro.Grid.from_xmax(h, x_max)
    phi, psi = _plain_linear_const_strategy(p, A, m, grid)
    vg = solve_linear_const_strategy(p, A, m, grid)
    assert np.array_equal(vg.v.view(np.int64), phi.view(np.int64))
    assert np.array_equal(vg.vprime.view(np.int64), psi.view(np.int64))


def test_no_investment_ode_near_classical_reference(ex1):
    # a = 0 still carries the sigma1 perturbation, so this is a proximity
    # check, not an identity: diffusion adds risk on top of the classical
    # compound-Poisson picture
    grid = ro.Grid.from_xmax(5e-3, 40.0)
    vg = solve_linear_const_strategy(ex1, 0.0, 1.0, grid)
    norm = ro.normalize_delta(vg, claim_mean=1.0)
    assert not norm.truncated
    for x in (0.5, 1.0, 2.0):
        psi_ode = norm.psi(x)
        psi_ref = ro.no_investment_ruin_reference(ex1.c, ex1.r, ex1.lam, 1.0, x)
        assert psi_ode > psi_ref
        assert abs(psi_ode - psi_ref) <= 0.03, f"x={x}: {psi_ode} vs {psi_ref}"


def test_constant_strategies_never_beat_optimum(ex1, exp1, vg40):
    # observed violation is exactly 0.0 at every node for every A tried
    opt = ro.normalize_delta(vg40, claim_mean=1.0)
    for A in (0.0, 0.8542114902640175, 2.0, 9.091604752856423):
        vg = solve_linear_const_strategy(ex1, A, 1.0, vg40.grid)
        nA = ro.normalize_delta(vg, claim_mean=1.0)
        assert float(np.max(nA.delta.values - opt.delta.values)) <= 1e-6, f"A={A}"
