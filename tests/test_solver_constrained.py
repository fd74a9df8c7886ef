"""Capped-investment solve: fixed point, regimes, cross-validation."""

from __future__ import annotations

import math
import struct
from dataclasses import replace

import numpy as np
import pytest

import ruinopt as ro
from ruinopt.model import _best_candidate, _candidates, _negative_root
from ruinopt.numerics import convolve_tail_all
from ruinopt.solve import _capped_node
from conftest import NONCONTRACTING, assert_close, node_draws, node_residual


def test_boundary_and_shape(vgc1, ex1):
    assert vgc1.v[0] == 1.0
    k = ro.derive_constants(replace(ex1, cap=1.0))
    assert_close(vgc1.vprime[0], k.v_prime_zero, 1e-14, "v'(0)")
    assert np.all(vgc1.v > 0)
    assert np.all(np.diff(vgc1.v) < 0)
    assert np.all(vgc1.vprime < 0)
    assert np.all((vgc1.a_star >= 0.0) & (vgc1.a_star <= 1.0))


def test_fixed_point_residual(vgc1, ex1, exp1):
    res = ro.hjb_residual(vgc1, replace(ex1, cap=1.0), exp1)
    sup, at = res.fixed_point, res.fixed_point_at
    assert type(sup) is float and type(at) is float
    assert sup <= 1e-8                       # observed ~1e-15
    assert 0.0 <= at <= vgc1.grid.x_max


def test_fixed_point_residual_sees_nan_and_bump(vgc1, ex1, exp1):
    p = replace(ex1, cap=1.0)
    x = vgc1.x
    vp = vgc1.vprime.copy()
    vp[100] = np.nan
    vp[300] = np.nan
    res = ro.hjb_residual(replace(vgc1, vprime=vp), p, exp1)
    sup, at = res.fixed_point, res.fixed_point_at
    assert np.isnan(sup) and at == x[100]
    vp = vgc1.vprime.copy()
    vp[250] += 1e-6
    res = ro.hjb_residual(replace(vgc1, vprime=vp), p, exp1)
    sup, at = res.fixed_point, res.fixed_point_at
    assert abs(sup - 1e-6) <= 1e-12 and at == x[250]


def test_independent_residual_and_refinement(ex1, exp1):
    p = replace(ex1, cap=1.0)
    sups = []
    for h in (1e-2, 5e-3):
        grid = ro.Grid.from_xmax(h, 5.0)
        vg = ro.solve_v(p, exp1, grid)
        res = ro.hjb_residual(vg, p, exp1)
        if h == 5e-3:
            assert res.independent <= 5e-3 * p.lam
        sups.append(res.independent)
    assert sups[1] <= 0.5 * sups[0], f"refinement ratio {sups[1] / sups[0]:.3f}"


@pytest.mark.parametrize("cap", [None, 1.0])
@pytest.mark.parametrize("bench", ["bench1 exponential", "bench2 pareto"])
def test_pointwise_residual_is_order_h2_where_v_has_decayed(bench, cap):
    # the generator's claims term is the tail convolution of v, so the
    # pointwise residual stays O(h^2) v where v has decayed (v(30) is about
    # 1e-15 on bench 1).  The density form lam (V - int V f), a difference
    # of two terms near V(inf), read 0.22 v at x = 10 and 1.2e8 v at
    # x = 30 on bench 1, and 3.9e-4 v at x = 10 on Pareto, at h = 1e-2
    p, dist = {
        "bench1 exponential": (ro.example1_params(cap=cap), ro.make_exponential(1.0)),
        "bench2 pareto": (ro.example2_params(cap=cap), ro.make_pareto(2.0, 2.0)),
    }[bench]
    rel = []
    for h in (1e-2, 5e-3):
        vg = ro.solve_v(p, dist, ro.Grid.from_xmax(h, 40.0))
        res = ro.hjb_residual(vg, p, dist)
        j = [round(x / h) for x in (10.0, 30.0)]
        rel.append(np.abs(res.pointwise[j] / vg.v[j]))
    assert np.all(rel[0] <= 1e-4), rel    # observed at most 1.31e-5
    assert np.all((3.5 <= rel[0] / rel[1]) & (rel[0] / rel[1] <= 4.5)), rel


@pytest.mark.parametrize("cap", [None, 1.0])
def test_relative_certificate_is_bounded_where_v_has_decayed(cap):
    # relative is the sup of |pointwise| / v over the interior nodes: on
    # bench 1 at h = 5e-3 it reads 1.37e-3 at x = 0.055 in both modes (5.5e-3
    # at h = 1e-2), and past x = 5 at most 3.3e-6.  The density form of the
    # claims term read 1.2e8 v at x = 30, which the absolute sup, at x = h
    # where v = 1, could not see
    p, dist = ro.example1_params(cap=cap), ro.make_exponential(1.0)
    vg = ro.solve_v(p, dist, ro.Grid.from_xmax(5e-3, 40.0))
    res = ro.hjb_residual(vg, p, dist)
    rel = np.abs(res.pointwise[1:-1]) / vg.v[1:-1]
    j = int(np.argmax(rel))
    assert (res.relative, res.relative_at) == (rel[j], vg.x[j + 1])
    assert res.relative <= 2e-3, res.relative


def test_solution_refines_at_order_h2(ex1, exp1):
    p = replace(ex1, cap=1.0)
    sols = {}
    for h in (2e-2, 1e-2, 5e-3):
        sols[h] = ro.solve_v(p, exp1, ro.Grid.from_xmax(h, 5.0))
    d1 = np.max(np.abs(sols[2e-2].v - sols[1e-2].v[::2]))
    d2 = np.max(np.abs(sols[1e-2].v - sols[5e-3].v[::2]))
    assert 2.5 <= d1 / d2 <= 6.0, f"refinement ratio {d1 / d2:.2f}"


def test_curvature_best_without_cap_is_the_unrestricted_minimum():
    # cap=None minimises over every real a: the unrestricted solve's
    # negative root, no larger than any amount on a dense scan, and
    # (-B, a*(0+)) at zero surplus.  mu > r, mu < r and mu = r in turn
    rng = np.random.default_rng(29)
    a_scan = np.concatenate([-np.geomspace(1e4, 1e-4, 1201), [0.0], np.geomspace(1e-4, 1e4, 1201),
                             np.linspace(-20.0, 20.0, 4001)])
    held = 0
    for i in range(2000):
        r = float(rng.uniform(0.02, 0.4))
        mu = (r + float(rng.uniform(0.01, 0.3)), r * float(rng.uniform(0.1, 0.95)), r)[i % 3]
        p = ro.ModelParams(c=float(rng.uniform(0.1, 1.0)), r=r, mu=mu, sigma=float(rng.uniform(0.05, 0.5)),
                           sigma1=float(rng.uniform(0.05, 0.5)), rho=float(rng.uniform(-0.95, 0.95)),
                           lam=float(rng.uniform(0.1, 1.0)))
        x, w = float(rng.uniform(0.0, 10.0)), float(rng.uniform(1e-4, 1.0))
        MW = float(rng.uniform(0.0, 2.0)) * (p.c + p.r * x) * w
        val, arg = ro.curvature_best(p, x, w, MW)
        ref = _negative_root((p.c_rho + p.r * x) * w - MW, p.excess / p.sigma * w, p.sigma_rho2)
        assert abs(val - ref) <= 1e-12 * abs(ref), (i, val, ref)
        scan = ro.curvature_candidate(p, a_scan, x, w, MW)
        assert val <= scan.min() + 1e-13 * abs(val), (i, val, scan.min())
        # the limit 0 of |a| -> inf wins only without an excess return and
        # with E = MW - (c + r x) w >= 0; no amount attains it
        if math.isnan(arg):
            assert p.excess == 0.0 and MW >= (p.c + p.r * x) * w and val == 0.0, i
            held += 1
        else:
            assert_close(ro.curvature_candidate(p, arg, x, w, MW), val, 1e-12, f"value at argmin {i}")
        k = ro.derive_constants(p)
        val0, arg0 = ro.curvature_best(p, 0.0, 1.0, 0.0)
        assert_close(val0, -k.B, 1e-12, f"v'(0) {i}")
        assert abs(arg0 - k.a_star_zero) <= 1e-12 * max(abs(k.a_star_zero), p.sigma1 / p.sigma), i
    assert held > 100


def test_matches_unconstrained_when_cap_is_slack(ex1, exp1):
    # with the cap far above the open optimum the two node rules, which
    # share no algebra, must produce the same solution
    grid = ro.Grid.from_xmax(5e-3, 10.0)
    vg_u = ro.solve_v(ex1, exp1, grid)
    vg_c = ro.solve_v(replace(ex1, cap=50.0), exp1, grid)
    assert np.max(np.abs(vg_u.v - vg_c.v) / vg_u.v) <= 1e-12
    assert np.max(np.abs(vg_u.a_star - vg_c.a_star)) <= 1e-9


def test_interior_argmin_matches_closed_form(vgc1, ex1):
    # wherever the cap is not binding the minimizer must sit on the
    # stationary point of the curvature quadratic
    a = vgc1.a_star
    interior = (a > 1e-9) & (a < 1.0 - 1e-9)
    assert interior.sum() > 10
    shift = ex1.rho * ex1.sigma1 / ex1.sigma
    closed = -ex1.excess * vgc1.v / (ex1.sigma**2 * vgc1.vprime) - shift
    assert np.max(np.abs(a[interior] - closed[interior])) <= 1e-9


def test_strategy_curve_bounds(vgc1):
    st = ro.SampledFn(grid=vgc1.grid, values=vgc1.a_star)
    assert np.all((st.values >= 0.0) & (st.values <= 1.0))
    # past the grid the curve holds its final value
    assert st(vgc1.grid.x_max + 5.0) == st.values[-1]


def test_cap_binds_after_interior_start(vgc1):
    # interior at 0 (a = 0.854), then the rising open optimum hits the cap
    a = vgc1.a_star
    assert a[0] < 1.0
    assert a[-1] == 1.0
    hit = np.argmax(a >= 1.0)
    assert 0 < hit < len(a) - 1
    assert np.all(a[hit:] == 1.0)


def test_initial_regime_sweep(ex1, exp1):
    # argmin at x = 0 must agree with the closed-form classification for
    #  every correlation/cap combination
    grid = ro.Grid.from_xmax(5e-3, 2.0)
    for rho in (-0.5, -0.2, 0.5):
        for cap in (0.5, 1.0, 2.0):
            p = replace(ex1, rho=rho, cap=cap)
            k = ro.derive_constants(p)
            rep = ro.classify_zero_regime(p)
            vg = ro.solve_v(p, exp1, grid)
            a0 = vg.a_star[0]
            if rep.regime is ro.Regime.FULL_CAP:
                expected = cap
            elif rep.regime is ro.Regime.ZERO_INVESTMENT:
                expected = 0.0
            else:
                assert rep.regime is ro.Regime.INTERIOR, (rho, cap)
                expected = k.a_star_zero
            assert abs(a0 - expected) <= 1e-9, (rho, cap, rep.regime)
            assert_close(vg.vprime[0], k.v_prime_zero, 1e-12, f"v'(0) at {(rho, cap)}")


def test_node_certificate(vgc1):
    assert node_residual(vgc1) <= 1e-14


def test_node_solves_stop_at_convergence(ex2):
    # Pareto (2, 2) claims on benchmark 2: near x = 1.5 the capped argmin
    # flips in its last ulp between candidates whose nodes agree; each
    # node must still meet its equation
    pareto = ro.make_pareto(2.0, 2.0)
    grid = ro.Grid.from_xmax(5e-3, 5.0)
    for mode, vg in (
        ("constrained", ro.solve_v(replace(ex2, cap=1.0), pareto, grid)),
        ("unconstrained", ro.solve_v(ex2, pareto, grid)),
    ):
        assert node_residual(vg) <= 1e-14, mode


def _bisect_node(p, h, x, q, alpha):
    """Root of w - alpha - h/2 min_a G_a(w), bisected to adjacent floats."""

    def psi(w):
        return w - alpha - 0.5 * h * ro.curvature_best(p, x, w, q + p.lam * 0.5 * h * w)[0]

    lo, hi = 0.0, alpha
    while psi(hi) < 0.0:
        hi *= 2.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if psi(mid) < 0.0 else (lo, mid)
    return hi


@pytest.mark.parametrize("which", ["bench1", "bench2", "noncontracting"])
def test_capped_node_matches_bisection(which):
    p = {"bench1": ro.example1_params(cap=1.0), "bench2": ro.example2_params(cap=1.0),
         "noncontracting": NONCONTRACTING}[which]
    a_scan = np.linspace(0.0, p.cap, 401)
    non_contracting = 0
    for h, x, alpha, q in node_draws(5, 200, p.lam, x_max=2.0 if which == "noncontracting" else 10.0):
        w, vp, a = _capped_node(p, h)(x, q, alpha)
        assert_close(w, _bisect_node(p, h, x, q, alpha), 1e-14, f"node at {(h, x, alpha, q)}")
        best, _ = ro.curvature_best(p, x, w, q + p.lam * 0.5 * h * w)
        assert_close(vp, best, 1e-12, "v'_j")
        assert 0.0 <= a <= p.cap
        # does some invested amount give an affine map that never reaches its root?
        D = p.quadratic_form(a_scan) + h * (p.c + p.r * x + p.excess * a_scan) - p.lam * h * h / 2
        non_contracting += bool(np.any(D <= 0.0))
    if which == "noncontracting":
        assert non_contracting >= 10, non_contracting


def _sorted_scan(qa, qb, qc, hi, objective):
    """The candidate scan the capped node solve first used: both endpoints
    and the roots inside, sorted, the first strictly smaller value kept."""
    candidates = [0.0, hi]
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
    for a in sorted(c for c in candidates if 0.0 <= c <= hi):
        val = objective(a)
        if val < best_val:
            best_val, best_a = val, a
    return best_val, best_a


def _sorted_scan_node_solver(p, h):
    """The capped node solve as first written, minimising -D/N through
    _sorted_scan: the oracle for solve._capped_node."""
    half_h = 0.5 * h
    c, r, excess, cap = p.c, p.r, p.excess, p.cap
    lam_half_h, lam_h_half_h = p.lam * half_h, p.lam * h * half_h
    s2, two_rss, s12 = p.sigma**2, 2.0 * p.rho * p.sigma * p.sigma1, p.sigma1**2

    def Q(a):
        return s2 * a * a + two_rss * a + s12

    def solve(x, q, alpha):
        drift = c + r * x
        E = alpha * (drift - lam_half_h) - q

        def neg_ratio(a):
            Qa = Q(a)
            return -(Qa + h * (drift + excess * a) - lam_h_half_h) / (alpha * Qa + h * q)

        qc = two_rss * E - excess * (alpha * s12 + h * q)
        best, a = _sorted_scan(excess * s2 * alpha, 2.0 * s2 * E, qc, cap, neg_ratio)
        if not best < 0.0:
            raise RuntimeError(f"capped node solve found no positive root at x={x:.6g}")
        w = -1.0 / best
        return w, 2.0 * (q + lam_half_h * w - (drift + excess * a) * w) / Q(a), a

    return solve


def _node_bits(solve, x, q, alpha):
    """The node's (v_j, v'_j, a*_j) as bytes, or None when it raises."""
    try:
        return struct.pack("<3d", *solve(x, q, alpha))
    except RuntimeError:
        return None


def _node_quadratic(p, h, x, q, alpha):
    """(qa, qb, qc) of the node's stationary quadratic, formed as the node forms them."""
    E = alpha * (p.c + p.r * x - p.lam * 0.5 * h) - q
    two_rss = 2.0 * p.rho * p.sigma * p.sigma1
    qc = two_rss * E - p.excess * (alpha * p.sigma1**2 + h * q)
    return p.excess * p.sigma**2 * alpha, 2.0 * p.sigma**2 * E, qc


def _node_ratio(p, h, x, q, alpha, a):
    """D(a) / N(a) at the node, grouped as the node groups it."""
    Qa = p.quadratic_form(a)
    return (Qa + h * (p.c + p.r * x + p.excess * a) - p.lam * h * (0.5 * h)) / (alpha * Qa + h * q)


@pytest.mark.parametrize("which", ["bench1", "bench2"])
def test_capped_node_equals_sorted_scan_on_solves(monkeypatch, which):
    # the march is causal, so equal solves mean equal node solves, fed
    # equal inputs, at every node; bench 2 has argmins that flip in their
    # last ulp between candidates whose nodes agree
    p, dist = {
        "bench1": (ro.example1_params(cap=1.0), ro.make_exponential(1.0)),
        "bench2": (ro.example2_params(cap=1.0), ro.make_pareto(2.0, 2.0)),
    }[which]
    grid = ro.Grid.from_xmax(5e-3, 40.0)
    got = ro.solve_v(p, dist, grid)
    monkeypatch.setattr("ruinopt.solve._capped_node", _sorted_scan_node_solver)
    want = ro.solve_v(p, dist, grid)
    for name in ("v", "vprime", "a_star"):
        assert np.array_equal(getattr(got, name).view(np.int64), getattr(want, name).view(np.int64)), name
    interior = (got.a_star > 0.0) & (got.a_star < 1.0)
    assert np.any(interior) and np.any(got.a_star == 1.0)


def test_capped_node_equals_sorted_scan_on_hand_made_nodes(ex1, ex2):
    def check(p, h, x, q, alpha):
        want = _node_bits(_sorted_scan_node_solver(p, h), x, q, alpha)
        assert _node_bits(_capped_node(p, h), x, q, alpha) == want, (p, h, x, q, alpha)
        return want

    # tens of thousands of seeded nodes, claims sums of either sign
    rng = np.random.default_rng(19)
    linear = complex_roots = 0
    for p in (replace(ex1, cap=1.0), replace(ex2, cap=1.0), replace(ex1, mu=ex1.r, cap=1.0),
              replace(ex2, rho=0.0, cap=3.0), NONCONTRACTING):
        for _ in range(4000):
            h = float(rng.choice([5e-3, 2e-2, 0.1]))
            alpha = float(rng.uniform(1e-3, 1.0))
            if p.excess != 0.0 and rng.uniform() < 0.5:
                # the discriminant over 4 sigma^2 is least, at
                # ((mu-r) alpha sigma1)^2 (1 - rho^2) + (mu-r)^2 alpha h q,
                # where sigma E = rho sigma1 (mu-r) alpha; a claims sum below
                # -alpha sigma1^2 (1 - rho^2) / h takes it below 0 there
                q = -float(rng.uniform(0.5, 3.0)) * alpha * p.sigma_rho2 / h
                E = p.rho * p.sigma1 * p.excess * alpha / p.sigma
                x = ((E + q) / alpha - p.c + p.lam * 0.5 * h) / p.r
            else:
                x, q = float(rng.uniform(0.0, 10.0)), float(rng.uniform(-1.0, 1.0)) * p.lam * alpha
            check(p, h, x, q, alpha)
            qa, qb, qc = _node_quadratic(p, h, x, q, alpha)
            linear += qa == 0.0
            complex_roots += qa != 0.0 and qb * qb - 4.0 * qa * qc < 0.0
    assert linear >= 1000 and complex_roots >= 1000, (linear, complex_roots)

    # mu = r and rho = +-0.0 put the linear root -qc/qb exactly at 0, as
    # -0.0 with rho = 0.0 and, for E > 0, as +0.0 with rho = -0.0: the
    # amount listed first, 0.0, must win
    signs = set()
    for rho in (0.0, -0.0):
        flat = replace(ex1, mu=ex1.r, rho=rho, cap=1.0)
        for q in (0.0, 0.01, 0.3, 0.6):
            qa, qb, qc = _node_quadratic(flat, 5e-3, 1.0, q, 0.5)
            roots = _candidates(qa, qb, qc, 1.0)[2:]
            assert qa == 0.0 and roots == [0.0]
            signs.add(math.copysign(1.0, roots[0]))
            bits = check(flat, 5e-3, 1.0, q, 0.5)
            assert math.copysign(1.0, struct.unpack("<3d", bits)[2]) == 1.0
    assert signs == {1.0, -1.0}

    # a root exactly at the cap, and a cap just above an interior root,
    # where the flat maximum may tie the cap's value
    p = replace(ex1, cap=50.0)
    at_cap = 0
    for q in np.linspace(0.0, 0.3, 31).tolist():
        qa, qb, qc = _node_quadratic(p, 5e-3, 1.0, q, 0.5)
        for root in _candidates(qa, qb, qc, 50.0)[2:]:
            if 0.0 < root < 50.0:
                at_cap += 1
                for cap in (root, root * (1.0 + 1e-12), root * (1.0 + 1e-9)):
                    check(replace(p, cap=cap), 5e-3, 1.0, q, 0.5)
    assert at_cap >= 10

    # Q(0) = Q(1) = 1 with mu = r, so a = 0 and a = cap tie exactly; with
    # E < 0, D/N grows with Q and the tie is the maximum: a = 0 must win
    tie = ro.ModelParams(c=0.5, r=0.1, mu=0.1, sigma=1.0, sigma1=1.0, rho=-0.5, lam=0.3, cap=1.0)
    for q in (0.3, 0.4, 0.45):
        ends = [_node_ratio(tie, 1e-2, 0.0, q, 0.5, a) for a in (0.0, 1.0)]
        assert ends[0] == ends[1] > _node_ratio(tie, 1e-2, 0.0, q, 0.5, 0.5)
        bits = check(tie, 1e-2, 0.0, q, 0.5)
        assert struct.unpack("<3d", bits)[2] == 0.0

    # a cap so large that Q(cap) overflows, though sigma^2 and cap^2 do
    # not: the cap's D/N is inf/inf = NaN and must never be chosen
    huge = replace(ex2, sigma=1e10, cap=1e150)
    for q in (0.0, 0.05, 0.2):
        assert math.isnan(_node_ratio(huge, 5e-3, 2.0, q, 0.5, 1e150))
        bits = check(huge, 5e-3, 2.0, q, 0.5)
        assert bits is not None and struct.unpack("<3d", bits)[2] < 1e150


def test_curvature_best_scans_truthfully(ex1):
    # the reported minimum really is the minimum over a dense scan
    rng = np.random.default_rng(11)
    for _ in range(50):
        cap = float(rng.uniform(0.2, 3.0))
        x = float(rng.uniform(0.0, 5.0))
        w_x = float(rng.uniform(1e-4, 1.0))
        MW_x = float(rng.uniform(0.0, 0.5))
        val, arg = ro.curvature_best(replace(ex1, cap=cap), x, w_x, MW_x)
        a_scan = np.linspace(0.0, cap, 2001)
        scan = np.array([ro.curvature_candidate(ex1, a, x, w_x, MW_x) for a in a_scan])
        assert val <= scan.min() + 1e-10
        assert 0.0 <= arg <= cap
        assert_close(ro.curvature_candidate(ex1, arg, x, w_x, MW_x), val, 1e-12,
                     "value at argmin")


def _quadratic(p, x, w, MW):
    """(qa, qb, qc) of the stationary quadratic, as curvature_best forms them."""
    E = MW - (p.c + p.r * x) * w
    qc = -(p.excess * p.sigma1**2 * w + 2.0 * p.rho * p.sigma * p.sigma1 * E)
    return p.excess * p.sigma**2 * w, -2.0 * p.sigma**2 * E, qc


def _scalar_curvature_best(p, x, w_x, MW_x):
    """The per-point minimiser the array curvature_best replaced: the oracle."""
    return _best_candidate(
        *_quadratic(p, x, w_x, MW_x), p.cap, lambda a: ro.curvature_candidate(p, a, x, w_x, MW_x)
    )


def _assert_same_as_scalar(p, x, w, MW):
    val, arg = ro.curvature_best(p, x, w, MW)
    ref = np.array([_scalar_curvature_best(p, *map(float, t)) for t in zip(x, w, MW)])
    assert np.array_equal(val.view(np.int64), ref[:, 0].view(np.int64))
    assert np.array_equal(arg.view(np.int64), ref[:, 1].view(np.int64))


@pytest.mark.parametrize("which", ["bench1", "bench2"])
def test_curvature_best_equals_scalar_scan_on_solves(which):
    # the operands hjb_residual hands it on each benchmark's capped solve
    p, dist = {
        "bench1": (ro.example1_params(cap=1.0), ro.make_exponential(1.0)),
        "bench2": (ro.example2_params(cap=1.0), ro.make_pareto(2.0, 2.0)),
    }[which]
    grid = ro.Grid.from_xmax(5e-3, 10.0)
    vg = ro.solve_v(p, dist, grid)
    MW = p.lam * convolve_tail_all(vg.v, dist.tail(grid.points), grid.h)
    _assert_same_as_scalar(p, grid.points, vg.v, MW)


def test_curvature_best_equals_scalar_scan_on_edge_cases(ex1, ex2):
    rng = np.random.default_rng(13)
    n = 3000
    x = rng.uniform(0.0, 5.0, n)
    w = rng.uniform(-1.0, 1.0, n)
    MW = rng.uniform(-0.5, 0.5, n)
    w[::7] = 0.0                                 # qa = 0
    MW[1::11] = ((ex1.c + ex1.r * x) * w)[1::11]  # E = 0, so qb = 0
    w[2::13] = MW[2::13] = 0.0                   # every candidate ties at 0
    p = replace(ex1, cap=1.0)
    qa, qb, _ = _quadratic(p, x, w, MW)
    assert np.sum(qa == 0.0) > 100 and np.sum((qb == 0.0) & (qa != 0.0)) > 100
    _assert_same_as_scalar(p, x, w, MW)
    w[[5, 9]] = np.nan
    _assert_same_as_scalar(p, x, w, MW)
    # rho = 0 and w = 0 put the linear root at -qc/qb = +-0.0
    _assert_same_as_scalar(replace(p, rho=0.0), x[::7], w[::7], MW[::7])
    # an interior root of a wide cap becomes the cap itself, or lies just
    # below it, where the flat minimum ties the cap's value: the smaller
    # investment, the root, must win
    _, arg = ro.curvature_best(replace(p, cap=50.0), x[:40], w[:40], MW[:40])
    roots = [j for j in range(40) if 0.0 < arg[j] < 50.0]
    assert len(roots) >= 5
    ties = 0
    for j in roots:
        pt = (x[j : j + 1], w[j : j + 1], MW[j : j + 1])
        for cap in (float(arg[j]), float(arg[j]) * (1.0 + 1e-9)):
            _assert_same_as_scalar(replace(p, cap=cap), *pt)
        on_cap, at_root = (ro.curvature_candidate(p, a, x[j], w[j], MW[j]) for a in (cap, arg[j]))
        ties += on_cap == at_root
    assert ties > 0
    # the discriminant is a positive definite form in (w, E) scaled by
    # 1 - rho^2, so only rounding takes it below 0: rho one ulp from 1 and
    # E within a few ulps of the tangent sigma E = -(mu-r) rho sigma1 w
    p = replace(ex2, rho=float(np.nextafter(1.0, 0.0)), cap=1.0)
    MW = (p.c + p.r * x - p.excess * p.rho * p.sigma1 / p.sigma) * w
    MW += rng.integers(-30, 31, n) * np.spacing(MW)
    qa, qb, qc = _quadratic(p, x, w, MW)
    assert np.sum(qb * qb - 4.0 * qa * qc < 0.0) > 0
    _assert_same_as_scalar(p, x, w, MW)


@pytest.mark.parametrize("which", ["bench1 unrestricted", "bench1 capped", "bench2 pareto capped"])
def test_policy_march_gives_the_solve_back(which, ex1, ex2, exp1):
    # fed a solve's own a*, the policy march solves each node's affine
    # equation at the amount the solve chose: the capped solve bit for bit,
    # the unrestricted one, whose node is another rule, to round-off
    if which == "bench2 pareto capped":
        p, dist = replace(ex2, cap=1.0), ro.make_pareto(2.0, 2.0)
    else:
        p, dist = (replace(ex1, cap=1.0) if which == "bench1 capped" else ex1), exp1
    grid = ro.Grid.from_xmax(5e-3, 40.0)
    vg = ro.solve_v(p, dist, grid)
    ev = ro.evaluate_policy(p, dist, grid, vg.a_star)
    assert np.array_equal(ev.a_star, vg.a_star) and ev.grid == grid
    if p.cap is None:
        assert np.max(np.abs(ev.v - vg.v) / vg.v) <= 1e-13
    else:
        # the capped solve's own node, with a*_j its only choice
        for name in ("v", "V", "vprime"):
            assert np.array_equal(getattr(ev, name), getattr(vg, name)), name
    assert node_residual(ev) <= 1e-14


@pytest.mark.parametrize("A", [0.0, 0.8542114902640175, 1.0])
def test_policy_march_converges_with_the_constant_strategy_ode(A, ex1, exp1):
    # under a constant A both the policy march and the linear ODE are O(h^2)
    # with the same limit, so their gap in psi shrinks 4x per halving of h
    gaps = []
    for h in (1e-2, 5e-3, 2.5e-3):
        grid = ro.Grid.from_xmax(h, 40.0)
        march = ro.normalize_delta(ro.evaluate_policy(ex1, exp1, grid, np.full(grid.n, A)), 1.0)
        ode = ro.normalize_delta(ro.solve_linear_const_strategy(ex1, A, 1.0, grid), 1.0)
        gaps.append(max(abs(march.psi(x) - ode.psi(x)) / ode.psi(x) for x in (0.5, 1.0, 2.0, 5.0)))
    assert gaps[0] <= 2e-2
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.5 <= coarse / fine <= 4.5, gaps


def test_policy_march_refuses_a_node_without_a_root():
    # NONCONTRACTING at h = 0.1: D(a) is least, -0.019, near a = 2.25 at the
    # first node, and positive at a = 0
    p, dist = NONCONTRACTING, ro.make_exponential(1.0)
    grid = ro.Grid.from_xmax(0.1, 1.0)
    with pytest.raises(RuntimeError, match=r"no positive root at x=0\.1$"):
        ro.evaluate_policy(p, dist, grid, np.full(grid.n, 2.25))
    assert np.all(ro.evaluate_policy(p, dist, grid, np.zeros(grid.n)).v > 0.0)
    with pytest.raises(ValueError, match="one amount per grid node"):
        ro.evaluate_policy(p, dist, grid, np.zeros(grid.n - 1))


@pytest.mark.parametrize("shape", [(11, 1), (1, 11), (), (10,)])
def test_policy_march_refuses_amounts_of_another_shape(shape, ex1, exp1):
    # a column, a row, a scalar and a short array are refused by shape,
    # before any node reads them
    grid = ro.Grid.from_xmax(0.1, 1.0)
    with pytest.raises(ValueError) as exc:
        ro.evaluate_policy(ex1, exp1, grid, np.full(shape, 0.5))
    assert str(exc.value).endswith(f"shape (11,), got shape {shape}")


@pytest.mark.parametrize("bad", [1e200, math.nan])
def test_policy_march_refuses_a_nan_ratio(bad, ex1, exp1):
    # Q(1e200) overflows, so D/N is inf/inf; a NaN amount gives NaN too.
    # Neither ratio is positive, so the node has no root to take
    grid = ro.Grid.from_xmax(5e-3, 5.0)
    a = np.where(grid.points < 1.5 - 1e-9, 0.5, bad)
    with pytest.raises(RuntimeError, match=r"no positive root at x=1\.5$"):
        ro.evaluate_policy(ex1, exp1, grid, a)


def test_policy_march_ignores_the_cap(ex1, exp1):
    # given amounts are never checked against the cap, nor scanned with it
    grid = ro.Grid.from_xmax(5e-3, 5.0)
    a = np.linspace(0.0, 2.0, grid.n)
    want = ro.evaluate_policy(ex1, exp1, grid, a)
    for cap in (1.0, 0.5):
        got = ro.evaluate_policy(replace(ex1, cap=cap), exp1, grid, a)
        for name in ("v", "V", "vprime", "a_star"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (cap, name)


def _bump_rises(p, dist, a):
    """Relative rise of psi(1) when a is bumped by eps exp(-(x-1)^2 / 0.1),
    clipped to [0, cap], for eps = 0.2, 0.1, 0.05, -0.2, -0.1, -0.05."""
    grid = ro.Grid.from_xmax(5e-3, 40.0)
    bump = np.exp(-((grid.points - 1.0) ** 2) / 0.1)

    def psi(amounts):
        if p.cap is not None:
            amounts = np.clip(amounts, 0.0, p.cap)
        vg = ro.evaluate_policy(p, dist, grid, amounts)
        return ro.normalize_delta(vg, dist.exponential_mean).psi(1.0)

    base = psi(a)
    return [(psi(a + eps * bump) - base) / base for eps in (0.2, 0.1, 0.05, -0.2, -0.1, -0.05)]


def _optimal_amounts(p, dist):
    return ro.solve_v(p, dist, ro.Grid.from_xmax(5e-3, 40.0)).a_star


@pytest.mark.parametrize("cap", [None, 1.0])
@pytest.mark.parametrize("bench", ["bench1 exponential", "bench2 pareto"])
def test_bumping_the_optimal_strategy_raises_psi(bench, cap):
    # the solve's a* minimises psi, so any bump raises it: quadratically in
    # eps without a cap (4x less per halving); with cap 1 the bump is
    # clipped, and where the cap binds a downward bump raises psi linearly
    p, dist = {
        "bench1 exponential": (ro.example1_params(cap=cap), ro.make_exponential(1.0)),
        "bench2 pareto": (ro.example2_params(cap=cap), ro.make_pareto(2.0, 2.0)),
    }[bench]
    rises = _bump_rises(p, dist, _optimal_amounts(p, dist))
    if cap is None:
        assert min(rises) > 0.0, rises
        for up in (rises[:3], rises[3:]):
            for big, small in zip(up, up[1:]):
                assert 3.5 <= big / small <= 4.5, rises
    else:
        assert min(rises) >= 0.0, rises


def test_bumping_a_wrong_strategy_can_lower_psi(ex1, exp1):
    # the strategy solved with lam 5% too high is not optimal for ex1: a
    # downward bump lowers psi(1), so the bump check can fail
    rises = _bump_rises(ex1, exp1, _optimal_amounts(replace(ex1, lam=1.05 * ex1.lam), exp1))
    assert max(rises[3:]) < 0.0, rises
