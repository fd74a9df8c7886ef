"""Grid, interpolation, and trapezoid convolution kernels."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

import ruinopt as ro
import ruinopt.cli
import ruinopt.solve
from ruinopt.numerics import _BLOCK, MAX_NODES, march_value_slope, prefix_trapezoid
from conftest import assert_close


def test_grid_points_exact():
    g = ro.Grid(h=5e-3, n=8001)
    assert np.array_equal(g.points, 5e-3 * np.arange(8001))
    assert g.x_max == g.points[-1]
    assert g.points[0] == 0.0


def test_grid_from_xmax():
    g = ro.Grid.from_xmax(5e-3, 40.0)
    assert g.n == 8001
    assert_close(g.x_max, 40.0, 1e-12, "x_max")
    assert ro.Grid.from_xmax(0.1, 1.0).n == 11


def test_grid_validation():
    with pytest.raises(ValueError):
        ro.Grid(h=0.0, n=10)
    with pytest.raises(ValueError):
        ro.Grid(h=0.1, n=1)
    with pytest.raises(ValueError):
        ro.Grid.from_xmax(0.1, -1.0)


@pytest.mark.parametrize("x_max", [math.inf, -math.inf, math.nan])
def test_grid_from_xmax_refuses_nonfinite(x_max):
    # the message leads with x_max, which scenario.py maps to grid.xmax
    with pytest.raises(ValueError, match="^x_max "):
        ro.Grid.from_xmax(5e-3, x_max)


def test_grid_from_xmax_refuses_a_step_too_small_to_count():
    # x_max / h overflows to inf; the message leads with h, for grid.h
    with pytest.raises(ValueError, match="^h "):
        ro.Grid.from_xmax(1e-310, 1.0)


def test_grid_from_xmax_refuses_more_than_max_nodes():
    # n = 10^7 is the last grid built; one more node is refused, h first
    assert ro.Grid.from_xmax(1.0, MAX_NODES - 1.0).n == MAX_NODES
    with pytest.raises(ValueError, match="^h .* at most 10000000 nodes"):
        ro.Grid.from_xmax(1.0, float(MAX_NODES))
    with pytest.raises(ValueError, match="^h "):
        ro.Grid.from_xmax(1e-12, 40.0)   # n = 4e13 + 1


def test_grid_refuses_more_than_max_nodes():
    # the direct constructor holds the same bound, before `.points` could
    # allocate 8 bytes a node
    assert ro.Grid(h=0.1, n=MAX_NODES).n == MAX_NODES
    for n in (MAX_NODES + 1, 10**8, np.int64(10**8)):
        with pytest.raises(ValueError, match="at most 10000000 nodes"):
            ro.Grid(h=0.1, n=n)


@pytest.mark.parametrize("n", [2.5, 3.0, "3"])
def test_grid_refuses_non_integer_n(n):
    # Grid(h=0.1, n=2.5) would lay out 3 points
    with pytest.raises(ValueError, match="^n "):
        ro.Grid(h=0.1, n=n)


def test_sampled_fn_linear_interpolation():
    g = ro.Grid(h=0.5, n=5)
    f = ro.SampledFn(g, np.array([0.0, 1.0, 4.0, 9.0, 16.0]))
    assert f(0.5) == 1.0
    assert f(0.75) == 2.5             # midpoint of 1 and 4
    out = f(np.array([0.0, 2.0]))
    assert out[0] == 0.0 and out[1] == 16.0
    with pytest.raises(ValueError):
        ro.SampledFn(g, np.zeros(4))


def _lookup_probes(grid: ro.Grid, rng) -> np.ndarray:
    """Random points, every node and both its float neighbours, the ends."""
    pts = grid.points
    return np.concatenate([
        rng.uniform(-0.5, 1.5 * grid.x_max, 200_000),
        pts,
        np.nextafter(pts, np.inf),
        np.nextafter(pts, -np.inf),
        [0.0, -0.0, grid.x_max, 1.5 * grid.x_max, 1e300, np.inf, -1e-300, -np.inf],
    ])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(a.view(np.int64) == b.view(np.int64)))


# nodes fl(j h) whose x/h truncates to j - 1, per (h, n); none elsewhere
_UP_CROSSINGS = {(5e-3, 8001): 574, (1.0 / 3.0, 100): 11}


# the uniform-grid lookup must be np.interp bit for bit, on grids where
# x/h rounds across nodes (h = 5e-3, 1/3, 1e-3) and on the shortest grid
@pytest.mark.parametrize("h, n", [(5e-3, 8001), (1.0 / 3.0, 100), (1e-3, 2001), (0.7, 2)])
def test_lookup_is_np_interp(h, n):
    rng = np.random.default_rng(20261018)
    grid = ro.Grid(h=h, n=n)
    values = np.cumsum(rng.standard_normal(n))
    xs = _lookup_probes(grid, rng)
    ref = np.interp(xs, grid.points, values)

    assert _same_bits(ro.SampledFn(grid, values)(xs), ref)
    # zeros at every other node expose a query assigned to the wrong side
    # of a node: extrapolating the neighbour interval misses 0 by round-off
    zigzag = np.where(np.arange(n) % 2 == 1, 0.0, values)
    assert _same_bits(ro.SampledFn(grid, zigzag)(xs), np.interp(xs, grid.points, zigzag))
    # the tracer hook simulate hands the solved a* in: its value method is the lookup
    curve = ruinopt.cli.StrategyCurve(grid=grid, values=values)
    assert _same_bits(curve.value(xs), ref)

    # calls that each hold one kind of crossing, so that each half of the
    # lookup's filter must catch it alone: up-crossings, the nodes fl(j h)
    # where x/h truncates to j - 1, and down-crossings, points just below
    # a node that x/h truncates onto it
    xq = xs[(xs >= 0.0) & (xs <= grid.x_max)]
    j = (xq / h).astype(np.intp)
    up, down = xq[xq >= (j + 1) * h], xq[xq < j * h]
    assert up.size == _UP_CROSSINGS.get((h, n), 0)
    assert down.size > 0 or n == 2
    for probe in (up, down):
        for fp in (values, zigzag):
            assert _same_bits(ro.SampledFn(grid, fp)(probe), np.interp(probe, grid.points, fp))

    for x in (0.0, 0.5 * grid.x_max, grid.x_max, 2.0 * grid.x_max, -1.0):
        for f in (ro.SampledFn(grid, values), curve):
            out = f(x)
            assert type(out) is float
            assert _same_bits(out, np.interp(x, grid.points, values))


def test_lookup_defers_to_np_interp_on_odd_values():
    # non-finite samples, signed zeros and NaN queries take np.interp itself
    grid = ro.Grid(h=0.5, n=5)
    xs = np.array([0.0, 0.25, 0.5, 1.0, 1.75, 2.0, 3.0])
    for values in (
        np.array([1.0, np.inf, 2.0, -np.inf, 0.0]),
        np.array([1.0, -0.0, -0.0, 2.0, 3.0]),
    ):
        ref = np.interp(xs, grid.points, values)
        assert _same_bits(ro.SampledFn(grid, values)(xs), ref)
    values = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
    xs = np.array([np.nan, 0.75, np.nan])
    assert _same_bits(ro.SampledFn(grid, values)(xs), np.interp(xs, grid.points, values))


def _tail_conv_oracle(w_values, tail_values, h, j):
    # direct trapezoid of H(y) w(x_j - y) over [0, x_j]
    if j == 0:
        return 0.0
    y = h * np.arange(j + 1)
    return float(np.trapezoid(tail_values[: j + 1] * w_values[j::-1], y))


@given(
    st.lists(st.floats(0.0, 10.0), min_size=2, max_size=40),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_convolve_tail_matches_direct_trapezoid(ws, ts):
    n = min(len(ws), len(ts))
    w_values = np.asarray(ws[:n])
    tail_values = np.asarray(ts[:n])
    h = 0.01
    got = ro.convolve_tail_all(w_values, tail_values, h)
    for j in range(n):
        want = _tail_conv_oracle(w_values, tail_values, h, j)
        assert abs(got[j] - want) <= 1e-12 * max(1.0, abs(want))


def test_convolve_tail_all_consistent():
    rng = np.random.default_rng(5)
    w_values = rng.uniform(0.0, 3.0, 257)
    tail_values = np.exp(-np.linspace(0.0, 2.0, 257))
    h = 7e-3
    full = ro.convolve_tail_all(w_values, tail_values, h)
    per_node = np.array([_tail_conv_oracle(w_values, tail_values, h, j) for j in range(257)])
    assert full[0] == 0.0
    np.testing.assert_allclose(full, per_node, rtol=0, atol=1e-13)


def test_convolution_order_h2():
    # smooth oracle with a genuinely curved integrand (exp against exp is
    # constant in y and would be exact): H = cos, w = e^{-x} gives
    # int_0^x cos(y) e^{-(x-y)} dy = (cos x + sin x - e^{-x}) / 2
    errs = []
    for h in (2e-3, 1e-3):
        n = round(2.0 / h) + 1
        x = h * np.arange(n)
        got = ro.convolve_tail_all(np.exp(-x), np.cos(x), h)
        exact = 0.5 * (np.cos(x) + np.sin(x) - np.exp(-x))
        errs.append(np.max(np.abs(got - exact)))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5, f"convergence ratio {ratio:.2f}"


def _trapezoid_fsum(w_values, tail_values, h):
    # every node's trapezoid sum, correctly rounded by math.fsum
    out = np.zeros(w_values.shape[0])
    for j in range(1, out.shape[0]):
        seg = tail_values[:j + 1] * w_values[j::-1]
        out[j] = h * math.fsum([*seg[1:-1], 0.5 * seg[0], 0.5 * seg[-1]])
    return out


def _trapezoid_numpy(w_values, tail_values, h):
    # the plain per-output sums of np.convolve, trimmed to the causal part
    n = w_values.shape[0]
    raw = np.convolve(tail_values[:n], w_values)[:n]
    out = h * (raw - 0.5 * tail_values[0] * w_values - 0.5 * tail_values[:n] * w_values[0])
    out[0] = 0.0
    return out


def test_convolve_tail_all_relative_accuracy_bench1(vg40, exp1):
    # v * tail decays to about 3e-18 at x = 40: every node must keep its
    # own relative accuracy, not one relative to the largest output
    H = exp1.tail(vg40.grid.points)
    got = ro.convolve_tail_all(vg40.v, H, vg40.grid.h)
    want = _trapezoid_fsum(vg40.v, H, vg40.grid.h)
    assert got[0] == want[0] == 0.0
    assert want[-1] < 1e-17
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17])
def test_convolve_tail_all_relative_accuracy_block_edges(n):
    rng = np.random.default_rng(n)
    w_values = rng.uniform(0.0, 3.0, n) * np.exp(-0.05 * np.arange(n))
    tail_values = np.exp(-0.1 * np.arange(n + 5))  # longer than w: only n are read
    got = ro.convolve_tail_all(w_values, tail_values, 7e-3)
    assert got.shape == (n,)
    np.testing.assert_allclose(got, _trapezoid_fsum(w_values, tail_values, 7e-3), rtol=1e-13, atol=0)


def test_convolve_tail_all_relative_accuracy_bench2_long():
    # benchmark 2, Pareto claims, n = 32001: both certificate convolutions
    params, dist = ro.example2_params(), ro.make_pareto(2.0, 2.0)
    vg = ro.solve_v(params, dist, ro.Grid.from_xmax(5e-3, 160.0))
    x, h = vg.grid.points, vg.grid.h
    assert vg.grid.n == 32001
    for w_values, tail_values in ((vg.v, dist.tail(x)), (vg.V, dist.pdf(x))):
        got = ro.convolve_tail_all(w_values, tail_values, h)
        np.testing.assert_allclose(got, _trapezoid_numpy(w_values, tail_values, h), rtol=1e-13, atol=0)


def test_convolve_tail_all_refuses_short_tail():
    with pytest.raises(ValueError, match=r"len\(w\)=10, len\(tail\)=6"):
        ro.convolve_tail_all(np.ones(10), np.ones(6), 0.1)


def _march_sliced(grid, dist, lam, start, node, fsum=False):
    # the march as first written, one dot over the whole history read
    # through v[j-1:0:-1]; with fsum, each history sum correctly rounded.
    # Returns (v, v')
    h, n = grid.h, grid.n
    H = dist.tail(grid.points)
    v, vp = np.empty(n), np.empty(n)
    v[0], vp[0] = 1.0, start[0]
    for j in range(1, n):
        if fsum:
            S = math.fsum((H[1:j] * v[j - 1:0:-1]).tolist())
        else:
            S = float(np.dot(H[1:j], v[j - 1:0:-1]))
        q = lam * (h * (S + 0.5 * H[j]))
        v[j], vp[j], _ = node(j * h, q, v[j - 1] + 0.5 * h * vp[j - 1])
    return v, vp


def _bench_law(bench):
    """(params, claim law): benchmark 1 with exponential claims, benchmark 2
    with Pareto(2, 2) or exponential (mean 2) claims, benchmark 1 with
    exponential claims of a given float rate, or benchmark 2 with
    Weibull(2, 0.5) or Pareto(2, 50) claims, neither of which has a tail
    fit."""
    if bench == 1:
        return ro.example1_params(), ro.make_exponential(1.0)
    if bench == 2:
        return ro.example2_params(), ro.make_pareto(2.0, 2.0)
    if bench == "exp2":
        return ro.example2_params(), ro.make_exponential(0.5)
    if isinstance(bench, float):
        return ro.example1_params(), ro.make_exponential(bench)
    if bench == "pareto50":
        return ro.example2_params(), ro.make_pareto(2.0, 50.0)
    return ro.example2_params(), ro.make_weibull(2.0, 0.5)


def _solve(cap, params, dist, grid):
    return ro.solve_v(replace(params, cap=cap), dist, grid)


# each case runs unrestricted and with cap 1; the ids are the names of the
# two solver modules these cases ran over before the solve was one module
CAPS = pytest.mark.parametrize("cap", [None, 1.0], ids=["ruinopt.unconstrained", "ruinopt.constrained"])


def _rel_gap(a, b) -> float:
    return float(np.max(np.abs(a / b - 1.0)))


@CAPS
@pytest.mark.parametrize("bench", [1, 2, "weibull", "pareto50"])
def test_march_history_is_bit_identical(monkeypatch, cap, bench):
    # a law with no exponential-sum tail keeps the whole-history dot, so it
    # must feed every node exactly the sum the sliced history did.  With a
    # fit, the far history runs through it: v must stay within 1e-14 of
    # the plain march, and v' as close to the correctly rounded (fsum)
    # march as the plain march is, within a factor 1.5
    seen = []

    def spy(grid, law, lam, start, node):
        out = march_value_slope(grid, law, lam, start, node)
        plain = _march_sliced(grid, law, lam, start, node)
        exact = _march_sliced(grid, law, lam, start, node, fsum=True) if law.tail_mixture else None
        seen.append((out[0], out[2], plain, exact))
        return out

    monkeypatch.setattr(ruinopt.solve, "march_value_slope", spy)
    params, dist = _bench_law(bench)
    _solve(cap, params, dist, ro.Grid.from_xmax(5e-3, 40.0))
    ((v, vp, (v_ref, vp_ref), exact),) = seen
    if dist.tail_mixture is None:
        assert np.array_equal(v, v_ref)
        assert np.array_equal(vp, vp_ref)
        return
    v_fsum, vp_fsum = exact
    assert not np.array_equal(v, v_ref)   # the far field ran
    assert _rel_gap(v, v_ref) <= 1e-14
    assert _rel_gap(v, v_fsum) <= 1e-14
    assert _rel_gap(vp, vp_fsum) <= 1.5 * _rel_gap(vp_ref, vp_fsum)


@CAPS
@pytest.mark.parametrize("bench", [1, 2, "exp2", 200.0, 2000.0, 4000.0])
def test_march_history_sums_match_fsum(monkeypatch, cap, bench):
    # every node's claims term q_j = lam h (sum_i H_i v_{j-i} + H_j / 2),
    # with the far history taken from the tail's exponential sum, must be
    # within 1e-14 relative of the same products summed by math.fsum, and
    # v within 1e-14 of the plain whole-history march.  Exponential claims
    # carry their whole history as one decaying state: benchmark 2's (mean
    # 2) put fl(e^{-k h}) 4e-17 relative off e^{-k h}, so factors taken as
    # its powers would put q_j about 5e-14 off.  Benchmark 1 with claims of
    # rate 200, 2000 or 4000 at h = 5e-3 has k h L > 30 at L = _BLOCK, so
    # the march's blocks shrink to 30, 3 or 1 nodes; at rate 2000,
    # e^{k o h} would overflow at o = 71, and at rate 4000 the first block
    # holds only v_0
    seen = []

    def spy(grid, law, lam, start, node):
        qs = []

        def recording(x, q, alpha):
            qs.append(q)
            return node(x, q, alpha)

        out = march_value_slope(grid, law, lam, start, recording)
        seen.append((grid, law.tail(grid.points), lam, law.tail_mixture, np.array(qs), out[0],
                     _march_sliced(grid, law, lam, start, node)[0]))
        return out

    monkeypatch.setattr(ruinopt.solve, "march_value_slope", spy)
    params, dist = _bench_law(bench)
    rated = isinstance(bench, float)
    _solve(cap, params, dist, ro.Grid.from_xmax(5e-3, 4.0 if rated else 20.0))
    ((grid, H, lam, tail_mixture, qs, v, v_plain),) = seen
    assert tail_mixture is dist.tail_mixture
    assert rated or grid.n >= 2000
    h = grid.h
    want = np.array([
        lam * (h * (math.fsum((H[1:j] * v[j - 1:0:-1]).tolist()) + 0.5 * H[j]))
        for j in range(1, grid.n)
    ])
    assert np.all(want > 0.0)
    assert _rel_gap(qs, want) <= 1e-14
    assert _rel_gap(v, v_plain) <= 1e-14


def _march_against_plain(monkeypatch, cap, params, dist, grid):
    """v of the solve's march on `grid`, and v of the plain whole-history
    march with the same node."""
    seen = []

    def spy(grid, law, lam, start, node):
        out = march_value_slope(grid, law, lam, start, node)
        seen.append((out[0], _march_sliced(grid, law, lam, start, node)[0]))
        return out

    monkeypatch.setattr(ruinopt.solve, "march_value_slope", spy)
    _solve(cap, params, dist, grid)
    return seen[0]


@CAPS
def test_one_term_mixture_short_of_the_grid_keeps_the_dot(monkeypatch, cap):
    # a one-term exponential sum that holds only up to y_max = 10 serves no
    # grid to 20: every node takes the whole-history dot, bit for bit the
    # plain march.  The same law held to y_max = 20 takes the one state
    params, exp1 = _bench_law(1)
    grid = ro.Grid.from_xmax(5e-3, 20.0)
    short = replace(exp1, tail_mixture=((1.0,), (1.0,), 10.0))
    v, v_plain = _march_against_plain(monkeypatch, cap, params, short, grid)
    assert np.array_equal(v, v_plain)
    held = replace(exp1, tail_mixture=((1.0,), (1.0,), grid.x_max))
    v, v_plain = _march_against_plain(monkeypatch, cap, params, held, grid)
    assert not np.array_equal(v, v_plain)


@CAPS
def test_march_stores_what_each_node_returns(monkeypatch, cap):
    # the node contract: the march calls node(x_j, q_j, alpha_j) once for
    # each j >= 1, in order, with x_j = grid.points[j] bit for bit and
    # Python floats in and out, and stores the (v_j, v'_j, a*_j) it returns
    seen = []

    def spy(grid, law, lam, start, node):
        calls = []

        def recording(x, q, alpha):
            out = node(x, q, alpha)
            calls.append((x, q, alpha, *out))
            return out

        out = march_value_slope(grid, law, lam, start, recording)
        seen.append((start, calls, out))
        return out

    monkeypatch.setattr(ruinopt.solve, "march_value_slope", spy)
    params, dist = _bench_law(2)
    vg = _solve(cap, params, dist, ro.Grid.from_xmax(5e-3, 4.0))
    ((start, calls, (v, V, vp, a)),) = seen
    assert vg.grid.n > 2 * _BLOCK   # the far field ran
    assert all(type(value) is float for call in calls for value in call)
    x, _, _, v_node, vp_node, a_node = (np.array(column) for column in zip(*calls))
    assert x.tobytes() == vg.grid.points[1:].tobytes()
    assert a.tobytes() == np.array([start[1], *a_node]).tobytes()
    assert v[1:].tobytes() == v_node.tobytes() and vp[1:].tobytes() == vp_node.tobytes()
    assert vg.a_star is a and vg.v is v and vg.V is V and vg.vprime is vp


@CAPS
def test_march_is_causal_with_pareto_claims(cap):
    # the far field's blocks start at node 0 and its fit does not depend on
    # the grid, so a shorter grid's nodes are the longer grid's, bit for bit
    params, dist = _bench_law(2)
    short = _solve(cap, params, dist, ro.Grid.from_xmax(5e-3, 10.0))
    long_ = _solve(cap, params, dist, ro.Grid.from_xmax(5e-3, 40.0))
    m = short.grid.n
    assert m > 2 * _BLOCK
    for name in ("v", "vprime", "a_star"):
        assert np.array_equal(getattr(short, name), getattr(long_, name)[:m]), name


@pytest.mark.parametrize("n", [2, 3, 17, 1000, 32001])
@pytest.mark.parametrize("spacing", ["uniform", "non-uniform"])
def test_prefix_trapezoid_is_scipys(n, spacing):
    rng = np.random.default_rng(n)
    y = rng.normal(size=n)
    if spacing == "uniform":
        h = 5e-3
        got, want = prefix_trapezoid(y, h), cumulative_trapezoid(y, dx=h, initial=0.0)
    else:
        x = np.cumsum(rng.uniform(1e-3, 1.0, n))
        got, want = prefix_trapezoid(y, np.diff(x)), cumulative_trapezoid(y, x, initial=0.0)
    assert got.shape == want.shape == (n,)
    assert np.array_equal(got, want)
