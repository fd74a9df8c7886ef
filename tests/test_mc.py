"""Simulator reproducibility, batching invariance, and physics probes."""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

import ruinopt as ro
from ruinopt import mc
from ruinopt.mc import (
    _STATUS_NAMES, SimConfig, SimReport, _as_strategy, _generators, _run_paths, _seed_states,
    estimate_survival, simulate_path,
)
from conftest import assert_close

A_OPT0 = 0.8542114902640175


def _golden_curve():
    # a rising strategy on [0, 4], then the large-surplus expansion
    # 10.4 - 0.625 / x sampled out to the safe level
    grid = ro.Grid.from_xmax(0.01, 40.0)
    x = grid.points
    rising = x <= 4.0
    values = np.empty(grid.n)
    values[rising] = 0.8542 + 0.5 * x[rising] / (1.0 + x[rising])
    values[~rising] = 10.4 - 0.625 / x[~rising]
    return ro.SampledFn(grid=grid, values=values)


# 1200 steps cross two refills of the 512-step normal blocks; the paths end
# ruined, safe (past the rising part of the curve) and at the horizon
GOLDEN_CFG = SimConfig(dt=1e-2, horizon=12.0, n_paths=300, safe_level=40.0, master_seed=20261018)
# about four claims a step: several claims settle in one step, and the
# 32-claim arrival and size chunks refill every few steps
HOT_PARAMS = ro.ModelParams(c=2.2, r=0.05, mu=0.1, sigma=0.2, sigma1=0.3, rho=0.3, lam=40.0)
HOT_DIST = ro.make_exponential(20.0)
HOT_CFG = SimConfig(dt=0.1, horizon=20.0, n_paths=300, safe_level=6.0, master_seed=77)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dt": 0.0},
        {"dt": -1e-3},
        {"dt": math.inf},
        {"horizon": 0.0},
        {"dt": 2.0, "horizon": 1.0},
        {"n_paths": 0},
        {"safe_level": 0.0},
        {"safe_level": math.nan},
        {"master_seed": -1},
        {"master_seed": 2**64},
        {"dt": 0.4, "horizon": 0.7},    # not a whole number of steps
        {"dt": 0.3, "horizon": 1.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


# one- and two-word master seeds at their edges, and an arbitrary 64-bit one
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 0x9E3779B97F4A7C15]
# one-word indices, the last one-word index, and two-word indices
INDICES = np.array(list(range(50)) + [2**32 - 1, 2**32, 2**40])


@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("seed", SEEDS)
def test_seed_states_equal_seed_sequence(seed, stream):
    got = _seed_states(seed, INDICES, stream)
    expected = np.array([
        np.random.SeedSequence((seed, int(i), stream)).generate_state(4, np.uint64)
        for i in INDICES
    ])
    assert got.dtype == np.uint64
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("seed", SEEDS)
def test_generators_equal_default_rng(seed, stream):
    (rng,) = _generators(seed, np.array([2**32]), stream)
    ref = np.random.default_rng(np.random.SeedSequence((seed, 2**32, stream)))
    assert np.array_equal(rng.standard_normal(8), ref.standard_normal(8))
    assert np.array_equal(rng.random(8), ref.random(8))


def test_negative_path_index_raises(ex1, exp1):
    with pytest.raises(ValueError):
        _seed_states(3, np.array([0, -1]), 0)
    with pytest.raises(ValueError):
        simulate_path(ex1, exp1, 0.0, 1.0, SimConfig(dt=0.1, horizon=1.0), -1)


def test_config_frozen():
    cfg = SimConfig()
    with pytest.raises(AttributeError):
        cfg.dt = 1.0


def test_estimate_guards(ex1, exp1):
    cfg = SimConfig(n_paths=50)
    with pytest.raises(ValueError, match="100 paths"):
        estimate_survival(ex1, exp1, 0.0, 1.0, cfg)
    cfg = SimConfig(n_paths=100, safe_level=5.0)
    with pytest.raises(ValueError, match="safe_level"):
        estimate_survival(ex1, exp1, 0.0, 5.0, cfg)
    with pytest.raises(ValueError, match="safe_level"):
        estimate_survival(ex1, exp1, 0.0, -0.5, cfg)


def test_run_is_reproducible(ex1, exp1):
    cfg = SimConfig(dt=1e-2, horizon=10.0, n_paths=200, safe_level=10.0, master_seed=42)
    a = estimate_survival(ex1, exp1, A_OPT0, 1.0, cfg)
    b = estimate_survival(ex1, exp1, A_OPT0, 1.0, cfg)
    assert a == b


def test_counts_partition_paths(ex1, exp1):
    cfg = SimConfig(dt=1e-2, horizon=5.0, n_paths=300, safe_level=5.0, master_seed=1)
    rep = estimate_survival(ex1, exp1, 0.0, 0.05, cfg)
    assert rep.n_ruined + rep.n_safe + rep.n_horizon == rep.n_paths == 300
    assert rep.survival == (rep.n_safe + rep.n_horizon) / 300
    assert rep.n_ruined > 0  # starting nearly broke with no investment
    assert rep.mean_ruin_time is not None
    assert 0.0 < rep.mean_ruin_time <= cfg.horizon
    lo, hi = rep.ci95
    assert lo <= rep.survival <= hi


def test_batching_does_not_change_outcomes(ex1, exp1):
    # a path's stream consumption depends only on its own history, so the
    # one-at-a-time route must agree with the batched run path for path
    cfg = SimConfig(dt=1e-2, horizon=10.0, n_paths=120, safe_level=10.0, master_seed=3)
    rep = estimate_survival(ex1, exp1, A_OPT0, 1.0, cfg)
    singles = [simulate_path(ex1, exp1, A_OPT0, 1.0, cfg, i) for i in range(120)]
    assert rep.n_ruined == sum(s.status == "ruined" for s in singles)
    assert rep.n_safe == sum(s.status == "safe" for s in singles)
    assert rep.n_horizon == sum(s.status == "horizon" for s in singles)
    times = [s.time for s in singles if s.status == "ruined"]
    assert_close(rep.mean_ruin_time, sum(times) / len(times), 1e-12, "mean ruin time")
    for s in singles:
        assert s.status in ("ruined", "safe", "horizon")
        assert (s.time is None) == (s.status != "ruined")


@pytest.mark.parametrize(
    "name, expected",
    [
        ("curve", SimReport(
            survival=0.8733333333333333, stderr=0.019202623277582175,
            ci95=(0.8356961917092722, 0.9109704749573944), n_paths=300, n_ruined=38,
            n_safe=254, n_horizon=8, mean_ruin_time=1.2806846687680162)),
        ("const", SimReport(
            survival=0.8566666666666667, stderr=0.020231072544388155,
            ci95=(0.8170137644796659, 0.8963195688536675), n_paths=300, n_ruined=43,
            n_safe=239, n_horizon=18, mean_ruin_time=1.5938308764523386)),
        ("zero", SimReport(
            survival=0.8433333333333334, stderr=0.02098588590952041,
            ci95=(0.8022009969506734, 0.8844656697159934), n_paths=300, n_ruined=47,
            n_safe=220, n_horizon=33, mean_ruin_time=1.6912363598644968)),
        ("claims", SimReport(
            survival=0.68, stderr=0.02693201316896554,
            ci95=(0.6272132541888276, 0.7327867458111725), n_paths=300, n_ruined=96,
            n_safe=180, n_horizon=24, mean_ruin_time=2.2282770844993505)),
    ],
)
def test_streams_are_pinned(ex1, exp1, name, expected):
    # exact reports recorded when the Euler step went to one normal a step,
    # sqrt(Q(a) dt) z: any change to which numbers a path draws, or in what
    # order, moves them
    args = {
        "curve": (ex1, exp1, _golden_curve(), 1.0, GOLDEN_CFG),
        "const": (ex1, exp1, 0.8542, 1.0, GOLDEN_CFG),
        "zero": (ex1, exp1, 0.0, 1.0, GOLDEN_CFG),
        "claims": (HOT_PARAMS, HOT_DIST, 0.5, 0.5, HOT_CFG),
    }[name]
    assert estimate_survival(*args) == expected


def test_batching_does_not_change_outcomes_under_many_claims():
    n = HOT_CFG.n_paths
    singles = [simulate_path(HOT_PARAMS, HOT_DIST, 0.5, 0.5, HOT_CFG, i) for i in range(n)]
    status = np.array([s.status for s in singles])
    times = np.array([np.nan if s.time is None else s.time for s in singles])
    # some claim ruins fall between steps, so claims really settle mid-step
    steps = times / HOT_CFG.dt
    assert np.any(np.abs(steps - np.round(steps)) > 1e-6)

    rep = estimate_survival(HOT_PARAMS, HOT_DIST, 0.5, 0.5, HOT_CFG)
    assert (rep.n_ruined, rep.n_safe, rep.n_horizon) == tuple(
        int(np.sum(status == s)) for s in ("ruined", "safe", "horizon")
    )
    assert rep.mean_ruin_time == float(np.nansum(times)) / rep.n_ruined

    # path for path, in batches of any order and membership: three paths
    # settle their claims one by one, 300 in rounds until few are left
    assert 3 <= mc._FEW_DUE < n
    fn = _as_strategy(0.5)
    for idx in (np.arange(n), np.arange(n)[::-3], np.array([7, 250, 3])):
        got_status, got_time = _run_paths(HOT_PARAMS, HOT_DIST, fn, 0.5, HOT_CFG, idx)
        assert [_STATUS_NAMES[s] for s in got_status] == list(status[idx])
        assert np.array_equal(got_time, times[idx], equal_nan=True)


def test_strategy_argument_forms(ex1, exp1):
    # scalar, callable, and SampledFn forms of the same constant
    # strategy must be literally the same run
    cfg = SimConfig(dt=1e-2, horizon=10.0, n_paths=1, safe_level=10.0, master_seed=9)
    grid = ro.Grid.from_xmax(0.5, 20.0)
    curve = ro.SampledFn(grid=grid, values=np.full(grid.n, A_OPT0))
    base = simulate_path(ex1, exp1, A_OPT0, 1.0, cfg, 17)
    as_fn = simulate_path(ex1, exp1, lambda xs: np.full_like(xs, A_OPT0), 1.0, cfg, 17)
    as_curve = simulate_path(ex1, exp1, curve, 1.0, cfg, 17)
    assert base == as_fn == as_curve


def test_strategy_may_return_its_argument(ex1, exp1):
    # a = x read from the live surplus itself must see the surplus before
    # the step moves it; the identity curve is exact on its grid
    cfg = SimConfig(dt=1e-2, horizon=10.0, n_paths=200, safe_level=10.0, master_seed=4)
    grid = ro.Grid.from_xmax(0.01, cfg.safe_level)
    identity = ro.SampledFn(grid=grid, values=grid.points)
    assert estimate_survival(ex1, exp1, lambda xs: xs, 1.0, cfg) == estimate_survival(
        ex1, exp1, identity, 1.0, cfg
    )


def test_same_seed_gives_common_random_numbers(ex1, exp1):
    # runs with one master seed share every draw, so identical strategies
    # give identical reports and a weaker strategy is compared on the same
    # claims and noise
    cfg = SimConfig(dt=1e-2, horizon=50.0, n_paths=2000, safe_level=20.0, master_seed=11)
    opt0 = estimate_survival(ex1, exp1, A_OPT0, 1.0, cfg)
    assert estimate_survival(ex1, exp1, A_OPT0, 1.0, cfg) == opt0
    zero = estimate_survival(ex1, exp1, 0.0, 1.0, cfg)
    assert zero.survival < opt0.survival


def test_time_step_refinement_is_stable(ex1, exp1):
    # halving dt moves the estimate by far less than the sampling noise
    reports = [
        estimate_survival(
            ex1, exp1, A_OPT0, 1.0,
            SimConfig(dt=dt, horizon=50.0, n_paths=4096, safe_level=20.0, master_seed=7),
        )
        for dt in (2e-3, 1e-3)
    ]
    diff = abs(reports[0].survival - reports[1].survival)
    pooled = math.hypot(reports[0].stderr, reports[1].stderr)
    assert diff <= 3.0 * pooled, f"dt bias {diff:.4f} vs noise {pooled:.4f}"  # observed z = 0.40


@pytest.mark.parametrize("rho", [-0.5, 0.5])
@pytest.mark.parametrize("a", [0.0, 1.0])
def test_one_step_has_the_diffusion_law(exp1, rho, a):
    # with claims switched off, one Euler step from x0 is normal with mean
    # x0 + (c + r x0 + (mu-r) a) dt and variance Q(a) dt; the share of paths
    # that reach a barrier k standard deviations above the mean is 1 - Phi(k).
    # sigma = sigma1 = 1 makes Q(1) = 2 + 2 rho, so the cross term moves it
    p = ro.ModelParams(c=0.36, r=0.32, mu=0.42, sigma=1.0, sigma1=1.0, rho=rho, lam=1e-300)
    x0, dt, k, n = 1.0, 0.01, 0.5, 10_000
    mean = x0 + (p.c + p.r * x0 + p.excess * a) * dt
    level = mean + k * math.sqrt(p.quadratic_form(a) * dt)
    rep = estimate_survival(
        p, exp1, a, x0, SimConfig(dt=dt, horizon=dt, n_paths=n, safe_level=level, master_seed=8)
    )
    assert rep.n_ruined == 0
    target = float(ndtr(-k))
    se = math.sqrt(target * (1.0 - target) / n)
    z = (rep.n_safe / n - target) / se
    assert abs(z) <= 4.0, f"{rep.n_safe} of {n} past the barrier, z = {z:+.2f}"


def test_premium_only_flow_matches_ode(exp1):
    # with claims switched off (arrival rate below any horizon) and the
    # perturbation shrunk to nothing, the surplus is the deterministic flow
    # X' = c + r X; barriers bracketing X(1) must split the paths 100/0
    p = ro.ModelParams(c=0.36, r=0.32, mu=0.42, sigma=0.1, sigma1=1e-8, rho=0.0, lam=1e-300)
    x0, T = 1.0, 1.0
    x_end = (x0 + p.c / p.r) * math.exp(p.r * T) - p.c / p.r
    above = estimate_survival(
        p, exp1, 0.0, x0,
        SimConfig(dt=2e-4, horizon=T, n_paths=100, safe_level=x_end * (1 + 1e-3), master_seed=5),
    )
    below = estimate_survival(
        p, exp1, 0.0, x0,
        SimConfig(dt=2e-4, horizon=T, n_paths=100, safe_level=x_end * (1 - 1e-3), master_seed=5),
    )
    assert (above.n_horizon, above.n_safe, above.n_ruined) == (100, 0, 0)
    assert (below.n_safe, below.n_horizon, below.n_ruined) == (100, 0, 0)
    assert above.survival == below.survival == 1.0
    assert above.mean_ruin_time is None


# -- shares in worker processes ---------------------------------------------


@pytest.fixture()
def forks(monkeypatch):
    """Forking at 1,000 paths a share; yields the share bounds of each forked run."""
    monkeypatch.setattr(mc, "_MIN_SHARE", 1000)
    runs = []
    real = mc._run_forked

    def recording(job, bounds):
        runs.append(bounds)
        return real(job, bounds)

    monkeypatch.setattr(mc, "_run_forked", recording)
    yield runs
    assert multiprocessing.active_children() == []


def _in_process(monkeypatch, *args):
    with monkeypatch.context() as m:
        m.setattr(mc, "_MIN_SHARE", args[-1].n_paths + 1)
        return estimate_survival(*args)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("n", [2_500, 10_001, 20_000])
def test_forked_run_equals_in_process_run(monkeypatch, forks, ex1, exp1, n):
    # 20,000 paths in two shares run two cohorts each; the in-process run
    # cuts its cohorts at other indices, yet every field agrees exactly
    _cpus(monkeypatch, 2)
    args = (ex1, exp1, _golden_curve(), 1.0, replace(GOLDEN_CFG, n_paths=n))
    serial = _in_process(monkeypatch, *args)
    assert forks == []
    assert estimate_survival(*args) == serial
    assert forks == [[(0, n // 2), (n // 2, n)]]


@pytest.mark.parametrize(
    "strategy",
    [0.8542, 0.0, lambda xs: 0.8542 + 0.5 * xs / (1.0 + xs)],
    ids=["const", "zero", "lambda"],
)
def test_forked_run_equals_in_process_run_for_every_strategy_form(monkeypatch, forks, ex1, exp1, strategy):
    # three uneven shares: 3,333, 3,334 and 3,334 paths
    _cpus(monkeypatch, 3)
    cfg = SimConfig(dt=1e-2, horizon=12.0, n_paths=10_001, safe_level=40.0, master_seed=20261018)
    serial = _in_process(monkeypatch, ex1, exp1, strategy, 1.0, cfg)
    assert estimate_survival(ex1, exp1, strategy, 1.0, cfg) == serial
    assert forks == [[(0, 3333), (3333, 6667), (6667, 10_001)]]


def test_forked_run_equals_in_process_run_under_many_claims(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    cfg = replace(HOT_CFG, n_paths=3_000)
    serial = _in_process(monkeypatch, HOT_PARAMS, HOT_DIST, 0.5, 0.5, cfg)
    assert serial.n_ruined > 1000 and serial.n_safe > 0
    assert estimate_survival(HOT_PARAMS, HOT_DIST, 0.5, 0.5, cfg) == serial
    assert len(forks) == 1


class _TwoArgError(Exception):
    # pickles, but cannot be rebuilt from its args: the parent gets a RuntimeError
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@pytest.mark.parametrize("failing_share", [0, 1, None])
@pytest.mark.parametrize(
    "error, raised, message",
    [
        (ValueError("strategy blew up"), ValueError, "strategy blew up"),
        (_TwoArgError(1, 2), RuntimeError, "_TwoArgError: 1 and 2"),
    ],
    ids=["ValueError", "unpicklable"],
)
def test_error_in_a_worker_is_raised_in_the_parent(
    monkeypatch, forks, ex1, exp1, failing_share, error, raised, message
):
    # shares of 1,250 and 1,251 paths: the first step's live count tells
    # the worker which share it runs; None fails in both
    _cpus(monkeypatch, 2)
    sizes = {0: {1250}, 1: {1251}, None: {1250, 1251}}[failing_share]

    def strategy(xs):
        if xs.size in sizes:
            raise error
        return np.full_like(xs, 0.8542)

    cfg = SimConfig(dt=1e-2, horizon=2.0, n_paths=2_501, safe_level=10.0, master_seed=5)
    with pytest.raises(raised) as info:
        estimate_survival(ex1, exp1, strategy, 1.0, cfg)
    assert type(info.value) is raised
    assert str(info.value) == message
    assert forks == [[(0, 1250), (1250, 2501)]]
    assert multiprocessing.active_children() == []


def _nan_strategy(xs):
    return np.full_like(xs, np.nan)


def _inf_above_2(xs):
    return np.where(xs > 2.0, np.inf, 0.8542)


@pytest.mark.parametrize("n", [200, 2_000], ids=["in_process", "forked"])
@pytest.mark.parametrize("strategy", [_nan_strategy, _inf_above_2], ids=["nan", "inf_above_2"])
def test_nonfinite_surplus_is_refused(monkeypatch, forks, ex1, exp1, strategy, n):
    # NaN fails both x < 0 and x >= safe_level, so such a path used to
    # count as a survivor; a worker's error comes back to the parent
    _cpus(monkeypatch, 2)
    cfg = SimConfig(dt=0.04, horizon=20.0, n_paths=n, master_seed=3)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"non-finite surplus nan at t=") as info:
        estimate_survival(ex1, exp1, strategy, 1.0, cfg)
    assert type(info.value) is ValueError
    if n == 200:
        assert forks == []
    else:
        assert forks == [[(0, 1000), (1000, 2000)]]
        assert any("Monte Carlo worker for paths [0, 1000)" in note for note in info.value.__notes__)


def test_no_fork_without_fork_or_inside_a_daemon(monkeypatch, forks, ex1, exp1):
    _cpus(monkeypatch, 2)
    cfg = SimConfig(dt=1e-2, horizon=2.0, n_paths=2_500, safe_level=10.0, master_seed=5)
    expected = estimate_survival(ex1, exp1, 0.8542, 1.0, cfg)
    assert len(forks) == 1

    # a daemonic process may not have children, so it runs its paths itself
    recv, send = multiprocessing.Pipe(duplex=False)
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(
        target=lambda: send.send(estimate_survival(ex1, exp1, 0.8542, 1.0, cfg)), daemon=True
    )
    child.start()
    assert recv.recv() == expected
    child.join()
    assert child.exitcode == 0

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert estimate_survival(ex1, exp1, 0.8542, 1.0, cfg) == expected
    assert len(forks) == 1


@pytest.mark.parametrize("strategy", ["optimal", "a=0"])
def test_absorbing_at_the_certified_level_loses_only_late_ruins(ex1, exp1, strategy):
    # a claim only moves the surplus down, so a path first reaches the
    # level L by diffusion, as it runs the same path until then: on the same
    # indices every path not absorbed at L is the path run to the ceiling,
    # ruin time and all, and absorbing at L only saves paths that would have
    # been ruined after passing L.  This holds for every seed and strategy
    grid = ro.Grid.from_xmax(0.01, 60.0)
    if strategy == "optimal":
        vg = ro.solve_v(ex1, exp1, grid)
        sim = ro.SampledFn(grid=grid, values=vg.a_star)
    else:
        vg = ro.evaluate_policy(ex1, exp1, grid, np.zeros(grid.n))
        sim = 0.0
    ceiling = SimConfig(dt=0.01, horizon=20.0, n_paths=1024, safe_level=60.0, master_seed=2026)
    norm = ro.normalize_delta(vg, claim_mean=1.0)
    level, psi = norm.absorb_level(1.0, ceiling.n_paths, ceiling.safe_level)
    d = norm.delta(1.0)
    bound = math.sqrt(d * (1.0 - d) / ceiling.n_paths) / 100.0
    assert 1.0 < level < 60.0 and psi == norm.psi(level) <= bound < norm.psi(level - grid.h)

    idx = np.arange(ceiling.n_paths)
    at_level = _run_paths(ex1, exp1, sim, 1.0, replace(ceiling, safe_level=level), idx)
    at_ceiling = _run_paths(ex1, exp1, sim, 1.0, ceiling, idx)
    kept = at_level[0] != mc._SAFE
    assert np.array_equal(at_level[0][kept], at_ceiling[0][kept])
    assert np.array_equal(at_level[1][kept], at_ceiling[1][kept], equal_nan=True)
    ruined = at_level[0] == mc._RUINED
    assert np.all(at_ceiling[0][ruined] == mc._RUINED)
    assert np.count_nonzero(ruined) <= np.count_nonzero(at_ceiling[0] == mc._RUINED)
    assert np.count_nonzero(~kept) > 0.8 * ceiling.n_paths
