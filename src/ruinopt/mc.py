"""Monte Carlo simulation of the controlled surplus.

Euler scheme on the diffusion part plus exact Poisson claim arrivals.  The
random streams are structured for strict reproducibility: every path owns
two generators seeded by (master_seed, path_index, stream) with stream 0
for the diffusion normals and stream 1 for the claim arrivals and sizes,
and each path consumes its streams in an order that depends only on its
own history.  Consequently a path's outcome is bit-identical however the
paths are batched, and runs with the same master seed are coupled across
strategies (common random numbers), which makes strategy comparisons far
sharper than independent runs.

A path draws its normals in blocks of (2, _NORM_BLOCK) and uses one pair
per step while it lives, so every live path sits at the same place in its
block: one cursor, step % _NORM_BLOCK, serves them all.  The blocks are
stored transposed, draw-major, so a step reads one contiguous row.  Claims
are drawn in chunks of _CLAIM_CHUNK per path, each path refilled only when
its own chunk runs out; the claims due in a step are settled in rounds of
one claim per path.  Neither layout changes which numbers a path draws or
the order it uses them in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .claims import ClaimDistribution
from .model import ModelParams

__all__ = [
    "MIN_PATHS",
    "SimConfig",
    "PathResult",
    "SimReport",
    "simulate_path",
    "estimate_survival",
    "compare_strategies",
]

MIN_PATHS = 100     # fewest paths estimate_survival accepts

_NORM_BLOCK = 512   # diffusion normals drawn per refill, per path
_REFILL_CHUNK = 128  # paths drawn together before the transpose into nbuf
_CLAIM_CHUNK = 32   # claim arrivals / sizes drawn per refill, per path
_COHORT = 8192      # paths simulated per vectorized batch

_PENDING, _RUINED, _SAFE, _HORIZON = -1, 0, 1, 2
_STATUS_NAMES = {_RUINED: "ruined", _SAFE: "safe", _HORIZON: "horizon"}


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 200.0
    n_paths: int = 100_000
    safe_level: float = 60.0
    master_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if self.dt > self.horizon:
            raise ValueError(f"dt must not exceed the horizon, got dt={self.dt!r}, horizon={self.horizon!r}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be positive, got {self.n_paths!r}")
        if not (math.isfinite(self.safe_level) and self.safe_level > 0):
            raise ValueError(f"safe_level must be positive, got {self.safe_level!r}")
        if not (0 <= self.master_seed < 2**64):
            raise ValueError(f"master_seed must fit in 64 bits, got {self.master_seed!r}")


@dataclass(frozen=True)
class PathResult:
    status: str                 # "ruined", "safe", or "horizon"
    time: float | None          # ruin time when ruined, else None


@dataclass(frozen=True)
class SimReport:
    survival: float             # fraction of paths that were never ruined
    stderr: float
    ci95: tuple[float, float]
    n_paths: int
    n_ruined: int
    n_safe: int
    n_horizon: int
    mean_ruin_time: float | None


def _as_strategy_fn(strategy):
    if callable(strategy):
        return strategy
    amount = float(strategy)
    return lambda xs: np.full_like(np.asarray(xs, dtype=float), amount)


def _run_paths(
    params: ModelParams,
    dist: ClaimDistribution,
    strategy_fn,
    x0: float,
    config: SimConfig,
    indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the given path indices; returns (status, ruin_time) arrays."""
    p = params
    n = len(indices)
    dt = config.dt
    sq_dt = math.sqrt(dt)
    rho_c = math.sqrt(1.0 - p.rho * p.rho)
    n_steps = int(round(config.horizon / dt))

    rng_d = [
        np.random.default_rng(np.random.SeedSequence((config.master_seed, int(i), 0)))
        for i in indices
    ]
    rng_c = [
        np.random.default_rng(np.random.SeedSequence((config.master_seed, int(i), 1)))
        for i in indices
    ]

    # every live path draws one normal pair a step, so all share the cursor
    # step % _NORM_BLOCK; row k holds draw k of the paths live at the last
    # refill, and col[m] is the column of path alive[m]
    nbuf = np.empty((_NORM_BLOCK, 2, n))
    chunk = np.empty((min(n, _REFILL_CHUNK), 2, _NORM_BLOCK))
    abuf = np.empty((n, _CLAIM_CHUNK))      # inter-arrival times
    apos = np.empty(n, dtype=np.int64)
    sbuf = np.empty((n, _CLAIM_CHUNK))      # claim sizes
    spos = np.full(n, _CLAIM_CHUNK)

    next_claim = np.empty(n)
    for i in range(n):
        abuf[i] = rng_c[i].standard_exponential(_CLAIM_CHUNK) / p.lam
        next_claim[i] = abuf[i, 0]
        apos[i] = 1

    X = np.full(n, float(x0))
    status = np.full(n, _PENDING, dtype=np.int8)
    ruin_time = np.full(n, np.nan)
    alive = np.arange(n)

    for step in range(n_steps):
        if alive.size == 0:
            break
        t_new = (step + 1) * dt

        k = step % _NORM_BLOCK
        if k == 0:
            for lo in range(0, alive.size, _REFILL_CHUNK):
                part = alive[lo:lo + _REFILL_CHUNK]
                for c, i in enumerate(part):
                    rng_d[i].standard_normal(out=chunk[c])
                nbuf[:, :, lo:lo + part.size] = chunk[:part.size].transpose(2, 1, 0)
            col = np.arange(alive.size)
        z0, z1 = nbuf[k].take(col, axis=1)

        xs = X[alive]
        amt = np.asarray(strategy_fn(xs), dtype=float)
        dB = sq_dt * z0
        dB1 = p.rho * dB + rho_c * sq_dt * z1
        xs = xs + (p.c + p.r * xs + p.excess * amt) * dt + p.sigma * amt * dB + p.sigma1 * dB1
        X[alive] = xs

        ruined = xs < 0.0
        if ruined.any():
            hit = alive[ruined]
            status[hit] = _RUINED
            ruin_time[hit] = t_new
            alive = alive[~ruined]
            col = col[~ruined]

        # claims due this step, one per path per round, each path in its own
        # order: size refill, subtract, ruin check, arrival refill, advance
        due = alive[next_claim[alive] <= t_new]
        if due.size:
            while due.size:
                for i in due[spos[due] == _CLAIM_CHUNK]:
                    sbuf[i] = dist.ppf(rng_c[i].random(_CLAIM_CHUNK))
                    spos[i] = 0
                X[due] -= sbuf[due, spos[due]]
                spos[due] += 1
                broke = X[due] < 0.0
                if broke.any():
                    hit = due[broke]
                    status[hit] = _RUINED
                    ruin_time[hit] = next_claim[hit]
                    due = due[~broke]
                for i in due[apos[due] == _CLAIM_CHUNK]:
                    abuf[i] = rng_c[i].standard_exponential(_CLAIM_CHUNK) / p.lam
                    apos[i] = 0
                next_claim[due] += abuf[due, apos[due]]
                apos[due] += 1
                due = due[next_claim[due] <= t_new]
            keep = status[alive] == _PENDING
            alive = alive[keep]
            col = col[keep]

        if alive.size:
            reached = X[alive] >= config.safe_level
            if reached.any():
                status[alive[reached]] = _SAFE
                alive = alive[~reached]
                col = col[~reached]

    status[alive] = _HORIZON
    return status, ruin_time


def simulate_path(
    params: ModelParams,
    dist: ClaimDistribution,
    strategy,
    x0: float,
    config: SimConfig,
    path_index: int,
) -> PathResult:
    """One path, bit-identical to the same index inside any batched run."""
    status, ruin_time = _run_paths(
        params, dist, _as_strategy_fn(strategy), x0, config, np.array([path_index])
    )
    s = int(status[0])
    return PathResult(_STATUS_NAMES[s], float(ruin_time[0]) if s == _RUINED else None)


def estimate_survival(
    params: ModelParams,
    dist: ClaimDistribution,
    strategy,
    x0: float,
    config: SimConfig,
) -> SimReport:
    """Survival probability estimate over config.n_paths paths.

    Survival counts both absorbed-safe and still-alive-at-horizon paths.
    """
    if config.n_paths < MIN_PATHS:
        raise ValueError(f"need at least {MIN_PATHS} paths for an estimate, got {config.n_paths}")
    if not (0 <= x0 < config.safe_level):
        raise ValueError(
            f"x0 must sit in [0, safe_level); got x0={x0!r}, safe_level={config.safe_level!r}"
        )
    fn = _as_strategy_fn(strategy)
    n = config.n_paths
    n_ruined = n_safe = n_horizon = 0
    ruin_time_sum = 0.0
    for start in range(0, n, _COHORT):
        idx = np.arange(start, min(start + _COHORT, n))
        status, ruin_time = _run_paths(params, dist, fn, x0, config, idx)
        n_ruined += int((status == _RUINED).sum())
        n_safe += int((status == _SAFE).sum())
        n_horizon += int((status == _HORIZON).sum())
        ruin_time_sum += float(np.nansum(ruin_time))
    survival = (n_safe + n_horizon) / n
    stderr = math.sqrt(max(survival * (1.0 - survival), 0.0) / n)
    return SimReport(
        survival=survival,
        stderr=stderr,
        ci95=(survival - 1.96 * stderr, survival + 1.96 * stderr),
        n_paths=n,
        n_ruined=n_ruined,
        n_safe=n_safe,
        n_horizon=n_horizon,
        mean_ruin_time=(ruin_time_sum / n_ruined) if n_ruined else None,
    )


def compare_strategies(
    params: ModelParams,
    dist: ClaimDistribution,
    strategies: list[tuple[str, object]],
    x0: float,
    config: SimConfig,
) -> list[tuple[str, SimReport]]:
    """Estimate survival under each named strategy with common random numbers.

    Every strategy sees the same master seed, hence the same claim arrivals
    and driving noise, so ranking differences are driven by the strategies
    alone.  Returns (name, report) pairs sorted by survival, best first;
    ties keep the input order.
    """
    if len(strategies) < 2:
        raise ValueError("comparison needs at least two strategies")
    reports = [
        (name, estimate_survival(params, dist, strat, x0, config))
        for name, strat in strategies
    ]
    return sorted(reports, key=lambda item: -item[1].survival)
