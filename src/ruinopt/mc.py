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

Each generator is default_rng(SeedSequence((master_seed, path_index,
stream))), but a batch does not build those SeedSequences one at a time:
_seed_states runs numpy's SeedSequence hash over every index at once in
uint32 arithmetic, and each PCG64 takes its precomputed state words.  The
streams are numpy's own, word for word.  The horizon must be a whole
number of steps, so the simulated time is exactly the horizon.

Over one step the two Brownian parts of the surplus, sigma a dB + sigma1
dB1, form a single normal of variance Q(a) dt (ModelParams.quadratic_form),
so the Euler step moves x by (c + r x + (mu - r) a) dt + sqrt(Q(a) dt) z
with one standard normal z, read from stream 0.  A path draws these
normals in blocks and uses one per step while it lives, so every live path
sits at the same place in its block: one cursor serves them all.  A
cohort's first block is _FIRST_BLOCK draws long and each next one twice
the last, up to _NORM_BLOCK, so paths that leave early do not draw long
blocks they never read; a stream's numbers do not depend on how it is cut
into blocks.  The blocks are stored transposed, draw-major, so a step
reads one contiguous row, and already times sqrt(dt), formed in the copy
that transposes them; that storage is allocated once per share and handed
to every cohort in it.  Claims are drawn in chunks of _CLAIM_CHUNK per
path, each path refilled only when its own chunk runs out.  A running
lower bound of the next claim time lets a step with no claim due skip the
search for one.  When at most _FEW_DUE paths have a claim due, each
settles its claims one by one on Python floats; more settle in rounds of
one claim per path, which cost a few array passes per round however many
paths take part.  The live state (surplus, next claim time, normal column)
is kept dense, in the order of the live paths, and is compacted once, at
the end of a step where some path leaves.  Neither layout changes which numbers a path
draws or the order it uses them in.

An array pass over a few thousand live paths costs a few microseconds,
more than its arithmetic, so the step is written to make few of them: it
works in place in arrays allocated once per run, into which a
SampledFn strategy also writes its lookup.  A live surplus lies in
[0, safe_level), so a SampledFn whose grid reaches the safe level is read
only on its grid.  `simulate` sets the safe level to the absorption
level a solve certifies, or leaves mc.safe_level where none is certified,
and `--strategy optimal` takes a* from the march that certifies it, on
a grid that reaches mc.safe_level.  A
constant strategy stays a Python float, so (mu - r) a and sqrt(Q(a)) are
formed once per run.  Other callables are called on the live surplus and
their result read before the surplus moves.  Every path still does the
IEEE operations of x + ((c + r x) + (mu - r) a) dt + sqrt(Q(a)) (sqrt(dt) z)
in that grouping, so its outcome does not depend on the strategy's form.
Ruin and the safe level are tested by one x.min() and one x.max() taken
after the Euler step, and a mask is built only when one of them fires.  Those two reductions
also see a NaN or infinite surplus, which a strategy with non-finite
values produces; the run refuses it with a ValueError naming the path, the
time and the value, since NaN fails both x < 0 and x >= safe_level and
would otherwise count as survival.

estimate_survival splits the path indices into contiguous shares, one per
usable CPU and each of at least _MIN_SHARE paths, and runs every share in
a child forked for it, while the parent only forks, waits and reduces.
Processes, not threads: the Euler loop is many small numpy calls, and
threads serialise on the GIL between them, which made a threaded run
slower than a serial one.  The job reaches the children through fork, so
lambdas and closures work as strategies, and only the (status, ruin_time)
arrays come back through a pipe.  The parent concatenates them in index
order and sums the ruin times per _COHORT slice, as a run in one process
does, so every report is bit-identical to that run's.  The paths run in
the calling process when there are too few for two shares, where fork is
not available, and inside a daemonic process, which may have no children.

SimConfig, the record of a scenario's mc.* keys, lives in `scenario` and
is re-exported here.  Of the subcommands only `simulate` needs this
module, and with it numpy.random, so `ruinopt.cli` imports it on first
use.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .claims import ClaimDistribution
from .model import ModelParams
from .numerics import SampledFn
from .scenario import SimConfig

__all__ = [
    "MIN_PATHS",
    "SimConfig",
    "PathResult",
    "SimReport",
    "simulate_path",
    "estimate_survival",
]

MIN_PATHS = 100     # fewest paths estimate_survival accepts

_NORM_BLOCK = 512   # diffusion normals drawn per refill, per path, at most
_FIRST_BLOCK = 128  # ... and at a cohort's first refill, doubling from there
_REFILL_CHUNK = 128  # paths drawn together before the transpose into nbuf
_CLAIM_CHUNK = 32   # claim arrivals / sizes drawn per refill, per path
_COHORT = 8192      # paths simulated per vectorized batch
_MIN_SHARE = 1024   # fewest paths worth a worker process of their own
_FEW_DUE = 4        # due claims settled path by path, at most; more go in rounds

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

_PENDING, _RUINED, _SAFE, _HORIZON = -1, 0, 1, 2
_STATUS_NAMES = {_RUINED: "ruined", _SAFE: "safe", _HORIZON: "horizon"}


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


def _hasher(init: int, mult: int):
    """numpy's hashmix on uint32 arrays, carrying its running constant."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return out ^ out >> 16


def _seed_states(master_seed: int, indices: np.ndarray, stream: int) -> np.ndarray:
    """SeedSequence((master_seed, i, stream)).generate_state(4, np.uint64) for every i.

    numpy's hash of the entropy words into a pool of four, then its state
    generation, run over all indices at once in wrapping uint32 arithmetic.
    Each integer enters as its 32-bit words, least significant first, and
    zero as one word: the seed and the index give one word each below 2**32
    and two from there on.  A short tuple hashes as if zero-padded to the
    pool size; a fifth word is mixed into every pool word afterwards.
    """
    idx = np.asarray(indices)
    if (idx < 0).any():
        raise ValueError("path indices must be nonnegative")
    idx = idx.astype(np.uint64)
    seed = [master_seed & _MASK32, master_seed >> 32] if master_seed >> 32 else [master_seed]
    s = len(seed)
    wide = idx > _MASK32
    words = np.zeros((5, idx.size), dtype=np.uint32)
    words[:s] = np.array(seed, dtype=np.uint32)[:, None]
    words[s] = idx.astype(np.uint32)
    words[s + 1] = np.where(wide, (idx >> 32).astype(np.uint32), stream)
    words[s + 2] = np.where(wide, stream, 0)

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[k]) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    if s == 2 and wide.any():
        for dst in range(4):
            pool[dst] = np.where(wide, _mix(pool[dst], hashmix(words[4])), pool[dst])

    hashout = _hasher(_INIT_B, _MULT_B)
    half = [hashout(pool[k % 4]).astype(np.uint64) for k in range(8)]
    return np.stack([half[2 * k] | half[2 * k + 1] << 32 for k in range(4)], axis=1)


class _SeedState(ISeedSequence):
    """Hands PCG64 the state words its SeedSequence would have generated.

    PCG64 asks its seed sequence for one thing, generate_state(4, np.uint64).
    """

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


def _generators(master_seed: int, indices: np.ndarray, stream: int) -> list[Generator]:
    """default_rng(SeedSequence((master_seed, i, stream))) for every i, seeded in one pass."""
    return [Generator(PCG64(_SeedState(w))) for w in _seed_states(master_seed, indices, stream)]


def _as_strategy(strategy):
    """A callable strategy as given; anything else as its constant float."""
    return strategy if callable(strategy) else float(strategy)


def _nonfinite(x: np.ndarray, alive: np.ndarray, t: float) -> ValueError:
    """The error for the first live path whose surplus x is NaN or infinite."""
    k = int(np.flatnonzero(~np.isfinite(x))[0])
    return ValueError(
        f"path {int(alive[k])} reached the non-finite surplus {float(x[k])!r} at t={t:.9g}; "
        "the strategy must keep (mu - r) a and Q(a) finite"
    )


def _run_paths(
    params: ModelParams,
    dist: ClaimDistribution,
    strategy,
    x0: float,
    config: SimConfig,
    indices: np.ndarray,
    nbuf: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the given path indices; returns (status, ruin_time) arrays.

    strategy is a constant float, a SampledFn (filled into this run's
    buffers) or another callable (called on the live surplus).  nbuf, when
    given, is the storage for the normal block: _NORM_BLOCK rows and at
    least len(indices) columns, overwritten here.
    """
    p = params
    n = len(indices)
    dt = config.dt
    sq_dt = math.sqrt(dt)
    n_steps = round(config.horizon / dt)
    safe_level = config.safe_level
    # the Euler step's constants, grouped as ModelParams groups them:
    # (c + r x) + (mu - r) a and ((sigma^2 a) a + (2 rho sigma sigma1) a) + sigma1^2
    c, r, excess = p.c, p.r, p.excess
    s2, cross, s1sq = p.sigma**2, 2.0 * p.rho * p.sigma * p.sigma1, p.sigma1**2
    curve = isinstance(strategy, SampledFn)
    const = not callable(strategy)
    if const:
        drift_a = excess * strategy
        root_q = math.sqrt(p.quadratic_form(strategy))

    rng_d = _generators(config.master_seed, indices, 0)
    rng_c = _generators(config.master_seed, indices, 1)

    # every live path draws one normal a step, so all share the cursor
    # step - block_start; row k holds draw k, times sqrt(dt), of the paths
    # live at the last refill, and col[m] is the column of path alive[m]
    nbuf = np.empty((_NORM_BLOCK, n)) if nbuf is None else nbuf[:, :n]
    rows = _FIRST_BLOCK     # length of the next normal block
    block_start = block_end = 0
    chunk = np.empty((min(n, _REFILL_CHUNK), _NORM_BLOCK))
    abuf = np.empty((n, _CLAIM_CHUNK))      # inter-arrival times
    for i in range(n):
        rng_c[i].standard_exponential(out=abuf[i])
    abuf /= p.lam
    apos = np.ones(n, dtype=np.int64)
    sbuf = np.empty((n, _CLAIM_CHUNK))      # claim sizes
    spos = np.full(n, _CLAIM_CHUNK)
    # the step's work arrays; the first live-count entries are in use
    amt_buf, f1_buf, f2_buf = np.empty(n), np.empty(n), np.empty(n)
    j_buf = np.empty(n, dtype=np.intp)

    # the live state is dense: entry m of col, x and next_claim belongs to
    # path alive[m], and all four shrink together only when a path leaves
    next_claim = abuf[:, 0].copy()
    t_next = float(next_claim.min())    # never above the earliest next claim
    x = np.full(n, float(x0))
    status = np.full(n, _PENDING, dtype=np.int8)
    ruin_time = np.full(n, np.nan)
    alive = np.arange(n)

    for step in range(n_steps):
        live = alive.size
        if live == 0:
            break
        t_new = (step + 1) * dt

        if step == block_end:
            for lo in range(0, live, _REFILL_CHUNK):
                part = alive[lo:lo + _REFILL_CHUNK]
                for k, i in enumerate(part):
                    rng_d[i].standard_normal(out=chunk[k, :rows])
                np.multiply(chunk[:part.size, :rows].T, sq_dt, out=nbuf[:rows, lo:lo + part.size])
            col = np.arange(live)
            block_start, block_end = step, step + rows
            rows = min(2 * rows, _NORM_BLOCK)

        # x + ((c + r x) + (mu - r) a) dt + sqrt(Q(a)) (sqrt(dt) z): sigma a dB
        # + sigma1 dB1 over a step is one normal of variance Q(a) dt.  Every
        # use of a comes before x moves, since a callable may return x itself
        # g holds a curve's a, then (2 rho sigma sigma1) a
        f1, f2, g = f1_buf[:live], f2_buf[:live], amt_buf[:live]
        if curve:
            amt = strategy(x, g, (f1, f2, j_buf[:live]))
        elif not const:
            amt = np.asarray(strategy(x), dtype=float)
        np.multiply(x, r, out=f1)
        f1 += c
        if const:
            f1 += drift_a
        else:
            np.multiply(amt, excess, out=f2)
            f1 += f2
            np.multiply(amt, s2, out=f2)
            f2 *= amt
            np.multiply(amt, cross, out=g)
            f2 += g
            f2 += s1sq
            np.sqrt(f2, out=f2)
        f1 *= dt
        x += f1
        nbuf[step - block_start].take(col, out=f1, mode="clip")
        f1 *= root_q if const else f2
        x += f1

        # each exit is marked where it is found and the live state compacted
        # once, at the step's end; a ruined path's next claim is inf
        low, high = x.min(), x.max()
        leaving = not (low >= 0.0 and high < safe_level)
        if leaving:
            if not (math.isfinite(low) and math.isfinite(high)):
                raise _nonfinite(x, alive, t_new)
            if low < 0.0:
                ruined = x < 0.0
                hit = alive[ruined]
                status[hit] = _RUINED
                ruin_time[hit] = t_new
                next_claim[ruined] = math.inf

        # claims due this step, each path in its own order: size refill,
        # subtract, ruin check, arrival refill, advance.  A few due paths
        # settle one by one on Python floats, more in rounds of one claim
        # per path; due holds live positions and ids the paths at them
        if t_next <= t_new:
            due = np.flatnonzero(next_claim <= t_new)
            if due.size <= _FEW_DUE:
                for k in due.tolist():
                    i = int(alive[k])
                    xk, tk = x.item(k), next_claim.item(k)
                    while True:
                        if spos[i] == _CLAIM_CHUNK:
                            sbuf[i] = dist.ppf(rng_c[i].random(_CLAIM_CHUNK))
                            spos[i] = 0
                        xk -= sbuf.item(i, spos[i])
                        spos[i] += 1
                        if xk < 0.0:
                            leaving = True
                            status[i] = _RUINED
                            ruin_time[i] = tk
                            tk = math.inf
                            break
                        if apos[i] == _CLAIM_CHUNK:
                            abuf[i] = rng_c[i].standard_exponential(_CLAIM_CHUNK) / p.lam
                            apos[i] = 0
                        tk += abuf.item(i, apos[i])
                        apos[i] += 1
                        if not tk <= t_new:
                            break
                    x[k], next_claim[k] = xk, tk
            else:
                while due.size:
                    ids = alive[due]
                    for i in ids[spos[ids] == _CLAIM_CHUNK]:
                        sbuf[i] = dist.ppf(rng_c[i].random(_CLAIM_CHUNK))
                        spos[i] = 0
                    x[due] -= sbuf[ids, spos[ids]]
                    spos[ids] += 1
                    broke = x[due] < 0.0
                    if broke.any():
                        leaving = True
                        status[ids[broke]] = _RUINED
                        ruin_time[ids[broke]] = next_claim[due[broke]]
                        next_claim[due[broke]] = math.inf
                        due, ids = due[~broke], ids[~broke]
                    for i in ids[apos[ids] == _CLAIM_CHUNK]:
                        abuf[i] = rng_c[i].standard_exponential(_CLAIM_CHUNK) / p.lam
                        apos[i] = 0
                    next_claim[due] += abuf[ids, apos[ids]]
                    apos[ids] += 1
                    due = due[next_claim[due] <= t_new]
            t_next = float(next_claim.min())

        if leaving:
            if not high < safe_level:   # claims only lower x
                status[alive[x >= safe_level]] = _SAFE
            keep = status[alive] == _PENDING
            alive, col, x, next_claim = alive[keep], col[keep], x[keep], next_claim[keep]

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
        params, dist, _as_strategy(strategy), x0, config, np.array([path_index])
    )
    s = int(status[0])
    return PathResult(_STATUS_NAMES[s], float(ruin_time[0]) if s == _RUINED else None)


def _run_share(job: tuple, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(status, ruin_time) of paths lo..hi-1, run in cohorts of _COHORT.

    One normal block serves every cohort of the share.
    """
    nbuf = np.empty((_NORM_BLOCK, min(hi - lo, _COHORT)))
    parts = [
        _run_paths(*job, np.arange(start, min(start + _COHORT, hi)), nbuf)
        for start in range(lo, hi, _COHORT)
    ]
    return np.concatenate([s for s, _ in parts]), np.concatenate([t for _, t in parts])


def _share_count(n: int) -> int:
    """Worker processes for n paths: one per usable CPU, each given at least
    _MIN_SHARE paths.  1 means run in this process, as where fork is not
    available or this process is itself a daemonic worker."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    shares = min(len(os.sched_getaffinity(0)), n // _MIN_SHARE)
    if shares < 2:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods() or multiprocessing.current_process().daemon:
        return 1
    return shares


def _share_worker(conn, job: tuple, lo: int, hi: int) -> None:
    """Child side: run one share and send back (True, result) or (False, error)."""
    try:
        out = (True, _run_share(job, lo, hi))
    except BaseException as exc:
        import pickle
        import traceback

        exc.add_note(f"raised in the Monte Carlo worker for paths [{lo}, {hi}):\n{traceback.format_exc()}")
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        out = (False, exc)
    conn.send(out)
    conn.close()


def _run_forked(job: tuple, bounds: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Run each (lo, hi) share in a forked child and concatenate the results.

    The job reaches the children through fork, so a strategy need not be
    picklable.  Every child is joined before this returns or raises; an
    error in a child is raised here, and the other children are stopped.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for lo, hi in bounds:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_share_worker, args=(send, job, lo, hi), daemon=True)
            proc.start()
            send.close()
            procs.append(proc)
            conns.append(recv)
        parts = []
        for proc, conn, (lo, hi) in zip(procs, conns, bounds):
            try:
                ok, value = conn.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"Monte Carlo worker for paths [{lo}, {hi}) exited with code {proc.exitcode} "
                    "before sending its result"
                ) from None
            if not ok:
                raise value
            parts.append(value)
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
    return np.concatenate([s for s, _ in parts]), np.concatenate([t for _, t in parts])


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
    job = (params, dist, _as_strategy(strategy), x0, config)
    n = config.n_paths
    shares = _share_count(n)
    if shares < 2:
        status, ruin_time = _run_share(job, 0, n)
    else:
        bounds = [n * k // shares for k in range(shares + 1)]
        status, ruin_time = _run_forked(job, list(zip(bounds[:-1], bounds[1:])))
    n_ruined = int(np.count_nonzero(status == _RUINED))
    n_safe = int(np.count_nonzero(status == _SAFE))
    n_horizon = int(np.count_nonzero(status == _HORIZON))
    # summed cohort by cohort in index order, so the mean ruin time does not
    # depend on how the paths were shared out
    ruin_time_sum = 0.0
    for start in range(0, n, _COHORT):
        ruin_time_sum += float(np.nansum(ruin_time[start:start + _COHORT]))
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
