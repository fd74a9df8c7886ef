"""Command-line interface: scenario ingestion, solves, reports, simulation.

Subcommands:

    constants <scenario>      closed-form constants + regime classification (JSON)
    solve <scenario> --mode {constrained,unconstrained}
                              solution CSV (x, v, V, delta, a_star, hjb_residual)
                              plus a JSON summary
    asymptotes <scenario>     closed-form asymptote report (JSON)
    exp-validate <scenario>   solver strategy vs the independent feedback ODE
    simulate <scenario> --x0 X [--strategy optimal|zero|const:<a>|file:<path>]
                              Monte Carlo survival report (JSON)
    example1 / example2       benchmark scenarios end to end, figure-style CSVs

Exit codes: 0 success, 2 usage, 3 missing file, 4 invalid value,
5 unknown scenario key.  Every error message names the offending key.

Importing this module loads only numpy, `model`, `numerics` and `scenario`
(with `claims`).  The five command modules, `solve`, `results`,
`asymptotics`, `exp_ode` and `mc` (which brings numpy.random), load the
first time a command needs them: `constants` loads none, `solve` the
first three, `exp-validate` all but `mc`.  Their names are still bound in
this module's namespace, not imported inside the functions, because code
outside reads and sets them on the module: a command first calls `_bind`,
which binds each of its modules' names that is not bound yet, and a read
of cli.<name> binds it through the module `__getattr__`.  So a name that a
test patches, or that perfbench's tracer wraps after finding it in
vars(cli), stays the one the command calls.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from dataclasses import asdict, replace
from importlib import import_module
from pathlib import Path

import numpy as np

from .model import classify_infinity_regime, classify_zero_regime, derive_constants
from .numerics import Grid, SampledFn
from .scenario import (
    BadValueError,
    Scenario,
    UnknownKeyError,
    example1_distributions,
    example1_params,
    example2_distributions,
    example2_params,
    load_scenario,
    scenario_text,
)

# the names cli takes from the command modules, by module, bound into this
# namespace on first use (module docstring)
_DEFERRED = {
    "asymptotics": ("asymptote_report", "fit_tail_constant", "strategy_slope_zero",
                    "tail_log_compensated", "tail_window"),
    "exp_ode": ("reconstruct_log_vprime", "solve_a_tilde"),
    "mc": ("MIN_PATHS", "estimate_survival"),
    "results": ("ValueGrid", "hjb_residual", "normalize_delta"),
    "solve": ("evaluate_policy", "solve_v"),
}
_MODULE_OF = {name: module for module, names in _DEFERRED.items() for name in names}


def _bind(*modules: str) -> None:
    """Import `modules` and bind the names cli takes from them here.  A name
    already bound, by an earlier call or by a patch or wrapper set on cli,
    is left as it is."""
    g = globals()
    for module in modules:
        missing = [name for name in _DEFERRED[module] if name not in g]
        if missing:
            mod = import_module(f".{module}", __package__)
            g.update((name, getattr(mod, name)) for name in missing)


def __getattr__(name: str):
    # cli.<name> read from outside binds a deferred name on first read
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_MODULE_OF[name])
    return globals()[name]


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_VALUE = 4
EXIT_UNKNOWN_KEY = 5


def _nine(x):
    if isinstance(x, float):
        return float(f"{x:.9g}") if math.isfinite(x) else None
    return x


def _round9(obj):
    """Clamp every float in a JSON-able structure to 9 significant digits,
    and make each non-finite one null: the JSON printed is strict."""
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _nine(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_round9(v) for v in obj.tolist()]
    return _nine(obj)


def _emit(doc: dict) -> None:
    print(json.dumps(_round9(doc), indent=2, sort_keys=True, allow_nan=False))


_CSV_BLOCK = 1024   # rows formatted per write


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    row = ",".join(["%.9g"] * len(columns)) + "\n"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK):
            block = np.column_stack([np.asarray(col[lo:lo + _CSV_BLOCK], dtype=float) for col in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _regime_doc(report) -> dict:
    return {
        "regime": report.regime.value,
        "boundary": report.boundary,
        "resolution": report.resolution.value if report.resolution else None,
        "note": report.note,
    }


def _constants_doc(sc: Scenario) -> dict:
    m = sc.dist.exponential_mean
    cons = derive_constants(sc.params, claim_mean=m)
    doc = {"constants": asdict(cons), "scenario": dict(sc.raw), "regimes": {}}
    if sc.params.cap is not None and sc.params.mu > sc.params.r:
        doc["regimes"]["zero_surplus"] = _regime_doc(classify_zero_regime(sc.params))
        if m is not None:
            doc["regimes"]["large_surplus"] = _regime_doc(classify_infinity_regime(sc.params, m))
    return doc


def _out_dir(path: str) -> Path:
    """The directory --out names, made with its parents where missing."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:   # it, or a parent, is a file
        raise argparse.ArgumentError(None, f"--out {path!r} is not a directory: {exc}") from None
    return Path(path)


def _cmd_constants(args) -> int:
    sc = load_scenario(args.scenario)
    doc = _constants_doc(sc)
    out = _out_dir(args.out) if args.out else None
    _emit(doc)
    if out:
        (out / "constants.json").write_text(
            json.dumps(_round9(doc), indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8"
        )
        (out / "scenario_echo.txt").write_text(scenario_text(sc), encoding="utf-8")
    return EXIT_OK


def _solve(sc: Scenario, params, grid: Grid | None = None):
    """Value grid, a* included, of params' problem with sc's claims, on
    sc.grid or on grid, which shares its step and ends before or after it.
    An underflow refusal names grid.xmax where its node lies on sc.grid,
    and mc.safe_level past it; a Sharpe ratio too large or too small for
    the unrestricted node to square names mu."""
    kappa = params.excess / params.sigma   # the unrestricted node squares it, and divides by its root
    if params.cap is None and kappa and not sys.float_info.min <= kappa * kappa < math.inf:
        raise BadValueError("mu", f"((mu - r) / sigma)^2 must be 0 or normal, got (mu - r) / sigma {kappa!r}")
    try:
        return solve_v(params, sc.dist, grid or sc.grid)
    except RuntimeError as exc:  # a node without a positive root: h is too coarse
        raise BadValueError("grid.h", str(exc)) from None
    except FloatingPointError as exc:  # v underflowed: the grid reaches too far
        raise BadValueError("grid.xmax" if exc.x <= sc.grid.x_max else "mc.safe_level", str(exc)) from None


def _cmd_solve(args) -> int:
    _bind("solve", "results", "asymptotics")
    sc = load_scenario(args.scenario)
    out = _out_dir(args.out)
    capped = args.mode == "constrained"
    if capped and sc.params.cap is None:
        raise BadValueError("cap_A", "constrained solve needs cap_A in the scenario")
    params = sc.params if capped else replace(sc.params, cap=None)
    if sc.grid.n < 3:   # the certificate's centred difference needs an interior node
        raise BadValueError("grid.xmax", f"x_max must reach 2 h = {2 * sc.grid.h!r}, got {sc.grid.x_max!r}")
    t0 = time.perf_counter()
    vg = _solve(sc, params)
    res = hjb_residual(vg, params, sc.dist)
    elapsed = time.perf_counter() - t0
    res_doc = asdict(res)
    del res_doc["pointwise"]

    m = sc.dist.exponential_mean
    norm = normalize_delta(vg, claim_mean=m)
    doc = {
        "mode": args.mode,
        "runtime_s": elapsed,
        "grid": {"h": sc.grid.h, "x_max": sc.grid.x_max, "n": sc.grid.n},
        "residuals": res_doc,
        "v_prime_zero": float(vg.vprime[0]),
        "a_star_zero": float(vg.a_star[0]),
        "normalization": {
            "v_inf_hat": norm.v_inf_hat,
            "tail_remainder": norm.tail_remainder,
            "tail_slope": norm.tail_slope,
            "truncated": norm.truncated,
            "delta_slope_zero": 1.0 / norm.v_inf_hat if 0.0 < norm.v_inf_hat < math.inf else None,
        },
    }
    if m is not None and not capped:
        try:
            fit = fit_tail_constant(vg, sc.params, m)
        except ValueError as exc:
            # the window follows the grid end, so grid.xmax is the key to change
            window = tail_window(sc.grid.x_max)
            raise BadValueError("grid.xmax", f"tail fit on {window!r} failed: {exc}") from None
        doc["tail_fit"] = asdict(fit)

    delta_vals = norm.delta.values
    csv_path = out / f"solve_{args.mode}.csv"
    _write_csv(
        csv_path,
        ["x", "v", "V", "delta", "a_star", "hjb_residual"],
        [vg.x, vg.v, vg.V, delta_vals, vg.a_star, res.pointwise],
    )
    doc["csv"] = str(csv_path)
    _emit(doc)
    return EXIT_OK


def _cmd_asymptotes(args) -> int:
    _bind("asymptotics")
    sc = load_scenario(args.scenario)
    _emit(asdict(asymptote_report(sc.params, claim_mean=sc.dist.exponential_mean)))
    return EXIT_OK


def _cmd_exp_validate(args) -> int:
    _bind("solve", "asymptotics", "exp_ode")
    sc = load_scenario(args.scenario)
    m = sc.dist.exponential_mean
    if m is None:
        raise BadValueError("claim.family", "exp-validate needs exponential claims")
    if sc.params.excess == 0.0:
        raise BadValueError("mu", "exp-validate needs mu != r: the feedback ODE divides by mu - r")
    x = sc.grid.points
    lo, hi = 1.0, min(10.0, sc.grid.x_max)
    mask = (x >= lo) & (x <= hi)
    if not mask.any():
        raise BadValueError(
            "grid.xmax",
            f"exp-validate compares on [1, 10], but no grid node lies there (x_max={sc.grid.x_max!r})",
        )
    cons = derive_constants(sc.params, claim_mean=m)
    slope = strategy_slope_zero(cons, sc.params)

    t0 = time.perf_counter()
    # the march is causal: a grid that ends at the window's last node gives
    # a* on the window bit for bit, and no node past it can refuse the run;
    # x[last] >= 1 > 0, so the grid has at least two nodes
    last = int(np.flatnonzero(mask)[-1])
    vg = _solve(sc, replace(sc.params, cap=None), Grid(sc.grid.h, last + 1))
    shift = sc.params.hedge
    a_tilde_solver = vg.a_star[mask[: last + 1]] + shift

    x_seed = 1e-4
    seed_value = (cons.a_star_zero - slope * x_seed) + shift
    x_end = sc.grid.x_max
    try:
        curve = solve_a_tilde(sc.params, m, x_seed, x_end, seed_value=seed_value)
    except ValueError as exc:   # the ODE runs to the grid end
        raise BadValueError("grid.xmax", str(exc)) from None
    elapsed = time.perf_counter() - t0

    ode_vals = curve(x[mask])
    rel = np.abs(a_tilde_solver - ode_vals) / np.abs(ode_vals)
    k = int(np.argmax(rel))

    pl_lo, pl_hi = tail_window(x_end)
    rx = x[(x >= pl_lo) & (x <= pl_hi)]
    # V' underflows far out, its log does not
    try:
        log_rv = reconstruct_log_vprime(curve, sc.params, (x_seed, 1.0), rx)
    except ValueError as exc:   # a~ changed sign: a*(0) + rho sigma1 / sigma lost a~ to the hedge
        raise BadValueError("sigma", f"{exc}: a~({x_seed:g}) = {curve.seed!r}, the hedge {shift!r}") from None
    logc = tail_log_compensated(sc.params, m, rx, log_rv)
    with np.errstate(over="ignore"):
        plateau = float(np.exp(logc.max() - logc.min()))

    doc = {
        "runtime_s": elapsed,
        "window": [lo, hi],
        "max_rel_deviation": float(rel[k]),
        "max_rel_deviation_at": float(x[mask][k]),
        "seed": {"x_seed": x_seed, "value": curve.seed},
        "series": {"limit": curve.series[0], "coeff": curve.series[1]},
        "reconstructed_tail_plateau_ratio": plateau,
        "reconstructed_tail_window": [pl_lo, pl_hi],
    }
    _emit(doc)
    return EXIT_OK


def _parses(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _load_strategy_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    # only a first line in which no cell parses is a header; any other
    # unreadable cell, there or further down, is an error
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            header = not any(_parses(cell) for cell in fh.readline().split(","))
        with warnings.catch_warnings():
            # a file without rows is refused below, with its key
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(path, delimiter=",", ndmin=2, comments="#", skiprows=int(header))
    except OSError:
        raise FileNotFoundError(path) from None
    except ValueError as exc:
        raise BadValueError("strategy", f"strategy file {path!r}: {exc}") from None
    if len(table) == 0:
        raise BadValueError("strategy", f"strategy file {path!r} holds no rows")
    if table.shape[1] < 2:
        raise BadValueError("strategy", f"strategy file {path!r} needs two columns x,a")
    xs = table[:, 0]
    vals = table[:, 1]
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vals))):
        raise BadValueError("strategy", f"strategy file {path!r} holds a non-finite value")
    if np.any(np.diff(xs) <= 0.0):
        raise BadValueError("strategy", f"strategy file {path!r}: x must be strictly increasing")
    return xs, vals


def _refuse_overflow(params, amounts, what: str) -> None:
    """Refuse investments whose Q(a) or (mu - r) a is not a finite float.

    Q is convex and (mu - r) a monotone in a, so the extremes of a strategy's
    range are the amounts to check.
    """
    for a in amounts:
        a = float(a)
        if not (math.isfinite(params.quadratic_form(a)) and math.isfinite(params.excess * a)):
            raise BadValueError(
                "strategy", f"{what}: investing a = {a!r} overflows Q(a) or (mu - r) a"
            )


def _price(sc: Scenario, x0: float, amounts: np.ndarray | None = None):
    """One march prices a strategy for sc.sim's paths from x0.

    Returns the value grid, the normalisation of its first sc.grid.n
    nodes, and the absorption level (L, psi(L)) that normalisation
    certifies, or (mc.safe_level, None).  amounts None is the optimal
    strategy, capped when the scenario has a cap, solved on a grid of step
    grid.h that reaches grid.xmax and mc.safe_level, so every surplus a
    live path holds lies on it; its first sc.grid.n nodes are the solve on
    sc.grid bit for bit (the march is causal).  Otherwise evaluate_policy
    prices amounts, one per node, on sc.grid; where it cannot, the result
    is (None, None, (mc.safe_level, None)).
    """
    _bind("solve", "results")
    ceiling, n = sc.sim.safe_level, sc.grid.n
    if amounts is None:
        grid = sc.grid
        if grid.x_max < ceiling:
            try:
                grid = Grid.from_xmax(grid.h, ceiling)
                if grid.x_max < ceiling:   # from_xmax rounds the step count
                    grid = Grid(grid.h, grid.n + 1)
            except ValueError as exc:
                raise BadValueError("mc.safe_level", str(exc)) from None
        vg = _solve(sc, sc.params, grid)
    else:
        try:
            vg = evaluate_policy(sc.params, sc.dist, sc.grid, amounts)
        except (RuntimeError, FloatingPointError):   # no positive root, or v underflowed
            return None, None, (ceiling, None)
    cut = ValueGrid(sc.grid, vg.v[:n], vg.V[:n], vg.vprime[:n], vg.a_star[:n])
    if not np.all(np.isfinite(cut.v)):
        return vg, None, (ceiling, None)
    norm = normalize_delta(cut, claim_mean=sc.dist.exponential_mean)
    return vg, norm, norm.absorb_level(x0, sc.sim.n_paths, ceiling)


class StrategyCurve(SampledFn):
    """The solved a* that `simulate --strategy optimal` runs: a SampledFn
    under the name and the value method that perfbench's tracer
    (bench_trace._counting_strategy) reads.  It goes once perfbench reads
    the program's own stats (ROADMAP item 6)."""

    value = SampledFn.__call__


def _cmd_simulate(args) -> int:
    _bind("solve", "results", "mc")
    sc = load_scenario(args.scenario)
    if sc.sim.n_paths < MIN_PATHS:
        raise BadValueError(
            "mc.paths", f"need at least {MIN_PATHS} paths for an estimate, got {sc.sim.n_paths}"
        )
    if not 0 <= args.x0 < sc.sim.safe_level:
        raise BadValueError(
            "x0", f"x0 must sit in [0, mc.safe_level = {sc.sim.safe_level!r}), got {args.x0!r}"
        )
    claims = sc.params.lam * sc.sim.horizon   # expected per path; a path settles them one by one
    if not claims <= 1e6:
        raise BadValueError("mc.horizon", f"lambda * mc.horizon must be at most 1e6 claims, got {claims!r}")
    spec = args.strategy
    x = sc.grid.points
    if spec == "optimal":
        strategy = amounts = None
    elif spec == "zero":
        strategy, amounts = 0.0, np.zeros_like(x)
    elif spec.startswith("const:"):
        try:
            strategy = float(spec.split(":", 1)[1])
        except ValueError:
            raise BadValueError("strategy", f"bad constant strategy {spec!r}") from None
        if not math.isfinite(strategy):
            raise BadValueError("strategy", f"constant strategy must be finite, got {spec!r}")
        _refuse_overflow(sc.params, [strategy], f"constant strategy {spec!r}")
        amounts = np.full_like(x, strategy)
    elif spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        xs, vals = _load_strategy_file(path)
        _refuse_overflow(sc.params, [vals.min(), vals.max()], f"strategy file {path!r}")

        def strategy(q):
            return np.interp(q, xs, vals)

        amounts = strategy(x)
    else:
        raise BadValueError(
            "strategy", f"unknown strategy {spec!r}; use optimal, zero, const:<a>, file:<path>"
        )
    vg, _, (level, psi) = _price(sc, args.x0, amounts)
    if strategy is None:
        strategy = StrategyCurve(vg.grid, vg.a_star)
    t0 = time.perf_counter()
    report = estimate_survival(sc.params, sc.dist, strategy, args.x0, replace(sc.sim, safe_level=level))
    elapsed = time.perf_counter() - t0
    doc = asdict(report)
    doc.update(
        {
            "runtime_s": elapsed,
            "x0": args.x0,
            "strategy": spec,
            "dt": sc.sim.dt,
            "horizon": sc.sim.horizon,
            "safe_level": sc.sim.safe_level,
            "absorb_level": level,
            "absorb_psi": psi,
            "master_seed": sc.sim.master_seed,
        }
    )
    _emit(doc)
    return EXIT_OK


_EXAMPLE2_LEGACY = {
    # values printed alongside this parameter set in earlier write-ups; they
    # cannot be reproduced from the stated parameters (the large-surplus pair
    # matches claim mean 2.5, not 2), so they are reported, never asserted
    "a_star_zero": -0.05274736,
    "strategy_slope_zero": -0.01112835,
    "infinity_limit": 0.163580,
    "infinity_coeff": 0.740741,
    "consistent_with_parameters": False,
}


def _run_example(n: int, out_dir: str) -> int:
    _bind("solve", "results", "asymptotics")
    params = example1_params() if n == 1 else example2_params()
    dists = example1_distributions() if n == 1 else example2_distributions()
    grid = Grid.from_xmax(5e-3, 40.0)
    out = _out_dir(out_dir)

    m_exp = dists["exponential"].mean
    doc = {
        "example": n,
        "asymptotes": asdict(asymptote_report(params, claim_mean=m_exp)),
        "claims": {},
    }
    if n == 2:
        doc["legacy_reference_values"] = dict(_EXAMPLE2_LEGACY)

    x = grid.points
    low_mask = x <= 5.0
    high_mask = x >= 5.0
    low_cols = [x[low_mask]]
    high_cols = [x[high_mask]]
    names = []
    for name, dist in dists.items():
        vg = solve_v(params, dist, grid)
        m = dist.exponential_mean
        norm = normalize_delta(vg, claim_mean=m)
        names.append(name)
        low_cols.append(vg.a_star[low_mask])
        high_cols.append(vg.a_star[high_mask])
        entry = {
            "mean": dist.mean,
            "v_prime_zero": float(vg.vprime[0]),
            "a_star_zero": float(vg.a_star[0]),
            "v_inf_hat": norm.v_inf_hat,
            "truncated": norm.truncated,
        }
        if m is not None:
            fit = fit_tail_constant(vg, params, m)
            entry["tail_fit"] = asdict(fit)
        doc["claims"][name] = entry

    header = ["x"] + [f"a_{name}" for name in names]
    low_path = out / f"example{n}_low_surplus.csv"
    high_path = out / f"example{n}_large_surplus.csv"
    _write_csv(low_path, header, low_cols)
    _write_csv(high_path, header, high_cols)
    doc["files"] = {"low_surplus": str(low_path), "large_surplus": str(high_path)}
    _emit(doc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ruinopt",
        description="Ruin-minimizing investment: solvers, asymptotics, simulation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="closed-form constants and regimes")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, help="also write constants.json and a scenario echo")
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("solve", help="solve the value slope and emit CSV + summary")
    p.add_argument("scenario")
    p.add_argument("--mode", choices=["constrained", "unconstrained"], required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("asymptotes", help="closed-form asymptote report")
    p.add_argument("scenario")
    p.set_defaults(fn=_cmd_asymptotes)

    p = sub.add_parser("exp-validate", help="solver strategy vs the feedback ODE")
    p.add_argument("scenario")
    p.set_defaults(fn=_cmd_exp_validate)

    p = sub.add_parser("simulate", help="Monte Carlo survival estimate")
    p.add_argument("scenario")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--strategy", default="optimal")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("example1", help="benchmark 1 end to end")
    p.add_argument("--out", default=".")
    p.set_defaults(fn=lambda a: _run_example(1, a.out))

    p = sub.add_parser("example2", help="benchmark 2 end to end")
    p.add_argument("--out", default=".")
    p.set_defaults(fn=lambda a: _run_example(2, a.out))

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except UnknownKeyError as exc:
        print(f"error: {exc} (key: {exc.key})", file=sys.stderr)
        return EXIT_UNKNOWN_KEY
    except BadValueError as exc:
        print(f"error: {exc} (key: {exc.key})", file=sys.stderr)
        return EXIT_BAD_VALUE
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_VALUE


if __name__ == "__main__":
    sys.exit(main())
