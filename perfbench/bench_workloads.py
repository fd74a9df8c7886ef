"""Benchmark workloads: scenario files made from a seed, CLI ops, checks.

A workload is a list of `ruinopt` CLI invocations (ops) over scenario
files that the workload's function writes.  Benchmark 1 and 2 are the paper's
parameter sets (`example1_params`, `example2_params`), written out here as
literals so the inputs do not depend on the code under test; a test keeps
them equal.  The seed reaches only `mc.seed`: the solver workloads are
deterministic.

Every op has a check that runs outside the timed interval and returns the
accuracy figures the op produced.  A failed check raises `CheckFailed`,
which still carries the figures it could read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH1 = {"mu": 0.42, "r": 0.32, "c": 0.36, "lambda": 0.3, "rho": -0.2, "sigma": 0.1, "sigma1": 0.2}
BENCH2 = {"mu": 0.2, "r": 0.12, "c": 0.5, "lambda": 0.3, "rho": 0.15, "sigma": 0.9, "sigma1": 0.5}
EXP_MEAN1 = {"claim.family": "exponential", "claim.p1": 1.0}   # p1 is the rate
PARETO22 = {"claim.family": "pareto", "claim.p1": 2.0, "claim.p2": 2.0}

H = 5e-3          # grid step of every timed op
H_SMALL = 5e-2    # grid step of the small (warm-up / test) inputs
X0 = 1.0          # initial surplus of the simulations

ODE_TOL = 1e-3    # exp-validate tolerance, acceptance criterion 5
Z_TOL = 4.0       # MC |z| tolerance against an exact or solver reference


class CheckFailed(Exception):
    def __init__(self, message: str, figures: dict | None = None):
        super().__init__(message)
        self.figures = figures


@dataclass(frozen=True)
class Op:
    name: str
    argv: list[str]
    check: Callable[[dict, "Run"], dict]   # (stdout JSON, run) -> accuracy figures
    timed: bool = True


@dataclass
class Run:
    """Inputs of one workload, plus references the checks compare against."""

    ops: list[Op]
    references: dict = field(default_factory=dict)


def scenario_text(values: dict) -> str:
    lines = []
    for key, val in values.items():
        lines.append(f"{key} = {val!r}" if isinstance(val, float) else f"{key} = {val}")
    return "\n".join(lines) + "\n"


def mc_seed(seed: int) -> int:
    """The MC master seed a workload seed maps to (63 bits)."""
    return random.Random(seed).getrandbits(63)


def _write(path: Path, values: dict) -> str:
    path.write_text(scenario_text(values), encoding="utf-8")
    return str(path)


def _solve_csv(out: str, mode: str) -> np.ndarray:
    table = np.loadtxt(Path(out) / f"solve_{mode}.csv", delimiter=",", skiprows=1, ndmin=2)
    # columns x, v, V, delta, a_star, hjb_residual; the residual stencil
    # has no value at the two end nodes, which the CLI writes as nan
    if not (np.all(np.isfinite(table[:, :5])) and np.all(np.isfinite(table[1:-1, 5]))):
        raise CheckFailed(f"non-finite values in {out}/solve_{mode}.csv")
    delta = table[:, 3]
    if not (np.all(delta >= 0.0) and np.all(delta <= 1.0)):
        raise CheckFailed(f"delta outside [0, 1] in {out}/solve_{mode}.csv")
    return table


def _psi_at(table: np.ndarray, x: float) -> float:
    return 1.0 - float(np.interp(x, table[:, 0], table[:, 3]))


def check_solve(mode: str, out: str, reference: str | None = None):
    """Check a solve's CSV; a reference solve also records its survival at X0."""

    def check(doc: dict, run: Run) -> dict:
        table = _solve_csv(out, mode)
        if reference is not None:
            run.references[reference] = 1.0 - _psi_at(table, X0)
        return {"indep_residual": float(doc["residuals"]["independent"]), "psi10": _psi_at(table, 10.0)}

    return check


def check_exp_validate(doc: dict, run: Run) -> dict:
    figures = {"ode_max_rel_dev": float(doc["max_rel_deviation"])}
    if not figures["ode_max_rel_dev"] <= ODE_TOL:
        raise CheckFailed(f"exp-validate max_rel_deviation {figures['ode_max_rel_dev']:.3e} > {ODE_TOL:g}", figures)
    return figures


def check_survival(reference: str):
    def check(doc: dict, run: Run) -> dict:
        target = run.references[reference]
        z = (float(doc["survival"]) - target) / float(doc["stderr"])
        figures = {"z": z, "rel_stderr": float(doc["stderr"]) / float(doc["survival"])}
        if not abs(z) <= Z_TOL:
            raise CheckFailed(f"survival {doc['survival']} is {z:+.2f} stderr from {reference} {target:.6f}", figures)
        return figures

    return check


def _solve_op(name: str, scn: str, mode: str, workdir: Path, reference: str | None = None) -> Op:
    out = str(workdir / name)
    argv = ["solve", scn, "--mode", mode, "--out", out]
    return Op(name, argv, check_solve(mode, out, reference), timed=reference is None)


def bench1_exp(workdir: Path, seed: int, small: bool) -> Run:
    h = H_SMALL if small else H
    scn = _write(workdir / "bench1.scn", {**BENCH1, **EXP_MEAN1, "cap_A": 1.0, "grid.h": h, "grid.xmax": 40.0})
    ops = [
        _solve_op("solve_unc", scn, "unconstrained", workdir),
        _solve_op("solve_con", scn, "constrained", workdir),
        Op("exp_validate", ["exp-validate", scn], check_exp_validate),
    ]
    return Run(ops)


def bench2_heavy(workdir: Path, seed: int, small: bool) -> Run:
    h = H_SMALL if small else H
    base = {**BENCH2, **PARETO22, "cap_A": 1.0, "grid.h": h}
    scn40 = _write(workdir / "bench2-x40.scn", {**base, "grid.xmax": 40.0})
    scn160 = _write(workdir / "bench2-x160.scn", {**base, "grid.xmax": 160.0})
    ops = [
        _solve_op("solve_unc_long", scn160, "unconstrained", workdir),
        _solve_op("solve_unc", scn40, "unconstrained", workdir),
        _solve_op("solve_con", scn40, "constrained", workdir),
    ]
    return Run(ops)


def mc(workdir: Path, seed: int, small: bool) -> Run:
    h = H_SMALL if small else H
    base = {**BENCH1, **EXP_MEAN1, "grid.h": h, "grid.xmax": 40.0, "mc.seed": mc_seed(seed)}
    fine = {"mc.dt": 0.04, "mc.paths": 256} if small else {"mc.dt": 1e-3, "mc.paths": 8192}
    coarse = {"mc.dt": 0.04, "mc.paths": 256 if small else 32768}
    scn_opt = _write(workdir / "mc-optimal.scn", {**base, **fine})
    scn_coarse = _write(workdir / "mc-coarse.scn", {**base, **coarse})
    x0 = repr(X0)
    ops = [
        # untimed: the solver survival simulate_optimal is checked against
        _solve_op("reference_solve", scn_opt, "unconstrained", workdir, reference="solver_delta"),
        Op("simulate_optimal", ["simulate", scn_opt, "--x0", x0, "--strategy", "optimal"],
           check_survival("solver_delta")),
        Op("simulate_coarse", ["simulate", scn_coarse, "--x0", x0, "--strategy", "const:1"],
           check_survival("const_strategy_delta")),
    ]

    # exact survival under the constant strategy a = 1 (linear ODE)
    from ruinopt.exp_ode import solve_linear_const_strategy
    from ruinopt.results import normalize_delta
    from ruinopt.scenario import load_scenario

    sc = load_scenario(scn_coarse)
    norm = normalize_delta(solve_linear_const_strategy(sc.params, 1.0, sc.dist.mean, sc.grid),
                           claim_mean=sc.dist.mean)
    return Run(ops, {"const_strategy_delta": float(norm.delta(X0))})


WORKLOADS = {"bench1-exp": bench1_exp, "bench2-heavy": bench2_heavy, "mc": mc}


def accuracy_metrics(workload: str, figures: dict[str, dict]) -> dict[str, float]:
    """The workload's gated accuracy figures from its ops' check results.

    `indep_residual` is the sup of the O(h^2) generator residual of the
    x_max = 40 unconstrained solve.  `accuracy_err` is the workload's
    headline error: the solver-vs-ODE deviation on bench1-exp, the grid
    truncation error of psi(10) on bench2-heavy, and the relative standard
    error of the coarse MC estimate on mc.
    """
    if workload == "bench1-exp":
        return {"indep_residual": figures["solve_unc"]["indep_residual"],
                "accuracy_err": figures["exp_validate"]["ode_max_rel_dev"]}
    if workload == "bench2-heavy":
        short, long_ = figures["solve_unc"]["psi10"], figures["solve_unc_long"]["psi10"]
        return {"indep_residual": figures["solve_unc"]["indep_residual"],
                "accuracy_err": abs(short - long_) / long_}
    return {"indep_residual": figures["reference_solve"]["indep_residual"],
            "accuracy_err": figures["simulate_coarse"]["rel_stderr"]}
