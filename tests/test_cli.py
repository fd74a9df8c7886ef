"""End-to-end CLI runs, in process: exit codes, JSON, CSV determinism."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ruinopt as ro
from ruinopt import cli, solve
from ruinopt.cli import _price, main
from ruinopt.scenario import parse_scenario
from conftest import NONCONTRACTING, assert_close

# scenarios and the exact stdout their closed-form commands printed when pinned
PINNED = Path(__file__).parent / "pinned"

BASE = """\
mu = 0.42
r = 0.32
c = 0.36
lambda = 0.3            # claim arrival rate
rho = -0.2
sigma = 0.1
sigma1 = 0.2
claim.family = exponential
claim.p1 = 1.0
grid.h = 0.005
grid.xmax = 5.0
mc.dt = 0.01
mc.paths = 100
mc.horizon = 5.0
mc.seed = 12
mc.safe_level = 8.0
"""


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "bench1.txt"
    path.write_text(BASE, encoding="utf-8")
    return path


def run(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors_exit_2():
    for argv in ([], ["frobnicate"], ["solve", "x.txt"], ["simulate", "x.txt"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_missing_scenario_exits_3(capsys, tmp_path):
    code, _, err = run(capsys, ["constants", tmp_path / "absent.txt"])
    assert code == 3
    assert "missing file" in err


@pytest.mark.parametrize("argv", [["solve", "--mode", "unconstrained"], ["simulate", "--x0", "1.0"]])
def test_scenario_path_that_is_a_directory_exits_3(capsys, tmp_path, argv):
    argv = [argv[0], tmp_path, *argv[1:]] + (["--out", tmp_path] if argv[0] == "solve" else [])
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert "missing file" in err and "Is a directory" in err


@pytest.mark.parametrize("argv", [["solve", "{scn}", "--mode", "unconstrained"], ["constants", "{scn}"],
                                  ["example1"], ["example2"]])
@pytest.mark.parametrize("out_dir", ["file", "file/sub"])
def test_out_that_is_a_file_exits_2_and_names_out(capsys, scenario_file, tmp_path, argv, out_dir):
    (tmp_path / "file").write_text("", encoding="utf-8")
    code, out, err = run(capsys, [a.format(scn=scenario_file) for a in argv] + ["--out", tmp_path / out_dir])
    assert code == 2 and out == ""
    assert err.startswith("error: --out ") and "is not a directory" in err, err


def test_scenario_that_is_not_utf8_names_its_line(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    for text, line in ((b"mu = 0.42\xff\n", 1), (b"r = 0.32\r\n# comment\r\nmu = 0.42\xff\n", 3)):
        path.write_bytes(text + BASE.replace("mu = 0.42\n", "").encode("utf-8"))
        code, _, err = run(capsys, ["constants", path])
        assert code == 4
        assert err.rstrip().endswith(f"(key: line {line})"), err


def test_bad_value_exits_4_and_names_key(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(BASE.replace("sigma = 0.1", "sigma = -1.0"), encoding="utf-8")
    code, _, err = run(capsys, ["constants", path])
    assert code == 4
    assert "key: sigma" in err

    path.write_text(BASE.replace("sigma = 0.1", "sigma = oops"), encoding="utf-8")
    code, _, err = run(capsys, ["constants", path])
    assert code == 4
    assert "key: sigma" in err

    path.write_text(BASE.replace("mu = 0.42\n", ""), encoding="utf-8")
    code, _, err = run(capsys, ["constants", path])
    assert code == 4
    assert "mu" in err

    path.write_text(BASE + "just a stray line\n", encoding="utf-8")
    code, _, err = run(capsys, ["constants", path])
    assert code == 4

    path.write_text(BASE.replace("exponential", "cauchy"), encoding="utf-8")
    code, _, err = run(capsys, ["constants", path])
    assert code == 4
    assert "key: claim.family" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("mc.paths", "0"),
        ("mc.horizon", "-1"),
        ("mc.safe_level", "-1"),
        ("mc.seed", "-1"),
        ("grid.h", "0"),
        ("grid.h", "1e-310"),    # x_max / h overflows
        ("grid.h", "1e-12"),     # n = 4e13 + 1, above the node limit
        ("grid.xmax", "-1"),
        ("claim.p1", "-1"),
        ("claim.p2", "1"),
        ("mu", "-1"),
        ("r", "0"),
        ("c", "inf"),
        ("lambda", "-1"),        # the model field is lam
        ("rho", "1"),
        ("sigma", "0"),
        ("sigma1", "-0.5"),
        ("cap_A", "-1"),         # the model field is cap
        ("mc.dt", "0"),
        ("mc.dt", "300"),        # longer than mc.horizon = 5
        ("mc.dt", "1e-310"),     # mc.horizon / dt overflows
        ("mc.dt", "0.01\nmc.horizon = 1e308"),   # so does 1e308 / dt, which names dt
        ("mc.paths", "1.5"),
        ("mc.seed", "18446744073709551616"),   # 2^64
        ("grid.xmax", "0.001"),  # shorter than half a step: n = 1
        # a square out of the normal range: sigma^2 and sigma_rho^2 are
        # divisors and underflow to 0; cap^2 and the node's squares of mu
        # and lambda overflow
        ("sigma", "1e-200"),
        ("sigma1", "1e-200"),
        ("cap_A", "1e300"),
        ("mu", "1e300"),
        ("lambda", "1e300"),
        # a claim law with no finite mean: 1/k, Gamma(1001), u Gamma(11),
        # e^(v^2/2), e^u and u / (v - 1) overflow
        ("claim.p1", "1e-320"),
        ("claim.p2", "0.001\nclaim.family = weibull"),
        ("claim.p1", "1e308\nclaim.p2 = 0.1\nclaim.family = weibull"),
        ("claim.p2", "1000\nclaim.p1 = -0.5\nclaim.family = log_normal"),
        ("claim.p1", "1000\nclaim.p2 = 1\nclaim.family = log_normal"),
        ("claim.p1", "1e300\nclaim.p2 = 1.0000000000000002\nclaim.family = pareto"),
    ],
)
def test_bad_setting_names_its_key(capsys, tmp_path, key, value):
    path = tmp_path / "bad.txt"
    path.write_text(BASE + f"{key} = {value}\n", encoding="utf-8")
    code, _, err = run(capsys, ["constants", path])
    assert code == 4
    assert err.rstrip().endswith(f"(key: {key})"), err


def test_unknown_key_exits_5(capsys, tmp_path):
    path = tmp_path / "typo.txt"
    path.write_text(BASE + "capA = 1.0\n", encoding="utf-8")
    code, _, err = run(capsys, ["constants", path])
    assert code == 5
    assert "capA" in err


def test_constants_json_and_echo_round_trip(capsys, tmp_path):
    path = tmp_path / "bench1.txt"
    path.write_text(BASE + "cap_A = 1.0\n", encoding="utf-8")
    d1, d2 = tmp_path / "d1", tmp_path / "d2"

    code, out, _ = run(capsys, ["constants", path, "--out", d1])
    assert code == 0
    doc = json.loads(out)
    assert_close(doc["constants"]["B"], 22.016175755895873, 1e-8, "B")
    assert_close(doc["constants"]["a_star_zero"], 0.8542114902640175, 1e-8, "a*(0)")
    assert doc["regimes"]["zero_surplus"]["regime"] == "interior"
    assert doc["regimes"]["large_surplus"]["regime"] == "full_cap"

    # parsing the echoed scenario must reproduce constants.json byte for byte
    echo = (d1 / "scenario_echo.txt").read_text(encoding="utf-8")
    path2 = tmp_path / "echoed.txt"
    path2.write_text(echo, encoding="utf-8")
    code, _, _ = run(capsys, ["constants", path2, "--out", d2])
    assert code == 0
    assert (d1 / "constants.json").read_bytes() == (d2 / "constants.json").read_bytes()


ALL_KEYS = """\
mc.safe_level = 9     # every key, out of the echo's order
mc.seed = 18446744073709551615
mc.horizon = 6
mc.paths = 100000
mc.dt = 1e-3
grid.xmax = 12.5
grid.h = 0.0025
claim.p2 = 0.5
claim.p1 = 1
claim.family = weibull
cap_A = 1.5
sigma1 = 0.2
sigma = 0.1
rho = -0.2
lambda = 0.3
c = 0.36
r = 0.32
mu = 0.40
mu = 0.42             # a later duplicate wins
"""

ALL_KEYS_ECHO = """\
mu = 0.42
r = 0.32
c = 0.36
lambda = 0.3
rho = -0.2
sigma = 0.1
sigma1 = 0.2
cap_A = 1.5
claim.family = weibull
claim.p1 = 1.0
claim.p2 = 0.5
grid.h = 0.0025
grid.xmax = 12.5
mc.dt = 0.001
mc.paths = 100000
mc.horizon = 6.0
mc.seed = 18446744073709551615
mc.safe_level = 9.0
"""


def test_scenario_echo_pinned(capsys, tmp_path):
    # all 18 keys: the echo writes them in one fixed order, floats by repr
    path = tmp_path / "all.txt"
    path.write_text(ALL_KEYS, encoding="utf-8")
    code, _, err = run(capsys, ["constants", path, "--out", tmp_path / "o"])
    assert code == 0, err
    assert (tmp_path / "o" / "scenario_echo.txt").read_bytes() == ALL_KEYS_ECHO.encode("utf-8")


def test_constants_without_cap_has_no_regimes(capsys, scenario_file):
    code, out, _ = run(capsys, ["constants", scenario_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["regimes"] == {}
    assert doc["constants"]["rho2"] is None


def test_solve_unconstrained_csv_deterministic(capsys, scenario_file, tmp_path):
    outs = []
    for d in ("s1", "s2"):
        code, out, _ = run(
            capsys, ["solve", scenario_file, "--mode", "unconstrained", "--out", tmp_path / d]
        )
        assert code == 0
        outs.append(json.loads(out))
    doc = outs[0]
    assert_close(doc["a_star_zero"], 0.8542114902640175, 1e-8, "a*(0)")
    assert_close(doc["v_prime_zero"], -22.016175755895873, 1e-8, "v'(0)")
    assert doc["residuals"]["fixed_point"] <= 1e-6
    assert doc["residuals"]["independent"] <= 5e-3 * 0.3
    assert "node_evals" not in doc
    assert not doc["normalization"]["truncated"]

    csv1 = (tmp_path / "s1" / "solve_unconstrained.csv").read_bytes()
    csv2 = (tmp_path / "s2" / "solve_unconstrained.csv").read_bytes()
    assert csv1 == csv2
    header = csv1.decode().splitlines()[0]
    assert header == "x,v,V,delta,a_star,hjb_residual"


def test_solve_on_a_grid_too_short_for_the_tail_fit_names_key(capsys, tmp_path):
    # exponential claims, unrestricted: the tail-fit window [0.0075, 0.01] holds one node
    path = tmp_path / "short.txt"
    path.write_text(BASE.replace("grid.xmax = 5.0", "grid.xmax = 0.01"), encoding="utf-8")
    code, _, err = run(capsys, ["solve", path, "--mode", "unconstrained", "--out", tmp_path / "o"])
    assert code == 4
    assert err.rstrip().endswith("(key: grid.xmax)"), err
    assert not (tmp_path / "o" / "solve_unconstrained.csv").exists()


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


# bench 1 with log-normal(5.51, 1) claims and r = 1.02e-3: v does not decay
# on the grid, so V(inf) and the tail remainder are infinite
STILL_LOG_NORMAL = BASE.replace("r = 0.32", "r = 1.02e-3").replace(
    "claim.family = exponential\nclaim.p1 = 1.0", "claim.family = log_normal\nclaim.p1 = 5.51\nclaim.p2 = 1"
) + "cap_A = 1.0\n"
# bench 1 with a vanishing claim rate and a vanishing exponential rate
# claim.p1 (mean 1.7e173): a~1 and the 1/x coefficient of the large-surplus
# series overflow to -inf
VANISHING_CLAIMS = BASE.replace("lambda = 0.3 ", "lambda = 1.03e-156 ").replace("claim.p1 = 1.0", "claim.p1 = 5.85e-174")


def test_solve_prints_an_infinite_v_inf_as_null(capsys, tmp_path):
    path = tmp_path / "still.txt"
    path.write_text(STILL_LOG_NORMAL, encoding="utf-8")
    code, out, err = run(capsys, ["solve", path, "--mode", "constrained", "--out", tmp_path])
    assert code == 0, err
    norm = _strict_json(out)["normalization"]
    assert norm["v_inf_hat"] is norm["tail_remainder"] is None and norm["truncated"]


def test_constants_print_an_infinite_constant_as_null(capsys, tmp_path):
    path = tmp_path / "vanishing.txt"
    path.write_text(VANISHING_CLAIMS, encoding="utf-8")
    code, out, err = run(capsys, ["constants", path, "--out", tmp_path / "c"])
    assert code == 0, err
    for text in (out, (tmp_path / "c" / "constants.json").read_text(encoding="utf-8")):
        assert _strict_json(text)["constants"]["a_tilde1"] is None


def test_asymptotes_print_an_infinite_coefficient_as_null(capsys, tmp_path):
    path = tmp_path / "vanishing.txt"
    path.write_text(VANISHING_CLAIMS, encoding="utf-8")
    code, out, err = run(capsys, ["asymptotes", path])
    assert code == 0, err
    assert _strict_json(out)["infinity_coeff"] is None


# the pinned scenarios on which exp-validate refuses, and the key it names
EXP_VALIDATE_REFUSES = {"bench1_log_normal": "claim.family", "bench2_pareto": "claim.family",
                        "bench2_weibull": "claim.family", "bench2_exp_mu_r_rho0": "mu",
                        "bench2_exp_mu_r_rho015": "mu"}


@pytest.mark.parametrize("name", sorted(p.stem for p in PINNED.glob("*.scn")))
def test_every_json_output_is_strict(capsys, tmp_path, name):
    # 128 paths, below mc._MIN_SHARE, so simulate forks no worker; mc.dt and
    # mc.horizon cap a path at 500 steps
    path = tmp_path / f"{name}.scn"
    path.write_text((PINNED / f"{name}.scn").read_text(encoding="utf-8")
                    + "mc.paths = 128\nmc.dt = 0.01\nmc.horizon = 5\n", encoding="utf-8")
    for argv in (["constants"], ["asymptotes"], ["solve", "--mode", "unconstrained", "--out", tmp_path],
                 ["solve", "--mode", "constrained", "--out", tmp_path], ["exp-validate"],
                 ["simulate", "--x0", "1.0", "--strategy", "optimal"]):
        code, out, err = run(capsys, [argv[0], path, *argv[1:]])
        if argv[0] == "exp-validate" and name in EXP_VALIDATE_REFUSES:
            assert code == 4 and out == "" and err.rstrip().endswith(f"(key: {EXP_VALIDATE_REFUSES[name]})"), err
        else:
            assert code == 0, (argv, err)
            _strict_json(out)


@pytest.mark.parametrize("setting", ["lambda = 1e20", "r = 1e-200"], ids=["lambda", "r"])
def test_tail_numbers_out_of_float_range_print_null(capsys, tmp_path, setting):
    # a huge lam/r puts the compensated product x^{1 - lam/r} past the float
    # range: the ratio and constants print null, the flatness is judged on
    # the logs, and nothing warns
    path = tmp_path / "huge.txt"
    key = setting.split()[0]
    path.write_text("".join(setting + "\n" if line.startswith(key + " ") else line + "\n"
                            for line in BASE.splitlines()), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["solve", path, "--mode", "unconstrained", "--out", tmp_path])
        assert code == 0 and err == ""
        fit = _strict_json(out)["tail_fit"]
        assert fit["plateau_ratio"] is fit["K_vprime"] is fit["K1_ruin"] is None and fit["ok"] is False
        code, out, err = run(capsys, ["exp-validate", path])
        assert code == 0 and err == ""
        assert _strict_json(out)["reconstructed_tail_plateau_ratio"] is None


def test_import_leaves_scipy_integrate_out():
    # no scipy module at all: scipy.special loads only with the laws that use it
    code = "import sys, ruinopt.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# claim laws whose every subcommand runs without scipy
SCIPY_FREE_LAWS = {
    "exponential": "claim.family = exponential\nclaim.p1 = 1.0\n",
    "weibull": "claim.family = weibull\nclaim.p1 = 1.0\nclaim.p2 = 0.5\n",
    "pareto": "claim.family = pareto\nclaim.p1 = 2.0\nclaim.p2 = 2.0\n",
}


def _scipy_modules_after(runs):
    """Exit codes of `main` on each argv of `runs`, all in one fresh process,
    and the scipy modules loaded when they are done."""
    code = (
        "import contextlib, io, json, sys\n"
        "from ruinopt.cli import main\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    argv = json.dumps([[str(a) for a in run] for run in runs])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code, argv], env=env, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("family", sorted(SCIPY_FREE_LAWS))
def test_subcommands_leave_scipy_out(tmp_path, family):
    # every subcommand a small scenario with this law runs, in one fresh process
    path = tmp_path / "capped.txt"
    law = SCIPY_FREE_LAWS[family]
    path.write_text(BASE.replace(SCIPY_FREE_LAWS["exponential"], law) + "cap_A = 1.0\n", encoding="utf-8")
    runs = [
        ["constants", path], ["asymptotes", path],
        ["solve", path, "--mode", "unconstrained", "--out", tmp_path],
        ["solve", path, "--mode", "constrained", "--out", tmp_path],
        ["simulate", path, "--x0", "1.0", "--strategy", "optimal"],
    ]
    if family == "exponential":
        runs.append(["exp-validate", path])
    assert _scipy_modules_after(runs) == [[0] * len(runs), []]


def test_example2_leaves_scipy_out(tmp_path):
    # benchmark 2 runs exponential, Weibull and Pareto claims
    assert _scipy_modules_after([["example2", "--out", tmp_path]]) == [[0], []]


def test_import_leaves_scipy_linalg_signal_fft_out():
    # the convolution kernel is numpy-only; none of these may load at startup
    code = (
        "import sys, ruinopt.cli; "
        "print([m for m in ('scipy.linalg', 'scipy.signal', 'scipy.fft') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# the modules that only some commands load (ruinopt.cli's docstring)
COMMAND_MODULES = ("ruinopt.asymptotics", "ruinopt.exp_ode", "ruinopt.mc", "ruinopt.results", "ruinopt.solve",
                   "numpy.random")


def _fresh(code, *args):
    """The JSON that `code` prints last, run in a fresh interpreter with
    args in sys.argv[1:]."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_ruinopt_loads_no_submodule():
    code = "import json, sys, ruinopt\nprint(json.dumps([m for m in sys.modules if m.startswith('ruinopt.')]))"
    assert _fresh(code) == []


def test_cli_and_scenarios_leave_the_command_modules_out():
    # what perfbench's set-up probe loads: the CLI and the scenario files.
    # The log-normal law is built with scipy.special, which imports
    # numpy.random itself, so it is loaded last
    paths = sorted(PINNED.glob("*.scn"), key=lambda path: ("log_normal" in path.stem, path.stem))
    code = (
        "import json, sys, ruinopt.cli\n"
        "from ruinopt.scenario import load_scenario\n"
        "out = []\n"
        "for path in sys.argv[1:]:\n"
        "    load_scenario(path)\n"
        f"    out.append([m for m in {COMMAND_MODULES!r} if m in sys.modules])\n"
        "print(json.dumps(out))"
    )
    assert paths[-1].stem == "bench1_log_normal"
    assert _fresh(code, *paths) == [[]] * (len(paths) - 1) + [["numpy.random"]]


@pytest.mark.parametrize("argv, absent", [
    (["constants"], COMMAND_MODULES),
    (["solve", "--mode", "unconstrained"], ("ruinopt.exp_ode", "ruinopt.mc", "numpy.random")),
    (["solve", "--mode", "constrained"], ("ruinopt.exp_ode", "ruinopt.mc", "numpy.random")),
    (["exp-validate"], ("ruinopt.mc", "numpy.random")),
], ids=["constants", "solve-unconstrained", "solve-constrained", "exp-validate"])
def test_commands_leave_out_the_modules_they_do_not_use(tmp_path, argv, absent):
    path = tmp_path / "capped.txt"
    path.write_text(BASE + "cap_A = 1.0\n", encoding="utf-8")
    argv = [argv[0], path, *argv[1:], *(["--out", tmp_path] if argv[0] == "solve" else [])]
    code = (
        "import contextlib, io, json, sys\n"
        "from ruinopt.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        f"print(json.dumps([code, [m for m in {absent!r} if m in sys.modules]]))"
    )
    assert _fresh(code, *argv) == [0, []]


def test_deferred_names_resolve_on_cli_before_any_command():
    # perfbench's tracer and the tests read these on cli; a read binds the
    # name in cli's namespace, where the tracer looks for what to wrap
    code = (
        "import importlib, json, ruinopt.cli as cli\n"
        "bound = [name for name in cli._MODULE_OF if name in vars(cli)]\n"
        "out = {}\n"
        "for name, module in cli._MODULE_OF.items():\n"
        "    same = getattr(cli, name) is getattr(importlib.import_module('ruinopt.' + module), name)\n"
        "    out[name] = [same, name in vars(cli)]\n"
        "print(json.dumps([bound, out]))"
    )
    bound, out = _fresh(code)
    assert bound == []
    assert {"estimate_survival", "MIN_PATHS", "solve_v", "evaluate_policy", "hjb_residual", "normalize_delta",
            "solve_a_tilde", "asymptote_report", "fit_tail_constant"} <= set(out)
    assert {name: flags for name, flags in out.items() if flags != [True, True]} == {}
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


def test_a_patch_on_cli_outlives_the_first_binding(tmp_path):
    # a results name set on cli before any command ran is the one solve
    # calls; the binding fills in only the names still missing
    path = tmp_path / "bench1.txt"
    path.write_text(BASE, encoding="utf-8")
    code = (
        "import contextlib, io, json, sys, ruinopt.cli as cli\n"
        "calls = []\n"
        "def spy(*args):\n"
        "    from ruinopt.results import hjb_residual\n"
        "    calls.append(1)\n"
        "    return hjb_residual(*args)\n"
        "cli.hjb_residual = spy\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, len(calls), cli.hjb_residual is spy]))"
    )
    assert _fresh(code, "solve", path, "--mode", "unconstrained", "--out", tmp_path) == [0, 1, True]


@pytest.mark.parametrize("mode", ["unconstrained", "constrained"])
def test_solve_reports_one_residual_certificate(capsys, tmp_path, mode):
    # both modes print the same six residual keys, and the v'(0) the
    # certificate recomputes is the closed form's
    path = tmp_path / "capped.txt"
    path.write_text(BASE + "cap_A = 1.0\n", encoding="utf-8")
    code, out, err = run(capsys, ["solve", path, "--mode", mode, "--out", tmp_path])
    assert code == 0, err
    res = json.loads(out)["residuals"]
    assert sorted(res) == ["fixed_point", "fixed_point_at", "independent", "independent_at",
                           "relative", "relative_at"]
    assert res["fixed_point"] <= 1e-13


def test_delta_slope_zero_is_null_when_v_inf_is_unknown(capsys, tmp_path):
    # v still rises over the last tenth of this capped grid, so V(inf) is
    # not estimated: delta'(0) = 1 / V(inf) is unknown, not 0, and so is
    # the CSV's delta, not 0 (certain ruin) at every node
    path = tmp_path / "rising.txt"
    path.write_text(
        "c = 0.3148\nr = 0.1221\nmu = 0.1221\nsigma = 0.2587\nsigma1 = 0.3125\nrho = 0\n"
        "lambda = 0.7316\ncap_A = 2.573\nclaim.family = weibull\nclaim.p1 = 1.794\nclaim.p2 = 1.0\n"
        "grid.xmax = 2\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, ["solve", path, "--mode", "constrained", "--out", tmp_path])
    assert code == 0, err
    norm = _strict_json(out)["normalization"]
    assert norm["v_inf_hat"] is None and norm["truncated"]
    assert norm["delta_slope_zero"] is None
    table = np.loadtxt(tmp_path / "solve_constrained.csv", delimiter=",", skiprows=1)
    assert table.shape == (401, 6) and np.all(np.isnan(table[:, 3]))


def test_every_exported_name_resolves():
    # a name left in __all__ after its object moved breaks `import *`
    import importlib
    import pkgutil

    modules = [ro] + [importlib.import_module(f"ruinopt.{m.name}") for m in pkgutil.iter_modules(ro.__path__)]
    assert len(modules) >= 11
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_solve_constrained_needs_cap(capsys, scenario_file, tmp_path):
    code, _, err = run(
        capsys, ["solve", scenario_file, "--mode", "constrained", "--out", tmp_path / "c"]
    )
    assert code == 4
    assert "cap_A" in err


def test_solve_constrained_respects_cap(capsys, tmp_path):
    path = tmp_path / "capped.txt"
    path.write_text(BASE + "cap_A = 1.0\n", encoding="utf-8")
    code, out, _ = run(capsys, ["solve", path, "--mode", "constrained", "--out", tmp_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["residuals"]["fixed_point"] <= 1e-8
    lines = (tmp_path / "solve_constrained.csv").read_text().splitlines()
    a_col = [float(row.split(",")[4]) for row in lines[1:]]
    assert all(0.0 <= a <= 1.0 for a in a_col)
    assert a_col[-1] == 1.0  # cap binds by the end of the grid


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--mode", "unconstrained"],
        ["solve", "--mode", "constrained"],
        ["exp-validate"],
        ["simulate", "--x0", "1.0", "--strategy", "optimal"],
    ],
)
def test_too_coarse_grid_names_grid_h(capsys, tmp_path, argv):
    # h = 0.9 exceeds 2 / |v'(0)| (about 0.09 on benchmark 1), so the
    # trapezoid anchor of the first node goes negative in both marches
    path = tmp_path / "coarse.txt"
    path.write_text(BASE.replace("grid.h = 0.005", "grid.h = 0.9") + "cap_A = 1.0\n", encoding="utf-8")
    argv = [argv[0], path, *argv[1:]] + (["--out", tmp_path] if argv[0] == "solve" else [])
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert "x=0.9" in err
    assert err.rstrip().endswith("(key: grid.h)"), err


def test_write_csv_matches_per_row_format(tmp_path):
    # the oracle: each row formatted on its own with str.format
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-300, 1e16, 123456789.5, 0.1]
    rng = np.random.default_rng(5)
    for rows in (2, 2049):   # 2049 is not a multiple of the 1024-row block
        columns = [np.resize(special, rows), rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows),
                   np.roll(np.resize(special, rows), 1)]
        path = tmp_path / f"t{rows}.csv"
        cli._write_csv(path, ["a", "b", "c"], columns)
        want = "a,b,c\n" + "".join(
            ",".join("{:.9g}".format(float(col[i])) for col in columns) + "\n" for i in range(rows)
        )
        assert path.read_text(encoding="utf-8") == want


def _certificate(sc):
    """The scenario grid's solve, its normalisation, and SE/100 for sc.sim's paths from x0 = 1."""
    vg = ro.solve_v(sc.params, sc.dist, sc.grid)
    norm = ro.normalize_delta(vg, claim_mean=1.0)
    d = norm.delta(1.0)
    return vg, norm, math.sqrt(d * (1.0 - d) / sc.sim.n_paths) / 100.0


@pytest.mark.parametrize("capped, safe", [(True, "8.0"), (False, "8.0"), (False, "4.0")])
def test_optimal_strategy_is_the_solve_out_to_the_safe_level(capped, safe):
    # 100 paths from x0 = 1: SE/100 is about 3e-4, and on grid.xmax = 5 psi
    # stays above it (psi(5) is about 2e-3), so no level is certified and
    # the paths run to the safe level.  Against a safe level of 8 the curve
    # is the solve on a grid of the same step out to 8, whose first nodes
    # are the scenario grid's own solve, bit for bit (the march is causal);
    # against 4 it is the scenario grid's solve
    extra = "cap_A = 1.0\n" if capped else ""
    sc = parse_scenario(BASE.replace("mc.safe_level = 8.0", f"mc.safe_level = {safe}") + extra)
    strat, norm, (level, psi) = _price(sc, 1.0)
    vg, ref, bound = _certificate(sc)
    assert level == sc.sim.safe_level and psi is None
    assert np.all(ref.psi.values[sc.grid.points > 1.0] > bound)
    assert np.array_equal(norm.psi.values, ref.psi.values)
    assert strat.grid.h == sc.grid.h and strat.grid.x_max >= sc.sim.safe_level
    if safe == "4.0":
        assert strat.grid == sc.grid
    else:   # its last node is the first at or past the safe level
        assert strat.grid.x_max < sc.sim.safe_level + sc.grid.h
    assert np.array_equal(strat.a_star[:sc.grid.n], vg.a_star)
    if capped:
        assert np.all((strat.a_star >= 0.0) & (strat.a_star <= sc.params.cap))


@pytest.mark.parametrize("capped", [True, False])
def test_optimal_strategy_stops_at_the_certified_level(capped):
    # grid.xmax = 10 certifies a level below 7 for 100 paths from x0 = 1:
    # the level is the scenario grid's, and the curve, solved out to the
    # safe level, is that grid's solve on its first nodes, bit for bit
    text = BASE.replace("mc.safe_level = 8.0", "mc.safe_level = 60.0").replace("grid.xmax = 5.0", "grid.xmax = 10.0")
    sc = parse_scenario(text + ("cap_A = 1.0\n" if capped else ""))
    strat, norm, (level, psi) = _price(sc, 1.0)
    vg, ref, bound = _certificate(sc)
    assert strat.grid.x_max >= sc.sim.safe_level
    for got, want in [(strat.v, vg.v), (strat.V, vg.V), (strat.vprime, vg.vprime), (strat.a_star, vg.a_star)]:
        assert np.array_equal(got[:sc.grid.n], want)
    assert np.array_equal(norm.psi.values, ref.psi.values)
    assert 1.0 < level < 7.0
    assert psi == ref.psi(level) <= bound < ref.psi(level - sc.grid.h)


@pytest.mark.parametrize(
    "capped, expected",
    [
        (False, ro.SimReport(
            survival=0.90576171875, stderr=0.004564998983782475,
            ci95=(0.8968143207417864, 0.9147091167582136), n_paths=4096, n_ruined=386,
            n_safe=3710, n_horizon=0, mean_ruin_time=0.9056541611720698)),
        (True, ro.SimReport(
            survival=0.851318359375, stderr=0.005558974707299986,
            ci95=(0.8404227689486921, 0.8622139498013079), n_paths=4096, n_ruined=609,
            n_safe=3487, n_horizon=0, mean_ruin_time=1.4097270552741097)),
    ],
)
def test_optimal_strategy_reports_pinned(capped, expected):
    # grid.xmax = 5 against a safe level of 60: the paths climb through
    # (5, 60), which the strategy must cover.  Reports recorded when a* was
    # continued past the grid by its large-surplus expansion, held to
    # [0, cap]; 4096 paths run in forked shares
    text = BASE.replace("mc.paths = 100", "mc.paths = 4096").replace("mc.horizon = 5.0", "mc.horizon = 30.0")
    text = text.replace("mc.safe_level = 8.0", "mc.safe_level = 60.0")
    sc = parse_scenario(text + ("cap_A = 1.0\n" if capped else ""))
    assert sc.grid.x_max == 5.0
    vg, _, (level, psi) = _price(sc, 1.0)
    assert level == 60.0 and psi is None   # psi(5) is far above SE/100
    strategy = ro.SampledFn(grid=vg.grid, values=vg.a_star)
    assert ro.estimate_survival(sc.params, sc.dist, strategy, 1.0, sc.sim) == expected


def test_asymptotes_report(capsys, scenario_file):
    code, out, _ = run(capsys, ["asymptotes", scenario_file])
    assert code == 0
    doc = json.loads(out)
    assert_close(doc["strategy_slope_zero"], 0.020394697973225462, 1e-8, "slope")
    assert_close(doc["infinity_limit"], 10.4, 1e-8, "limit")
    assert_close(doc["infinity_coeff"], -0.625, 1e-8, "coeff")
    assert "K1_ruin" not in doc and "delta_slope_zero" not in doc


@pytest.mark.parametrize("command", ["constants", "asymptotes"])
@pytest.mark.parametrize("name", ["bench1", "bench2_pareto", "bench2_exp"])
def test_closed_form_output_pinned(capsys, command, name):
    # scalar float arithmetic only, so the text does not depend on BLAS or CPU
    code, out, _ = run(capsys, [command, PINNED / f"{name}.scn"])
    assert code == 0
    assert out == (PINNED / f"{name}.{command}.json").read_text(encoding="utf-8")


SOLVE_GRID = "grid.h = 0.01\ngrid.xmax = 40.0\n"


def _solve_digests(capsys, tmp_path, name, mode):
    """sha256 of the solve CSV and of its JSON less runtime_s and csv."""
    path = tmp_path / f"{name}.scn"
    path.write_text((PINNED / f"{name}.scn").read_text(encoding="utf-8") + SOLVE_GRID, encoding="utf-8")
    code, out, err = run(capsys, ["solve", path, "--mode", mode, "--out", tmp_path])
    assert code == 0, err
    doc = json.loads(out)
    del doc["runtime_s"], doc["csv"]
    return {
        "csv": hashlib.sha256((tmp_path / f"solve_{mode}.csv").read_bytes()).hexdigest(),
        "json": hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest(),
    }


@pytest.mark.parametrize("mode", ["unconstrained", "constrained"])
@pytest.mark.parametrize("name", ["bench1", "bench2_pareto", "bench2_weibull", "bench1_log_normal",
                                  "bench2_exp_mu_r_rho0", "bench2_exp_mu_r_rho015"])
def test_solve_output_pinned(capsys, tmp_path, name, mode):
    # the solves must keep their bytes through any speed-up that keeps the
    # arithmetic.  Five changes moved them on purpose: carrying the far
    # history of exponential and Pareto claims as an exponential sum moved
    # the Pareto CSVs' residual column in its ninth digit on 7 rows;
    # certifying the unrestricted solve by the HJB's own minimum renamed its
    # JSON residual self_consistency to fixed_point, CSVs unchanged;
    # carrying the exponential claims' whole history as one decaying state
    # moved the three exponential scenarios' residual column in its ninth
    # digit on 3 to 156 of 4,001 rows, every other column and the JSON
    # unchanged; taking the certificate's M(V) as the tail convolution
    # of v for every law, not V less its density convolution, moved the
    # residual column on 3,999 of 4,001 rows and residuals.independent of
    # every scenario but Weibull(1, 0.5), which already took the tail form
    # (independent_at and every other column and field unchanged); and
    # adding residuals.relative and relative_at moved every JSON digest,
    # each JSON less those two keys hashing to its digest before (CSVs
    # unchanged).  The
    # Weibull(1, 0.5) and log-normal(-0.5, 1) laws have no exponential
    # sum, so their solves pin the march's whole-history path.  The
    # mu = r scenarios pin a* without an excess return: the hedge alone, a
    # -0 column at rho = 0 in the unrestricted CSV.  The sums run through
    # numpy's dot and BLAS matmul, so the digests hold for one numpy build
    # on one CPU family
    pinned = json.loads((PINNED / "solve.sha256.json").read_text(encoding="utf-8"))
    assert _solve_digests(capsys, tmp_path, name, mode) == pinned[f"{name}.{mode}"]


def _half_normal_bench2(capped=True):
    """Benchmark 2 with half-normal(1) claims, capped unless capped is False."""
    text = (PINNED / "bench2_exp.scn").read_text(encoding="utf-8")
    text = text.replace("claim.family = exponential\nclaim.p1 = 0.5", "claim.family = half_normal\nclaim.p1 = 1.0")
    return text if capped else text.replace("cap_A = 1.0\n", "")


@pytest.mark.parametrize("mode, x", [("unconstrained", "136.185"), ("constrained", "251.535")])
def test_underflowing_v_names_grid_xmax(capsys, tmp_path, mode, x):
    # benchmark 2 with half-normal(1) claims: v leaves the normal range near
    # x = 252, so a grid to 300 is refused at the first such node.  The
    # unrestricted node squares v first: its C = -(kappa alpha)^2 / 2 leaves
    # the normal range at x = 136.185, where the node is refused
    path = tmp_path / "far.scn"
    path.write_text(_half_normal_bench2() + "grid.h = 0.005\ngrid.xmax = 300\n", encoding="utf-8")
    code, _, err = run(capsys, ["solve", path, "--mode", mode, "--out", tmp_path])
    assert code == 4
    assert f"at x={x};" in err and err.rstrip().endswith("(key: grid.xmax)"), err


def test_underflowing_node_names_grid_xmax(capsys, tmp_path):
    # benchmark 1 with exponential claims on a grid to 400: the unrestricted
    # node's squares leave the normal range at x = 348.23, where the node
    # used to divide by a y that had underflowed to 0
    path = _bench1_exp(tmp_path, 400)
    code, _, err = run(capsys, ["solve", path, "--mode", "unconstrained", "--out", tmp_path])
    assert code == 4
    assert "at x=348.23;" in err and err.rstrip().endswith("(key: grid.xmax)"), err


@pytest.mark.parametrize("capped, x", [(False, "136.185"), (True, "251.535")])
def test_underflowing_strategy_names_mc_safe_level(capsys, tmp_path, capped, x):
    # the same law on a grid to 2, too short to certify an absorption
    # level: the optimal strategy is solved out to the safe level, 300, so
    # that setting made the grid too long
    path = tmp_path / "far.scn"
    sim = "mc.paths = 100\nmc.dt = 0.01\nmc.horizon = 1.0\nmc.safe_level = 300\n"
    path.write_text(_half_normal_bench2(capped) + "grid.h = 0.005\ngrid.xmax = 2\n" + sim, encoding="utf-8")
    code, _, err = run(capsys, ["simulate", path, "--x0", "1.0", "--strategy", "optimal"])
    assert code == 4
    assert f"at x={x};" in err and err.rstrip().endswith("(key: mc.safe_level)"), err


@pytest.mark.parametrize("xmax, key", [("10", "mc.safe_level"), ("150", "grid.xmax")])
def test_certified_strategy_is_still_solved_to_the_safe_level(capsys, tmp_path, xmax, key):
    # a grid to 10 certifies an absorption level, yet the optimal strategy
    # is solved out to the safe level, 200, past the node the unrestricted
    # march refuses (x = 136.185): mc.safe_level made the grid too long.
    # A grid to 150 reaches that node itself, so grid.xmax is the setting
    # to change, whatever the safe level
    path = tmp_path / "far.scn"
    text = _half_normal_bench2(False) + f"grid.h = 0.005\ngrid.xmax = {xmax}\n"
    text += "mc.paths = 100\nmc.dt = 0.01\nmc.horizon = 1.0\nmc.safe_level = 200\n"
    if xmax == "10":   # short of the refused node, the same grid certifies a level
        path.write_text(text.replace("mc.safe_level = 200", "mc.safe_level = 100"), encoding="utf-8")
        code, out, err = run(capsys, ["simulate", path, "--x0", "1.0", "--strategy", "optimal"])
        assert code == 0 and json.loads(out)["absorb_psi"] is not None, err
    path.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, ["simulate", path, "--x0", "1.0", "--strategy", "optimal"])
    assert code == 4
    assert "at x=136.185;" in err and err.rstrip().endswith(f"(key: {key})"), err


def test_exp_validate_agrees(capsys, tmp_path):
    path = tmp_path / "bench1_long.txt"
    path.write_text(BASE.replace("grid.xmax = 5.0", "grid.xmax = 10.0"), encoding="utf-8")
    code, out, _ = run(capsys, ["exp-validate", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["window"] == [1.0, 10.0]
    assert doc["max_rel_deviation"] < 1e-3
    assert set(doc["seed"]) == {"x_seed", "value"}

    path.write_text(
        BASE.replace("exponential", "half_normal").replace(
            "claim.p1 = 1.0", "claim.p1 = 1.2533141373155003"
        ),
        encoding="utf-8",
    )
    code, _, err = run(capsys, ["exp-validate", path])
    assert code == 4
    assert "claim.family" in err


def test_mu_close_to_r_runs(capsys, tmp_path):
    # the initial slope keeps its digits when mu - r = 1e-8
    path = tmp_path / "near_r.txt"
    path.write_text(BASE.replace("mu = 0.42", "mu = 0.32000001"), encoding="utf-8")
    code, out, err = run(capsys, ["asymptotes", path])
    assert code == 0, err
    assert json.loads(out)["strategy_slope_zero"] > 0.0
    code, out, err = run(capsys, ["exp-validate", path])
    assert code == 0, err
    assert json.loads(out)["max_rel_deviation"] < 1e-3


def test_exp_validate_names_mu_when_mu_equals_r(capsys, tmp_path):
    # the feedback ODE divides by mu - r: refused before the solve, naming the key
    path = tmp_path / "flat.txt"
    path.write_text(BASE.replace("mu = 0.42", "mu = 0.32"), encoding="utf-8")
    code, _, err = run(capsys, ["exp-validate", path])
    assert code == 4
    assert err.rstrip().endswith("(key: mu)"), err


@pytest.mark.parametrize("xmax", ["0.5", "0.01"])
def test_exp_validate_needs_a_node_in_its_window(capsys, tmp_path, xmax):
    # no node in [1, 10]: refused before the solve, naming the key
    path = tmp_path / "short.txt"
    path.write_text(BASE.replace("grid.xmax = 5.0", f"grid.xmax = {xmax}"), encoding="utf-8")
    code, _, err = run(capsys, ["exp-validate", path])
    assert code == 4
    assert err.rstrip().endswith("(key: grid.xmax)"), err


def test_exp_validate_names_grid_xmax_when_the_ode_span_is_too_long(capsys, tmp_path):
    # the feedback ODE runs from 1e-4 to grid.xmax in steps of 2.5e-3: a
    # grid to 25001 asks for more than numerics.MAX_NODES of them
    path = tmp_path / "long.txt"
    text = BASE.replace("grid.h = 0.005", "grid.h = 0.05")
    path.write_text(text.replace("grid.xmax = 5.0", "grid.xmax = 25001"), encoding="utf-8")
    code, _, err = run(capsys, ["exp-validate", path])
    assert code == 4
    assert "at most 10000000 steps" in err and err.rstrip().endswith("(key: grid.xmax)"), err


def _bench1_exp(tmp_path, xmax, h=0.005):
    path = tmp_path / "bench1.scn"
    path.write_text((PINNED / "bench1.scn").read_text(encoding="utf-8") + f"grid.h = {h}\ngrid.xmax = {xmax}\n",
                    encoding="utf-8")
    return path


def test_exp_validate_marches_only_to_its_window(capsys, tmp_path, monkeypatch):
    # a* is read on [1, 10]: one march of the 2,001 nodes to x = 10, whose
    # deviation from the feedback ODE is the one of the solve to 40
    grids = []
    march = solve.march_value_slope
    monkeypatch.setattr(solve, "march_value_slope", lambda *a: grids.append(a[0]) or march(*a))
    path = _bench1_exp(tmp_path, 40)
    code, out, err = run(capsys, ["exp-validate", path])
    assert code == 0, err
    assert [g.n for g in grids] == [2001] and grids[0].h == 0.005

    sc = ro.load_scenario(path)
    params = replace(sc.params, cap=None)
    vg = ro.solve_v(params, sc.dist, sc.grid)
    cons = ro.derive_constants(params, claim_mean=1.0)
    seed = cons.a_star_zero - ro.strategy_slope_zero(cons, params) * 1e-4 + params.hedge
    curve = ro.solve_a_tilde(params, 1.0, 1e-4, 40.0, seed_value=seed)
    window = (vg.x >= 1.0) & (vg.x <= 10.0)
    ode = curve(vg.x[window])
    dev = float(np.max(np.abs(vg.a_star[window] + params.hedge - ode) / np.abs(ode)))
    assert json.loads(out)["max_rel_deviation"] == cli._round9(dev)


def test_exp_validate_runs_where_the_solve_underflows(capsys, tmp_path):
    # the grid to 400 that solve refuses at x = 348.23: exp-validate marches
    # only to x = 10, and its ODE and reconstruction still reach 400
    path = _bench1_exp(tmp_path, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["exp-validate", path])
    assert code == 0 and err == "", err
    doc = _strict_json(out)
    assert doc["reconstructed_tail_window"] == [30.0, 400.0]
    assert_close(doc["reconstructed_tail_plateau_ratio"], 1.0050204, 1e-6, "plateau ratio on [30, 400]")


@pytest.mark.parametrize("xmax, plateau", [(800, 1.00523522), (1800, 1.00535495)])
def test_exp_validate_reads_the_plateau_where_v_prime_underflows(capsys, tmp_path, xmax, plateau):
    # the reconstructed V' underflows near x = 745; its log, from which the
    # plateau is formed, does not
    path = _bench1_exp(tmp_path, xmax, h=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["exp-validate", path])
    assert code == 0 and err == "", err
    doc = _strict_json(out)
    assert doc["reconstructed_tail_window"] == [30.0, xmax]
    assert_close(doc["reconstructed_tail_plateau_ratio"], plateau, 1e-6, f"plateau ratio on [30, {xmax}]")


def test_exp_validate_names_grid_xmax_past_rk4s_stability_interval(capsys, tmp_path):
    # the feedback ODE's stiffness grows like x: at its smallest step RK4
    # turns unstable near x = 1804.6, where the curve used to run off
    path = _bench1_exp(tmp_path, 2500, h=0.05)
    code, out, err = run(capsys, ["exp-validate", path])
    assert code == 4 and out == ""
    assert "too stiff for RK4 at x = 1804.6" in err and err.rstrip().endswith("(key: grid.xmax)"), err


def test_simulate_deterministic(capsys, scenario_file):
    docs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["simulate", scenario_file, "--x0", "1.0", "--strategy", "const:0.8542"])
        assert code == 0
        doc = json.loads(out)
        doc.pop("runtime_s")
        docs.append(doc)
    assert docs[0] == docs[1]
    doc = docs[0]
    assert doc["n_paths"] == 100
    assert doc["n_ruined"] + doc["n_safe"] + doc["n_horizon"] == 100
    assert 0.0 <= doc["survival"] <= 1.0
    assert doc["strategy"] == "const:0.8542"


def test_simulate_strategy_specs(capsys, scenario_file, tmp_path):
    code, out, _ = run(capsys, ["simulate", scenario_file, "--x0", "1.0", "--strategy", "zero"])
    assert code == 0

    table = tmp_path / "strat.csv"
    table.write_text("x,a\n0.0,0.8542\n40.0,0.8542\n", encoding="utf-8")
    code, out, _ = run(
        capsys, ["simulate", scenario_file, "--x0", "1.0", "--strategy", f"file:{table}"]
    )
    assert code == 0
    assert json.loads(out)["strategy"].startswith("file:")

    code, _, err = run(capsys, ["simulate", scenario_file, "--x0", "1.0", "--strategy", "nope"])
    assert code == 4
    assert "key: strategy" in err

    code, _, err = run(
        capsys, ["simulate", scenario_file, "--x0", "1.0", "--strategy", "file:/no/such.csv"]
    )
    assert code == 3


@pytest.mark.parametrize("horizon, dt", [("0.7", "0.4"), ("1.0", "0.3")])
def test_horizon_off_the_step_grid_names_key(capsys, tmp_path, horizon, dt):
    # the Euler loop runs whole steps: 0.7 / 0.4 would end at 0.8, 1.0 / 0.3 at 0.9
    path = tmp_path / "ragged.txt"
    path.write_text(
        BASE.replace("mc.horizon = 5.0", f"mc.horizon = {horizon}").replace("mc.dt = 0.01", f"mc.dt = {dt}"),
        encoding="utf-8",
    )
    code, _, err = run(capsys, ["simulate", path, "--x0", "1.0", "--strategy", "zero"])
    assert code == 4
    assert "whole number of steps" in err
    assert err.rstrip().endswith("(key: mc.horizon)"), err


@pytest.mark.parametrize("strategy", ["optimal", "zero", "const:1", "file"])
@pytest.mark.parametrize("xmax", ["5.0", "10.0"])
def test_simulate_reports_its_absorption_level(capsys, tmp_path, strategy, xmax):
    # 100 paths from x0 = 1: SE/100 is about 3e-4.  On BASE's grid, to 5,
    # psi stays above it, so the paths run to mc.safe_level and the bound is
    # null; on a grid to 10 each strategy's solve certifies a level below 8
    path = tmp_path / "scn.txt"
    path.write_text(BASE.replace("grid.xmax = 5.0", f"grid.xmax = {xmax}"), encoding="utf-8")
    if strategy == "file":
        table = tmp_path / "strat.csv"
        table.write_text("x,a\n0.0,0.5\n4.0,1.5\n", encoding="utf-8")
        strategy = f"file:{table}"
    code, out, err = run(capsys, ["simulate", path, "--x0", "1.0", "--strategy", strategy])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["safe_level"] == 8.0
    if xmax == "5.0":
        assert doc["absorb_level"] == 8.0 and doc["absorb_psi"] is None
    else:
        sc = parse_scenario(path.read_text(encoding="utf-8"))
        if strategy == "optimal":
            vg = ro.solve_v(sc.params, sc.dist, sc.grid)
            sim = ro.SampledFn(grid=sc.grid, values=vg.a_star)
        else:
            sim = {"zero": 0.0, "const:1": 1.0}.get(strategy, lambda q: np.interp(q, [0.0, 4.0], [0.5, 1.5]))
            amounts = sim(sc.grid.points) if callable(sim) else np.full(sc.grid.n, sim)
            vg = ro.evaluate_policy(sc.params, sc.dist, sc.grid, amounts)
        norm = ro.normalize_delta(vg, 1.0)
        d = norm.delta(1.0)
        bound = math.sqrt(d * (1.0 - d) / 100) / 100.0
        level = doc["absorb_level"]
        assert 1.0 < level < 8.0 and level == round(level / 0.005) * 0.005
        assert_close(doc["absorb_psi"], norm.psi(level), 1e-8, "absorb_psi")
        assert norm.psi(level) <= bound < norm.psi(level - 0.005)
        # the paths stopped as safe at L, not at mc.safe_level
        report = ro.estimate_survival(sc.params, sc.dist, sim, 1.0, replace(sc.sim, safe_level=level))
        assert [doc["n_ruined"], doc["n_safe"], doc["n_horizon"]] == [report.n_ruined, report.n_safe, report.n_horizon]
        assert report.n_safe > 0


@pytest.mark.parametrize("capped", [False, True])
@pytest.mark.parametrize("strategy", ["optimal", "zero", "const:1", "file"])
@pytest.mark.parametrize("xmax", ["5.0", "10.0"])
def test_simulate_marches_once(capsys, tmp_path, monkeypatch, capped, strategy, xmax):
    # one march prices the strategy and, for optimal, gives the a* the
    # paths run: on grid.xmax = 5 no level is certified, on 10 one is
    calls = []
    march = solve.march_value_slope
    monkeypatch.setattr(solve, "march_value_slope", lambda *a: calls.append(1) or march(*a))
    path = tmp_path / "scn.txt"
    path.write_text(BASE.replace("grid.xmax = 5.0", f"grid.xmax = {xmax}") + ("cap_A = 1.0\n" if capped else ""),
                    encoding="utf-8")
    if strategy == "file":
        table = tmp_path / "strat.csv"
        table.write_text("x,a\n0.0,0.5\n4.0,1.5\n", encoding="utf-8")
        strategy = f"file:{table}"
    code, out, err = run(capsys, ["simulate", path, "--x0", "1.0", "--strategy", strategy])
    assert code == 0, err
    assert (json.loads(out)["absorb_psi"] is None) == (xmax == "5.0")
    assert len(calls) == 1


def test_simulate_optimal_hands_over_the_tracer_hook(capsys, scenario_file, monkeypatch):
    # perfbench's tracer knows the solved a* by its type, cli.StrategyCurve,
    # and reads it through .value, which must be the SampledFn lookup
    seen = []
    survival = cli.estimate_survival
    monkeypatch.setattr(cli, "estimate_survival", lambda *a: seen.append(a[2]) or survival(*a))
    code, _, err = run(capsys, ["simulate", scenario_file, "--x0", "1.0", "--strategy", "optimal"])
    assert code == 0, err
    (curve,) = seen
    assert type(curve) is cli.StrategyCurve
    xs = np.concatenate([curve.grid.points, np.linspace(-1.0, 10.0, 2001)])
    assert curve.value(xs).tobytes() == ro.SampledFn.__call__(curve, xs).tobytes()


def test_simulate_too_few_paths_names_key(capsys, tmp_path):
    # mc.paths = 50 is a valid setting for every other command
    path = tmp_path / "few.txt"
    path.write_text(BASE.replace("mc.paths = 100", "mc.paths = 50"), encoding="utf-8")
    code, _, _ = run(capsys, ["constants", path])
    assert code == 0
    code, _, err = run(capsys, ["simulate", path, "--x0", "1.0", "--strategy", "zero"])
    assert code == 4
    assert err.rstrip().endswith("(key: mc.paths)"), err


NO_ROWS = ["", "# x,a\n\n", "x,a\n"]   # empty, comment-only, header-only


@pytest.mark.parametrize(
    "table",
    [
        "x,a\n0.0,0.8\n2.0,0.9\n1.0,1.0\n",   # x not increasing
        "x,a\n0.0,0.8\n1.0,0.9\n1.0,1.0\n",   # x repeated
        "x,a\n0.0,0.8\n1.0,nan\n",             # non-finite a
        "x,a\n0.0,0.8\ninf,0.9\n",             # non-finite x
        "x,a\n0.0,0.8\n1,oops\n",              # not a number
        "0.0,oops\n40.0,0.85\n",               # a data row, not a header
        *NO_ROWS,
    ],
    ids=["decreasing", "repeated", "nan", "inf", "non-numeric", "non-numeric-first-row",
         "empty", "comment-only", "header-only"],
)
def test_simulate_rejects_bad_strategy_file(capsys, scenario_file, tmp_path, table):
    path = tmp_path / "strat.csv"
    path.write_text(table, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's empty-input warning included
        code, _, err = run(capsys, ["simulate", scenario_file, "--x0", "1.0", "--strategy", f"file:{path}"])
    assert code == 4
    assert err.rstrip().endswith("(key: strategy)"), err
    if table in NO_ROWS:
        assert "holds no rows" in err, err


@pytest.mark.parametrize(
    "x0, strategy, key",
    [
        ("1.0", "const:nan", "strategy"),
        ("1.0", "const:inf", "strategy"),
        ("1.0", "const:-inf", "strategy"),
        ("-0.5", "zero", "x0"),
        ("8.0", "zero", "x0"),          # the safe level itself
        ("nan", "zero", "x0"),
    ],
)
def test_simulate_rejects_bad_input_naming_key(capsys, scenario_file, x0, strategy, key):
    code, _, err = run(capsys, ["simulate", scenario_file, "--x0", x0, "--strategy", strategy])
    assert code == 4
    assert err.rstrip().endswith(f"(key: {key})"), err


@pytest.mark.parametrize("spec", ["const:1e200", "const:-1e200", "file"])
def test_simulate_refuses_overflowing_strategy(capsys, scenario_file, tmp_path, spec):
    # Q(1e200) = sigma^2 1e400 + ... is inf: the Euler step would run on
    # infinite surpluses, so the strategy is refused before any path runs
    if spec == "file":
        path = tmp_path / "strat.csv"
        path.write_text("x,a\n0.0,0.8\n1.0,1e200\n2.0,0.9\n", encoding="utf-8")
        spec = f"file:{path}"
    code, out, err = run(capsys, ["simulate", scenario_file, "--x0", "1.0", "--strategy", spec])
    assert (code, out) == (4, "")
    assert "overflows" in err
    assert err.rstrip().endswith("(key: strategy)"), err


def test_simulate_runs_a_strategy_it_cannot_price(capsys, tmp_path):
    # NONCONTRACTING at h = 0.1: the node at x = 0.1 has no positive root
    # for a = 2.25, so no level is certified and the paths run to
    # mc.safe_level
    p = NONCONTRACTING
    path = tmp_path / "noncontracting.txt"
    path.write_text(
        BASE.replace("grid.h = 0.005", "grid.h = 0.1")
        + "".join(f"{key} = {value!r}\n" for key, value in (
            ("mu", p.mu), ("r", p.r), ("c", p.c), ("lambda", p.lam), ("rho", p.rho),
            ("sigma", p.sigma), ("sigma1", p.sigma1), ("cap_A", p.cap))),
        encoding="utf-8",
    )
    sc = parse_scenario(path.read_text(encoding="utf-8"))
    assert sc.params == p
    assert _price(sc, 1.0, np.full(sc.grid.n, 2.25)) == (None, None, (8.0, None))
    code, out, err = run(capsys, ["simulate", path, "--x0", "1.0", "--strategy", "const:2.25"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["absorb_level"] == doc["safe_level"] == 8.0 and doc["absorb_psi"] is None


def test_simulate_accepts_large_finite_strategy(capsys, scenario_file):
    # Q(1e150) is about 1e298: large, but a finite float
    code, out, _ = run(capsys, ["simulate", scenario_file, "--x0", "1.0", "--strategy", "const:1e150"])
    assert code == 0
    assert json.loads(out)["n_paths"] == 100


def test_example1_runner(capsys, tmp_path):
    code, out, _ = run(capsys, ["example1", "--out", tmp_path])
    assert code == 0
    doc = json.loads(out)
    assert_close(doc["asymptotes"]["a_star_zero"], 0.8542114902640175, 1e-8, "a*(0)")
    assert set(doc["claims"]) == {"exponential", "half_normal", "log_normal"}
    for entry in doc["claims"].values():
        assert_close(entry["mean"], 1.0, 1e-9, "claim mean")
        assert not entry["truncated"]
    assert doc["claims"]["exponential"]["tail_fit"]["ok"]

    low = (tmp_path / "example1_low_surplus.csv").read_text().splitlines()
    high = (tmp_path / "example1_large_surplus.csv").read_text().splitlines()
    assert low[0] == "x,a_exponential,a_half_normal,a_log_normal"
    assert high[0] == low[0]
    assert low[1].startswith("0,")
    assert float(high[-1].split(",")[0]) == 40.0


def test_example2_reports_legacy_values_as_inconsistent(capsys, tmp_path):
    code, out, _ = run(capsys, ["example2", "--out", tmp_path])
    assert code == 0
    doc = json.loads(out)
    legacy = doc["legacy_reference_values"]
    assert legacy["consistent_with_parameters"] is False
    # reported for reference, but distinct from what the parameters imply
    assert abs(doc["asymptotes"]["a_star_zero"] - legacy["a_star_zero"]) > 1e-3
    assert abs(doc["asymptotes"]["infinity_limit"] - legacy["infinity_limit"]) > 1e-2
    assert_close(doc["asymptotes"]["infinity_limit"], 0.11419753086419755, 1e-8, "limit 2")
