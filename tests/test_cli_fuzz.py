"""The CLI contract under extreme scenario values, as a standing fuzz.

Every run either exits 0 with strict JSON on stdout, or exits with a
documented code, 2 to 5, whose message ends by naming the offending key;
none raises out of `main`.  The draws are fixed by FUZZ_SEED and
FUZZ_DRAWS.  A draw takes a pinned benchmark scenario and sets one key, in
turn, to a value of one magnitude class in turn, so every (key, class)
pair is drawn FUZZ_DRAWS / 99 times; half the draws set a second key at
random.  Grids have at most 2,001 nodes and `simulate` runs 128 paths for
200 steps, so a draw takes a few milliseconds.  Each failure a draw has
found is kept below as a named regression case.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

import pytest

from ruinopt.cli import main

PINNED = Path(__file__).parent / "pinned"
LAWS = sorted(PINNED.glob("*.scn"))

FUZZ_SEED = 39
FUZZ_DRAWS = 396

KEYS = ["mu", "r", "c", "lambda", "rho", "sigma", "sigma1", "cap_A", "claim.p1", "claim.p2", "mc.seed"]
# (sign, log10 of the magnitude's range): 0, subnormals, the rest of the
# float range below 1e-100, moderate values, and up to the largest float
CLASSES = [(1.0, None)] + [
    (sign, span)
    for span in ((-323.3, -307.66), (-307.65, -100.0), (-100.0, 100.0), (100.0, 308.25))
    for sign in (1.0, -1.0)
]
RHO_EDGES = [1.0, -1.0, math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0)]
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, -1]
RUN = "grid.h = {h!r}\ngrid.xmax = {xmax!r}\nmc.paths = 128\nmc.dt = 0.01\nmc.horizon = 2.0\nmc.safe_level = 8.0\n"
COMMANDS = [
    ["solve", "--mode", "unconstrained"],
    ["solve", "--mode", "constrained"],
    ["constants"],
    ["asymptotes"],
    ["exp-validate"],
    ["simulate", "--x0", "1.0"],
]


def _value(rng: random.Random, key: str, cls: int):
    if key == "mc.seed":
        return rng.choice(SEEDS)
    if key == "rho" and rng.random() < 0.5:
        return rng.choice(RHO_EDGES)
    sign, span = CLASSES[cls]
    return 0.0 if span is None else sign * 10.0 ** rng.uniform(*span)


def _draws():
    rng = random.Random(FUZZ_SEED)
    for i in range(FUZZ_DRAWS):
        law = rng.choice(LAWS)
        h = rng.choice([5e-3, 1e-2, 2e-2])
        n = rng.randint(2, 2001)
        keys = {KEYS[i % len(KEYS)]: _value(rng, KEYS[i % len(KEYS)], i // len(KEYS) % len(CLASSES))}
        if rng.random() < 0.5:
            second = rng.choice([k for k in KEYS if k not in keys])
            keys[second] = _value(rng, second, rng.randrange(len(CLASSES)))
        extra = "".join(f"{k} = {v!r}\n" for k, v in keys.items())
        yield f"{law.stem} {keys}", law.read_text(encoding="utf-8") + RUN.format(h=h, xmax=h * (n - 1)) + extra


def _refuse(constant: str):
    raise ValueError(f"non-strict JSON constant {constant}")


def _breaches(capsys, tmp_path: Path, text: str) -> list[str]:
    """Each command's breach of the contract on the scenario text."""
    path = tmp_path / "fuzz.scn"
    path.write_text(text, encoding="utf-8")
    out = []
    for command in COMMANDS:
        argv = [command[0], str(path), *command[1:]] + (["--out", str(tmp_path)] if command[0] == "solve" else [])
        try:
            code = main(argv)
        except BaseException as exc:   # noqa: BLE001 - the contract is that nothing escapes
            capsys.readouterr()
            out.append(f"{' '.join(command)}: raised {type(exc).__name__}: {exc}")
            continue
        captured = capsys.readouterr()
        if code == 0:
            try:
                json.loads(captured.out, parse_constant=_refuse)
            except ValueError as exc:
                out.append(f"{' '.join(command)}: exit 0 without strict JSON: {exc}")
        elif code not in (2, 3, 4, 5) or not re.search(r"\(key: [^\n]+\)\Z", captured.err.rstrip()):
            out.append(f"{' '.join(command)}: exit {code}: {captured.err.strip()[-200:]}")
    return out


def test_cli_contract_holds_under_extreme_values(capsys, tmp_path):
    breaches = []
    for name, text in _draws():
        breaches += [f"{name}: {b}" for b in _breaches(capsys, tmp_path, text)]
    assert not breaches, "\n".join(breaches)


# what the fuzz found, each as (law, keys set, command, exit code, key named)
REGRESSIONS = {
    # the closed forms seed a~ = a* + rho sigma1 / sigma, where a~ falls
    # below the rounding of the hedge: the feedback curve starts at 0
    "feedback-seed-lost-to-the-hedge": (
        "bench1", "sigma = 2.4782916525444636e+16", ["exp-validate"], 4, "sigma"),
    # ((mu - r) / sigma)^2 overflowed in the node rule's ** 2 (OverflowError)
    "sharpe-square-overflows": (
        "bench2_exp_mu_r_rho015", "mu = 3.5190553590637315e+115\nsigma = 1.7063341349212108e-83",
        ["solve", "--mode", "unconstrained"], 4, "mu"),
    # ... and underflowed to 0, so the node's root was 0 and a* divided by it
    "sharpe-square-underflows": (
        "bench2_exp", "r = 1.5e-323\nmu = 5.62262868622e-312", ["solve", "--mode", "unconstrained"], 4, "mu"),
    # rho1 and rho2 divide by 2 c sigma and 2 c sigma1 (ZeroDivisionError)
    "c-sigma1-underflows": (
        "bench1", "sigma1 = 4.5745919554946054e-132\nc = 3.2545630526336026e-276", ["constants"], 4, "c"),
    # a*(0) at mu = r is the hedge alone; it divided 0 by sigma^2 B = 0
    "a-star-zero-without-excess": (
        "bench2_exp_mu_r_rho015", "sigma1 = 4.910998407777053e+111\nsigma = 4.405458547073721e-146",
        ["asymptotes"], 0, None),
    # the certificate's centered difference needs an interior node
    "two-node-grid": ("bench1", "grid.xmax = 0.005", ["solve", "--mode", "constrained"], 4, "grid.xmax"),
    # paths far above the safe level met 1e70 claims a step: the run hung
    "claims-beyond-any-run": (
        "bench2_pareto", "sigma1 = 2.6423366506192812e+38\nlambda = 1.7720429325072256e+72",
        ["simulate", "--x0", "1.0"], 4, "mc.horizon"),
}


@pytest.mark.parametrize("case", list(REGRESSIONS))
def test_cli_contract_regressions(capsys, tmp_path, case):
    law, keys, command, code, key = REGRESSIONS[case]
    path = tmp_path / "case.scn"
    text = (PINNED / f"{law}.scn").read_text(encoding="utf-8") + RUN.format(h=5e-3, xmax=5.0) + keys + "\n"
    path.write_text(text, encoding="utf-8")
    argv = [command[0], str(path), *command[1:]] + (["--out", str(tmp_path)] if command[0] == "solve" else [])
    assert main(argv) == code
    captured = capsys.readouterr()
    if key is None:
        json.loads(captured.out, parse_constant=_refuse)
    else:
        assert captured.err.rstrip().endswith(f"(key: {key})"), captured.err
