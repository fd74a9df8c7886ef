"""Scenario files: flat key = value text describing one model setup.

Keys (dots group related settings, '#' starts a comment):

    mu r c lambda rho sigma sigma1 cap_A
    claim.family claim.p1 claim.p2
    grid.h grid.xmax
    mc.dt mc.paths mc.horizon mc.seed mc.safe_level

cap_A and claim.p2 are optional; grid.* and mc.* fall back to defaults.
Unknown keys and malformed values are hard errors that name the key, so a
typo never silently runs the defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .claims import ClaimDistribution, from_config
from .mc import SimConfig
from .model import ModelParams
from .numerics import Grid

__all__ = [
    "Scenario",
    "ScenarioError",
    "UnknownKeyError",
    "BadValueError",
    "parse_scenario",
    "load_scenario",
    "scenario_text",
    "example1_params",
    "example2_params",
    "example1_distributions",
    "example2_distributions",
]


class ScenarioError(ValueError):
    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


class UnknownKeyError(ScenarioError):
    pass


class BadValueError(ScenarioError):
    pass


_MODEL_KEYS = ("mu", "r", "c", "lambda", "rho", "sigma", "sigma1")
_FLOAT_KEYS = _MODEL_KEYS + (
    "cap_A",
    "claim.p1",
    "claim.p2",
    "grid.h",
    "grid.xmax",
    "mc.dt",
    "mc.horizon",
    "mc.safe_level",
)
_INT_KEYS = ("mc.paths", "mc.seed")
_STR_KEYS = ("claim.family",)
_KNOWN_KEYS = set(_FLOAT_KEYS) | set(_INT_KEYS) | set(_STR_KEYS)

_DEFAULTS = {
    "grid.h": 5e-3,
    "grid.xmax": 40.0,
    "mc.dt": 1e-3,
    "mc.paths": 100_000,
    "mc.horizon": 200.0,
    "mc.seed": 0,
    "mc.safe_level": 60.0,
}

_REQUIRED = set(_MODEL_KEYS) | {"claim.family", "claim.p1"}


@dataclass
class Scenario:
    params: ModelParams
    dist: ClaimDistribution
    grid: Grid
    sim: SimConfig
    raw: dict

    @property
    def exponential_mean(self) -> float | None:
        """Claim mean when the family is exponential, else None."""
        return self.dist.mean if self.dist.family == "exponential" else None


def _claim_key(message: str, two_params: bool) -> str:
    """Scenario key a claim configuration error is about.

    The factories name their first parameter k or u and the second v; the
    one-parameter half-normal calls its scale v.
    """
    if message.startswith("unknown claim family"):
        return "claim.family"
    if "parameter" in message:  # claim.p2 given to a one-parameter family, or missing
        return "claim.p2"
    name = message.split(" must", 1)[0].split()[-1]
    return "claim.p2" if two_params and name == "v" else "claim.p1"


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; later duplicates of a key override earlier ones."""
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise BadValueError(
                f"line {lineno}", f"line {lineno} is not 'key = value': {line.strip()!r}"
            )
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise UnknownKeyError(key, f"unknown scenario key {key!r}")
        if key in _STR_KEYS:
            raw[key] = value
        elif key in _INT_KEYS:
            try:
                raw[key] = int(value)
            except ValueError:
                raise BadValueError(key, f"key {key!r} needs an integer, got {value!r}") from None
        else:
            try:
                parsed = float(value)
            except ValueError:
                raise BadValueError(key, f"key {key!r} needs a number, got {value!r}") from None
            if not math.isfinite(parsed):
                raise BadValueError(key, f"key {key!r} must be finite, got {value!r}")
            raw[key] = parsed

    missing = sorted(_REQUIRED - raw.keys())
    if missing:
        raise BadValueError(missing[0], f"missing required scenario key {missing[0]!r}")

    merged = dict(_DEFAULTS)
    merged.update(raw)

    try:
        params = ModelParams(
            c=merged["c"],
            r=merged["r"],
            mu=merged["mu"],
            sigma=merged["sigma"],
            sigma1=merged["sigma1"],
            rho=merged["rho"],
            lam=merged["lambda"],
            cap=merged.get("cap_A"),
        )
    except ValueError as exc:
        # name the scenario key, not the attribute: lam is spelled lambda here
        key = str(exc).split(" ", 1)[0]
        key = {"lam": "lambda", "cap": "cap_A"}.get(key, key)
        raise BadValueError(key, f"invalid model parameter: {exc}") from None

    p2 = merged.get("claim.p2")
    try:
        dist = from_config(merged["claim.family"], merged["claim.p1"], p2)
    except ValueError as exc:
        key = _claim_key(str(exc), p2 is not None)
        raise BadValueError(key, f"invalid claim configuration: {exc}") from None

    try:
        grid = Grid.from_xmax(merged["grid.h"], merged["grid.xmax"])
    except ValueError as exc:
        # n < 2 means x_max is shorter than half a step
        key = {"h": "grid.h", "x_max": "grid.xmax", "n": "grid.xmax"}[str(exc).split(" ", 1)[0]]
        raise BadValueError(key, f"invalid grid: {exc}") from None

    try:
        sim = SimConfig(
            dt=merged["mc.dt"],
            horizon=merged["mc.horizon"],
            n_paths=merged["mc.paths"],
            safe_level=merged["mc.safe_level"],
            master_seed=merged["mc.seed"],
        )
    except ValueError as exc:
        key = str(exc).split(" ", 1)[0]
        key = {"n_paths": "mc.paths", "master_seed": "mc.seed"}.get(key, f"mc.{key}")
        raise BadValueError(key, f"invalid simulation setup: {exc}") from None

    return Scenario(params=params, dist=dist, grid=grid, sim=sim, raw=merged)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def scenario_text(sc: Scenario) -> str:
    """Serialize a scenario back to the flat key = value format.

    Parsing the result reproduces the same scenario (round-trip).
    """
    lines = []
    order = list(_MODEL_KEYS) + [
        "cap_A",
        "claim.family",
        "claim.p1",
        "claim.p2",
        "grid.h",
        "grid.xmax",
        "mc.dt",
        "mc.paths",
        "mc.horizon",
        "mc.seed",
        "mc.safe_level",
    ]
    for key in order:
        if key not in sc.raw or sc.raw[key] is None:
            continue
        val = sc.raw[key]
        if isinstance(val, str):
            lines.append(f"{key} = {val}")
        elif isinstance(val, int):
            lines.append(f"{key} = {val}")
        else:
            lines.append(f"{key} = {val!r}")
    return "\n".join(lines) + "\n"


def example1_params(cap: float | None = None) -> ModelParams:
    """Benchmark parameter set 1: moderate insurer, strong stock edge."""
    return ModelParams(c=0.36, r=0.32, mu=0.42, sigma=0.1, sigma1=0.2, rho=-0.2, lam=0.3, cap=cap)


def example2_params(cap: float | None = None) -> ModelParams:
    """Benchmark parameter set 2: volatile stock, mild edge, heavier claims."""
    return ModelParams(c=0.5, r=0.12, mu=0.2, sigma=0.9, sigma1=0.5, rho=0.15, lam=0.3, cap=cap)


def example1_distributions() -> dict[str, ClaimDistribution]:
    """Three unit-mean claim laws for benchmark 1."""
    return {
        "exponential": from_config("exponential", 1.0),
        "half_normal": from_config("half_normal", math.sqrt(math.pi / 2.0)),
        "log_normal": from_config("log_normal", -0.5, 1.0),
    }


def example2_distributions() -> dict[str, ClaimDistribution]:
    """Three mean-two claim laws for benchmark 2."""
    return {
        "exponential": from_config("exponential", 0.5),
        "weibull": from_config("weibull", 1.0, 0.5),
        "pareto": from_config("pareto", 2.0, 2.0),
    }
