"""Scenario files: flat key = value text describing one model setup.

'#' starts a comment, and a later duplicate of a key overrides an earlier
one.  The table `_KEYS` names every key once, in the order `scenario_text`
writes them: its value type, the `Scenario` field it goes to (the model
parameters, the claim law, the grid or the simulation setup), the keyword
it is passed there, and its default.  The seven model keys, claim.family
and claim.p1 are required; cap_A and claim.p2 are optional; grid.* and
mc.* fall back to defaults.  Unknown keys and malformed values are hard
errors that name the key, so a typo never silently runs the defaults.
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


_REQUIRED = object()   # the default of a key that has none

# key: (value type, Scenario field it sets, keyword it is passed as there,
# default), in the echo's order; a default of None leaves the key optional
_KEYS = {
    "mu": (float, "params", "mu", _REQUIRED),
    "r": (float, "params", "r", _REQUIRED),
    "c": (float, "params", "c", _REQUIRED),
    "lambda": (float, "params", "lam", _REQUIRED),
    "rho": (float, "params", "rho", _REQUIRED),
    "sigma": (float, "params", "sigma", _REQUIRED),
    "sigma1": (float, "params", "sigma1", _REQUIRED),
    "cap_A": (float, "params", "cap", None),
    "claim.family": (str, "dist", "family", _REQUIRED),
    "claim.p1": (float, "dist", "p1", _REQUIRED),
    "claim.p2": (float, "dist", "p2", None),
    "grid.h": (float, "grid", "h", 5e-3),
    "grid.xmax": (float, "grid", "x_max", 40.0),
    "mc.dt": (float, "sim", "dt", 1e-3),
    "mc.paths": (int, "sim", "n_paths", 100_000),
    "mc.horizon": (float, "sim", "horizon", 200.0),
    "mc.seed": (int, "sim", "master_seed", 0),
    "mc.safe_level": (float, "sim", "safe_level", 60.0),
}

# the key a constructor's message is about, by the field it starts with;
# Grid's n < 2 means x_max is shorter than half a step
_FIELD_KEYS = {field: key for key, (_, _, field, _) in _KEYS.items()} | {"n": "grid.xmax"}


@dataclass
class Scenario:
    params: ModelParams
    dist: ClaimDistribution
    grid: Grid
    sim: SimConfig
    raw: dict


def _field_key(message: str, kwargs: dict) -> str:
    return _FIELD_KEYS[message.split(" ", 1)[0]]


def _claim_key(message: str, kwargs: dict) -> str:
    """Scenario key a claim configuration error is about.

    The factories name their first parameter k or u and the second v; the
    one-parameter half-normal calls its scale v.
    """
    if message.startswith("unknown claim family"):
        return "claim.family"
    if "parameter" in message:  # claim.p2 given to a one-parameter family, or missing
        return "claim.p2"
    name = message.split(" must", 1)[0].split()[-1]
    return "claim.p2" if kwargs["p2"] is not None and name == "v" else "claim.p1"


# each Scenario field: its constructor, what its errors are called, and
# how an error message maps to a key; built in this order
_BUILDERS = {
    "params": (ModelParams, "model parameter", _field_key),
    "dist": (from_config, "claim configuration", _claim_key),
    "grid": (Grid.from_xmax, "grid", _field_key),
    "sim": (SimConfig, "simulation setup", _field_key),
}


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
        if key not in _KEYS:
            raise UnknownKeyError(key, f"unknown scenario key {key!r}")
        kind = _KEYS[key][0]
        if kind is str:
            raw[key] = value
        elif kind is int:
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

    missing = sorted(key for key, (*_, d) in _KEYS.items() if d is _REQUIRED and key not in raw)
    if missing:
        raise BadValueError(missing[0], f"missing required scenario key {missing[0]!r}")

    merged = {key: d for key, (*_, d) in _KEYS.items() if d is not None and d is not _REQUIRED}
    merged.update(raw)

    kwargs: dict = {field: {} for field in _BUILDERS}
    for key, (_, field, keyword, _) in _KEYS.items():
        kwargs[field][keyword] = merged.get(key)
    built = {}
    for field, (make, what, key_of) in _BUILDERS.items():
        try:
            built[field] = make(**kwargs[field])
        except ValueError as exc:
            raise BadValueError(key_of(str(exc), kwargs[field]), f"invalid {what}: {exc}") from None
    return Scenario(**built, raw=merged)


def load_scenario(path: str) -> Scenario:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:   # the bytes before the first bad one decode
        line = f"line {len((data[: exc.start].decode('utf-8') + '.').splitlines())}"
        raise BadValueError(line, f"{line} is not UTF-8: {exc}") from None
    return parse_scenario(text)


def scenario_text(sc: Scenario) -> str:
    """Serialize a scenario back to the flat key = value format.

    Parsing the result reproduces the same scenario (round-trip).
    """
    lines = []
    for key in _KEYS:
        val = sc.raw.get(key)
        if val is not None:
            lines.append(f"{key} = {val}" if isinstance(val, str) else f"{key} = {val!r}")
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
