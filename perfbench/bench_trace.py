"""Spans and counters recorded from outside the program.

`traced(cli, tracer)` replaces, for the length of a `with` block, every
function that `ruinopt.cli` imported from another `ruinopt` module by a
wrapper that records a span named `<module>.<function>`.  Counters come
from the callables a scenario supplies: `load_scenario` hands back a
scenario whose claim law counts and times its `tail` and `ppf` calls, and
`estimate_survival` receives a strategy callable that counts the path
steps it is asked about.  Solver internals are not traced; the node-solve
counts are read from the window record the solvers return.

A span's self time is its duration minus the time of the spans it
encloses, so the self times of one op add up to its traced wall time less
`cli.other` (argparse, JSON and CSV writing).
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.top_s = 0.0            # time inside outermost spans
        self._child_s = []          # per open span: time of its closed children

    def call(self, name: str, fn, *args, **kwargs):
        self._child_s.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.self_s[name] += dt - self._child_s.pop()
            self.total_s[name] += dt
            self.calls[name] += 1
            if self._child_s:
                self._child_s[-1] += dt
            else:
                self.top_s += dt

    def layer_self_s(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items() if name.split(".", 1)[0] == layer)


def _window_counts(vg) -> dict[str, int]:
    """Node solves, window sweeps and history multiply-adds from a window record."""
    out = Counter(windows=len(vg.windows))
    for w in vg.windows:
        nodes = w.last_index - w.first_index + 1
        out["node_solves"] += nodes * w.iterations
        out["window_sweeps"] += w.iterations
        # node j's history dot product has j - 1 terms
        out["history_madds"] += w.iterations * (w.first_index + w.last_index - 2) * nodes // 2
    return out


def _counting_dist(tracer: Tracer, dist):
    def tail(y):
        tracer.counts["claims.tail_calls"] += 1
        tracer.counts["claims.tail_points"] += np.size(y)
        return tracer.call("claims.tail", dist.tail, y)

    def ppf(u):
        tracer.counts["claims.ppf_calls"] += 1
        tracer.counts["claims.ppf_draws"] += np.size(u)
        return tracer.call("claims.ppf", dist.ppf, u)

    return dataclasses.replace(dist, tail=tail, ppf=ppf)


def _counting_strategy(tracer: Tracer, strategy, curve_type):
    """A callable equal to what mc builds from `strategy`, counting path steps."""
    if isinstance(strategy, curve_type):
        def evaluate(xs):
            return tracer.call("results.strategy_eval", strategy.value, xs)
    elif callable(strategy):
        evaluate = strategy
    else:
        amount = float(strategy)

        def evaluate(xs):
            return np.full_like(np.asarray(xs, dtype=float), amount)

    def fn(xs):
        tracer.counts["mc.path_steps"] += np.size(xs)
        if isinstance(strategy, curve_type):
            tracer.counts["results.strategy_evals"] += 1
        return evaluate(xs)

    return fn


def _wrap(tracer: Tracer, fn, cli):
    layer = fn.__module__.rsplit(".", 1)[-1]
    name = f"{layer}.{fn.__name__}"

    def wrapper(*args, **kwargs):
        if fn.__name__ == "estimate_survival":
            args = list(args)
            args[2] = _counting_strategy(tracer, args[2], cli.StrategyCurve)
        out = tracer.call(name, fn, *args, **kwargs)
        if fn.__name__ == "load_scenario":
            out.dist = _counting_dist(tracer, out.dist)
        elif fn.__name__.startswith("solve_v_") and getattr(out, "windows", None) is not None:
            counts = _window_counts(out)
            tracer.counts["numerics.history_madds"] += counts.pop("history_madds", 0)
            tracer.counts.update({f"{layer}.{key}": n for key, n in counts.items()})
        elif fn.__name__ == "solve_a_tilde":
            tracer.counts["exp_ode.rk4_steps"] += len(out.x) - 1
        return out

    return wrapper


@contextmanager
def traced(cli, tracer: Tracer):
    """Wrap, inside the block, each function cli.py imported from a layer module."""
    originals = {
        name: obj
        for name, obj in vars(cli).items()
        if inspect.isfunction(obj)
        and obj.__module__.startswith("ruinopt.")
        and obj.__module__ != cli.__name__
    }
    try:
        for name, fn in originals.items():
            setattr(cli, name, _wrap(tracer, fn, cli))
        yield tracer
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
