"""One benchmark run: set-up probes, warm-up, timed passes, checks, report.

An untraced run times passes over the workload's ops and reports the
end-to-end metrics.  While an untraced op runs, a timer signal runs a
fixed reference loop every 50 ms, and the pass time is given in units of
that loop (see `SpeedSamples`).  A traced run alternates untraced and
traced passes and reports the per-layer metrics, with the tracing
overhead as the difference between the two kinds of pass.  Ops run in
this process through `ruinopt.cli.main`; only the set-up probes start a
fresh interpreter, since importing twice in one process measures nothing.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import bench_trace
import bench_workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
SETUP_PROBES = 3
SAMPLE_EVERY_S = 0.05   # interval of the reference loop inside an op
PROBE_TIMEOUT_S = 120

UNITS = {"pass_rel": "ref_loops", "setup_s": "s", "peak_rss_mb": "MB", "indep_residual": "1", "accuracy_err": "1"}

# per-layer busy shares: self time of spans of the layer, % of the traced pass
BUSY_LAYERS = ("scenario", "unconstrained", "constrained", "claims", "results", "mc", "asymptotics", "exp_ode")
SPAN_SHARES = {
    "constrained.hjb_residual_pct": "constrained.hjb_residual",
    "results.strategy_eval_pct": "results.strategy_eval",
    "results.normalize_pct": "results.normalize_delta",
}
COUNTS = (
    "unconstrained.node_solves",
    "constrained.node_solves",
    "numerics.history_madds",
    "claims.tail_calls",
    "claims.tail_points",
    "claims.ppf_calls",
    "claims.ppf_draws",
    "results.strategy_evals",
    "mc.path_steps",
    "exp_ode.rk4_steps",
)
PER_LAYER_UNITS = {
    "traced.pass_s": "s",
    "trace.overhead_pct": "%",
    "setup.import_s": "s",
    **{f"{layer}.busy_pct": "%" for layer in BUSY_LAYERS},
    **{name: "%" for name in SPAN_SHARES},
    "unconstrained.nodes_per_s": "1/s",
    **{name: "count" for name in COUNTS},
    "cli.other_pct": "%",
}

_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ruinopt.cli
from ruinopt.scenario import load_scenario
t1 = time.perf_counter()
for path in sys.argv[2:]:
    load_scenario(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "module": ruinopt.cli.__file__}))
"""


_REF_X = np.random.default_rng(0).random(1 << 15)


def reference_loop() -> float:
    """Seconds taken by a fixed bit of work that does not use ruinopt.

    Half of it is pure-Python arithmetic and half small numpy calls, the
    two kinds of work the ops do.  It takes about 0.5 ms on its own and
    about 1 ms when run inside an op.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(6_000):
        acc += i * 0.5
    y = np.exp(-_REF_X) * _REF_X
    acc += float(np.searchsorted(_REF_X[:4096], y[:4096]).sum())
    return time.perf_counter() - t0


class SpeedSamples:
    """Times of the reference loop, run from a timer signal while a block runs.

    On a shared host this process runs up to 1.5 times slower for minutes
    at a time, and faster or slower by tens of per cent over seconds; the
    load average shows neither.  Samples taken every `SAMPLE_EVERY_S`
    inside an op slow down with it, so the op's time divided by the mean
    sample is steadier than either.  Samples taken just before and after
    an op of several seconds do not: they miss what happens during it.
    The handler's own time is kept so the caller can take it off the op's.
    """

    def __init__(self):
        self.loop_s: list[float] = []
        self.handler_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.loop_s.append(reference_loop())
        self.handler_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.loop_s:   # a block shorter than one interval
            self.loop_s.append(reference_loop())


def environment(thread_cap: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_cap": thread_cap,
        "loadavg_start": os.getloadavg(),
        "reference_start_s": statistics.fmean(reference_loop() for _ in range(50)),
    }


def setup_probes(files: list[str], count: int) -> list[dict]:
    """Import ruinopt and load the scenario files in `count` fresh interpreters."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), *files],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.splitlines()[-1])
        if not Path(doc["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up probe imported ruinopt from {doc['module']}, not {SRC}")
        out.append(doc)
    return out


def run_op(cli, op, speed: SpeedSamples | None = None) -> tuple[float, int, str, str]:
    """(wall seconds, exit code, stdout, stderr) of one CLI call in process.

    With `speed`, the reference loop is sampled during the call, and the
    seconds exclude the time spent sampling.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), speed or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception:
            code = -1
            traceback.print_exc()
        seconds = time.perf_counter() - t0
    if speed is not None:
        seconds -= speed.handler_s
    return seconds, code, out.getvalue(), err.getvalue()


class Measurement:
    """Op times, check results and traces gathered during one run."""

    def __init__(self, cli, run, log):
        self.cli = cli
        self.run = run
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.figures: dict[str, list[dict]] = {}
        self.op_s: dict[str, list[float]] = {}
        self.op_rel: dict[str, list[float]] = {}   # op time / mean reference loop time during it
        self.passes: list[tuple[float, bench_trace.Tracer | None]] = []

    def do(self, op, tracer=None) -> float:
        self.attempted += 1
        if tracer is None:
            speed = SpeedSamples()
            seconds, code, stdout, stderr = run_op(self.cli, op, speed)
            self.op_rel.setdefault(op.name, []).append(seconds / statistics.fmean(speed.loop_s))
        else:
            with bench_trace.traced(self.cli, tracer):
                seconds, code, stdout, stderr = run_op(self.cli, op)
        try:
            if code != 0:
                raise bench_workloads.CheckFailed(f"exit code {code}: {stderr.strip()[-2000:]}")
            figures = op.check(json.loads(stdout), self.run)
        except (bench_workloads.CheckFailed, ValueError, KeyError, OSError) as exc:
            self.failed += 1
            self.log(f"FAILED {op.name}: {exc}")
            figures = getattr(exc, "figures", None)
        if figures is not None:
            self.figures.setdefault(op.name, []).append(figures)
        if tracer is None:
            self.op_s.setdefault(op.name, []).append(seconds)
        return seconds

    def timed_passes(self, seconds: float, trace: bool) -> None:
        """Whole passes until `seconds` have gone; traced runs alternate kinds."""
        timed = [op for op in self.run.ops if op.timed]
        t0 = time.perf_counter()
        while True:
            tracer = bench_trace.Tracer() if trace and len(self.passes) % 2 == 1 else None
            wall = sum(self.do(op, tracer) for op in timed)
            self.passes.append((wall, tracer))
            if time.perf_counter() - t0 >= seconds and len(self.passes) >= (2 if trace else 1):
                return

    def pass_rel(self) -> float:
        """Sum over the timed ops of each op's median time in reference loops."""
        return sum(statistics.median(self.op_rel[op.name]) for op in self.run.ops if op.timed)

    def pass_medians(self) -> tuple[float, float | None]:
        plain = [w for w, t in self.passes if t is None]
        traced = [w for w, t in self.passes if t is not None]
        return statistics.median(plain), (statistics.median(traced) if traced else None)


def layer_metrics(tracer: bench_trace.Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of `wall` seconds."""
    def pct(seconds):
        return 100.0 * seconds / wall

    out = {f"{layer}.busy_pct": pct(tracer.layer_self_s(layer)) for layer in BUSY_LAYERS}
    out.update({name: pct(tracer.self_s.get(span, 0.0)) for name, span in SPAN_SHARES.items()})
    out.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    solve_s = tracer.self_s.get("unconstrained.solve_v_unconstrained", 0.0)
    out["unconstrained.nodes_per_s"] = tracer.counts["unconstrained.node_solves"] / solve_s if solve_s else 0.0
    out["cli.other_pct"] = pct(wall - tracer.top_s)
    return out


def median_dict(rows: list[dict]) -> dict[str, float]:
    """Per-key median; counts keep a value that occurred, so they stay whole."""
    return {
        key: (statistics.median_low if isinstance(rows[0][key], int) else statistics.median)(
            [row[key] for row in rows])
        for key in rows[0]
    }


def trace_table(m: Measurement, log) -> None:
    traced = [(w, t) for w, t in m.passes if t is not None]
    n = len(traced)
    wall = sum(w for w, _ in traced) / n
    spans = sorted({name for _, t in traced for name in t.total_s})
    log(f"traced pass: {wall:.3f} s (mean of {n}); spans per pass:")
    log(f"  {'span':44s} {'calls':>9s} {'self s':>9s} {'total s':>9s} {'self %':>7s}")
    for name in spans:
        calls = sum(t.calls[name] for _, t in traced) / n
        self_s = sum(t.self_s[name] for _, t in traced) / n
        total = sum(t.total_s[name] for _, t in traced) / n
        log(f"  {name:44s} {calls:9.0f} {self_s:9.4f} {total:9.4f} {100 * self_s / wall:7.2f}")
    other = sum(w - t.top_s for w, t in traced) / n
    log(f"  {'cli.other':44s} {'':9s} {other:9.4f} {'':9s} {100 * other / wall:7.2f}")
    counters = sorted({name for _, t in traced for name in t.counts})
    for name in counters:
        log(f"  counter {name:36s} {sum(t.counts[name] for _, t in traced) / n:14.0f} per pass")
    mc_s = sum(t.self_s.get("mc.estimate_survival", 0.0) + t.self_s.get("results.strategy_eval", 0.0)
               for _, t in traced)
    steps = sum(t.counts.get("mc.path_steps", 0) for _, t in traced)
    if mc_s:
        log(f"  mc.path_steps_per_s (estimate_survival incl. strategy) {steps / mc_s:.4g} 1/s")


def measure(cli, workload: str, seed: int, seconds: float, trace: bool, thread_cap: int,
            *, small: bool = False, probes: int = SETUP_PROBES, log=print) -> dict:
    """One run of `workload`; returns the result object the benchmark prints last."""
    env = environment(thread_cap)
    workdir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = bench_workloads.WORKLOADS[workload](workdir, seed, small)
        files = sorted(str(p) for p in workdir.glob("*.scn"))
        setup = setup_probes(files, probes)

        warm_dir = workdir / "warm"
        warm_dir.mkdir()
        for op in bench_workloads.WORKLOADS[workload](warm_dir, seed, True).ops:
            run_op(cli, op)

        m = Measurement(cli, run, log)
        for op in run.ops:
            if not op.timed:
                m.do(op)
        m.timed_passes(seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    env["loadavg_end"] = os.getloadavg()
    env["reference_end_s"] = statistics.fmean(reference_loop() for _ in range(50))
    log("env " + json.dumps(env))
    plain_s, traced_s = m.pass_medians()
    log(f"{'op':18s} {'runs':>4s} {'median s':>9s} {'min s':>9s} {'max s':>9s} {'median ref_loops':>17s}")
    for name, times in m.op_s.items():
        log(f"{name:18s} {len(times):4d} {statistics.median(times):9.4f} {min(times):9.4f} {max(times):9.4f}"
            f" {statistics.median(m.op_rel[name]):17.1f}")

    if trace:
        metrics = median_dict([layer_metrics(t, w) for w, t in m.passes if t is not None])
        metrics["traced.pass_s"] = traced_s
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
        metrics["setup.import_s"] = statistics.median(p["import_s"] for p in setup)
        units = PER_LAYER_UNITS
        trace_table(m, log)
    else:
        log(f"median pass wall time {plain_s:.4f} s")
        metrics = {
            "pass_rel": m.pass_rel(),
            "setup_s": statistics.median(p["import_s"] + p["load_s"] for p in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        figures = {name: median_dict(rows) for name, rows in m.figures.items()}
        with contextlib.suppress(KeyError):   # an op that gave no output
            metrics.update(bench_workloads.accuracy_metrics(workload, figures))
        units = UNITS
    for name, value in metrics.items():
        log(f"metric {name:32s} {value:.6g} {units[name]}")
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
