"""Tests of the benchmark itself: declared metrics, inputs, determinism.

Run with the repository's tier-1 command; `src` must be importable.
The metric-name test drives every workload on its small inputs (a coarse
grid and a few hundred paths), so it checks the plumbing, not the figures.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_runner  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402
import ruinopt.cli as cli  # noqa: E402
from ruinopt.scenario import example1_params, example2_params, parse_scenario, scenario_text  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _build(workload: str, directory: Path, seed: int) -> dict[str, bytes]:
    directory.mkdir(parents=True)
    bench_workloads.WORKLOADS[workload](directory, seed, False)
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.scn"))}


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench_workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(bench_workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_equal_declared(workload, trace):
    result = bench_runner.measure(cli, workload, 3, 0.0, trace, 1, small=True, probes=1, log=lambda line: None)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1


def test_parameter_sets_are_the_papers():
    for literal, params in ((bench_workloads.BENCH1, example1_params()), (bench_workloads.BENCH2, example2_params())):
        assert {("lam" if k == "lambda" else k): v for k, v in literal.items()} == {
            k: v for k, v in dataclasses.asdict(params).items() if k != "cap"
        }


@pytest.mark.parametrize("workload", list(bench_workloads.WORKLOADS))
def test_scenarios_round_trip(workload, tmp_path):
    files = _build(workload, tmp_path / "in", 11)
    assert files
    for name, data in files.items():
        sc = parse_scenario(data.decode("utf-8"))
        again = parse_scenario(scenario_text(sc))
        assert again.raw == sc.raw, name
        assert again.params == sc.params and again.grid == sc.grid and again.sim == sc.sim, name


@pytest.mark.parametrize("workload", list(bench_workloads.WORKLOADS))
def test_same_seed_same_inputs(workload, tmp_path):
    first = _build(workload, tmp_path / "a", 5)
    assert _build(workload, tmp_path / "b", 5) == first
    other = _build(workload, tmp_path / "c", 6)
    # the seed reaches only mc.seed
    assert (other == first) == (workload != "mc")


@pytest.mark.parametrize("workload", list(bench_workloads.WORKLOADS))
def test_tracing_leaves_outputs_unchanged(workload, tmp_path):
    """A traced or speed-sampled CLI call prints what a plain one prints, timings aside."""
    for op in bench_workloads.WORKLOADS[workload](tmp_path, 2, True).ops:
        plain = bench_runner.run_op(cli, op)
        with bench_trace.traced(cli, bench_trace.Tracer()):
            traced = bench_runner.run_op(cli, op)
        speed = bench_runner.SpeedSamples()
        sampled = bench_runner.run_op(cli, op, speed)
        assert speed.loop_s, op.name
        docs = []
        for _, code, stdout, _ in (plain, traced, sampled):
            assert code == 0, op.name
            docs.append({k: v for k, v in json.loads(stdout).items() if k != "runtime_s"})
        assert docs[0] == docs[1] == docs[2], op.name
