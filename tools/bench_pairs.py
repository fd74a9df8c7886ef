"""Run the benchmark on a parent commit and on this checkout in alternating pairs.

    python3 tools/bench_pairs.py --parent REV --label LABEL \\
        --set NAME WORKLOAD SEED PAIRS [--set ...]

The parent side is `git archive REV`, unpacked into a temporary directory;
the change side is a copy of this checkout's working tree, its tracked
files and its untracked files that are not ignored, made in another
temporary directory.  Neither side starts with a bytecode cache that the
other lacks.  Each pair runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` once
on each side, the parent first on odd pairs, T being the `run_seconds` of
this checkout's BENCHMARK.json.  The script writes
BENCH_<LABEL>.json at the root of the checkout: `what`, `command`,
`machine`, `sets`, `summary` and `runs`.  Each run keeps its environment
line, its per-op times, its median pass wall time, its result object and
the ru_maxrss of its process tree from wait4.  Each summary gives, per
metric, both sides' quartiles, the parent's interquartile range, the pairs
the change won and lost, the median relative change and whether the gain
rule holds: the change lower in at least nine tenths of the pairs, and
lower in the median by more than the parent's interquartile range.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unpack(rev: str, dest: Path) -> None:
    """The committed files of `rev`, written under `dest`."""
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=tar, check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(dest, filter="data")


def copy_working_tree(dest: Path) -> None:
    """This checkout's tracked and untracked, not ignored files, as they stand, copied under `dest`."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout.decode().split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():   # a tracked file deleted from the working tree is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def parse_log(stdout: str) -> dict:
    """Environment, per-op times, pass wall time and result of one run's output."""
    lines = stdout.splitlines()
    out = {"env": None, "ops": {}, "pass_wall_s": None, "result": json.loads(lines[-1])}
    in_table = False
    for line in lines[:-1]:
        if line.startswith("env "):
            out["env"] = json.loads(line[4:])
        elif line.startswith("op ") and "median s" in line:
            in_table = True
        elif line.startswith("median pass wall time"):
            out["pass_wall_s"] = float(line.split()[4])
            in_table = False
        elif in_table:
            name, runs, med, lo, hi, rel = line.split()
            out["ops"][name] = {"runs": int(runs), "median_s": float(med), "min_s": float(lo),
                                "max_s": float(hi), "median_ref_loops": float(rel)}
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    with tempfile.TemporaryFile(mode="w+") as err:
        proc = subprocess.Popen(argv, cwd=checkout, stdout=subprocess.PIPE, stderr=err, text=True)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    record = {"returncode": proc.returncode, "wall_s": time.perf_counter() - t0,
              "rusage": {"children_maxrss_mb": usage.ru_maxrss / 1024.0}}
    try:
        record.update(parse_log(stdout))
    except (ValueError, IndexError) as exc:
        record["error"] = f"{exc}: {stderr.strip()[-2000:]}"
    return record


def quartiles(xs: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return [q1, q2, q3]


def compare(parent: list[float], change: list[float]) -> dict:
    """Paired comparison of one lower-is-better figure."""
    pq, cq = quartiles(parent), quartiles(change)
    lower = sum(c < p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    return {
        "parent_q1_median_q3": pq, "change_q1_median_q3": cq, "parent_iqr": pq[2] - pq[0],
        "change_lower_pairs": lower, "change_higher_pairs": len(parent) - lower - ties, "ties": ties,
        "median_rel_change": (cq[1] - pq[1]) / pq[1] if pq[1] else None,
        "gain_rule_met": lower >= 0.9 * len(parent) and pq[1] - cq[1] > pq[2] - pq[0],
    }


def summarise(name: str, workload: str, seed: int, runs: list[dict]) -> dict:
    sides = {side: [r for r in runs if r["side"] == side and "result" in r] for side in ("parent", "change")}
    if len(sides["parent"]) != len(sides["change"]) or not sides["parent"]:
        return {"set": name, "workload": workload, "seed": seed, "error": "a run gave no result"}
    per = {side: {m: [r["result"]["metrics"][m]["value"] for r in rs] for m in rs[0]["result"]["metrics"]}
           for side, rs in sides.items()}
    for side, rs in sides.items():
        per[side]["pass_wall_s"] = [r["pass_wall_s"] for r in rs]
    ops = {side: {op: {"median_of_run_medians_s": statistics.median(r["ops"][op]["median_s"] for r in rs),
                       "median_of_run_median_ref_loops":
                           statistics.median(r["ops"][op]["median_ref_loops"] for r in rs)}
                  for op in rs[0]["ops"]} for side, rs in sides.items()}
    return {
        "set": name, "workload": workload, "seed": seed, "pairs": len(sides["parent"]),
        "metrics": {m: compare(per["parent"][m], per["change"][m]) for m in per["parent"]},
        "rusage_children_maxrss_mb_median": {
            side: statistics.median(r["rusage"]["children_maxrss_mb"] for r in rs)
            for side, rs in sides.items()},
        "op_wall_s": ops,
        "failed_ops": {side: sum(r["result"]["failed"] for r in rs) for side, rs in sides.items()},
        "attempted_ops": {side: sum(r["result"]["attempted"] for r in rs) for side, rs in sides.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    ap.add_argument("--set", nargs=4, action="append", required=True,
                    metavar=("NAME", "WORKLOAD", "SEED", "PAIRS"))
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    runs, summary = [], []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change:
        sides = {"parent": Path(parent), "change": Path(change)}
        unpack(args.parent, sides["parent"])
        copy_working_tree(sides["change"])
        for name, workload, seed, pairs in args.set:
            seed, set_runs = int(seed), []
            for pair in range(1, int(pairs) + 1):
                order = ("parent", "change") if pair % 2 == 1 else ("change", "parent")
                for i, side in enumerate(order):
                    record = {"set": name, "workload": workload, "seed": seed, "trace": 0, "pair": pair,
                              "side": side, "ran_first": i == 0}
                    record.update(run_once(sides[side], workload, seed, seconds))
                    set_runs.append(record)
                    rel = record.get("result", {}).get("metrics", {}).get("pass_rel", {}).get("value")
                    print(f"{name} pair {pair} {side}: pass_rel {rel} wall {record['wall_s']:.1f} s",
                          file=sys.stderr)
            runs += set_runs
            summary.append(summarise(name, workload, seed, set_runs))

    env = next((r["env"] for r in runs if r.get("env")), {})
    doc = {
        "what": "perfbench result lines, the parent commit (git archive) against a fresh copy of "
                "this checkout's working tree (tracked and untracked, not ignored files), in "
                "alternating order per pair (odd pairs parent first), written by tools/bench_pairs.py",
        "command": shlex.join(["python3", "tools/bench_pairs.py", *(sys.argv[1:] if argv is None else argv)]),
        "machine": f"{env.get('nproc')} CPUs, Python {env.get('python')}, numpy {env.get('numpy')}, "
                   f"scipy {env.get('scipy')}",
        "sets": {name: f"{workload}, seed {seed}, {pairs} pairs" for name, workload, seed, pairs in args.set},
        "summary": summary,
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
