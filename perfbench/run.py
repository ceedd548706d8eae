#!/usr/bin/env python3
"""Build and run one workload of the STEP benchmark, or a steadiness report.

Run from the repository root:

    python3 perfbench/run.py --workload qbf-ladder --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py report --seeds 1,2 --runs 5 --seconds 15

The first form builds `step` and `perfbench` (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload, echoes
its human-readable lines, and prints as its last line one JSON object:
the metrics `BENCHMARK.json` lists (`end_to_end` with `--trace 0`,
`per_layer` with `--trace 1`), plus `correct`, `attempted` and `failed`.
It exits 1 when any output was wrong (after printing the JSON), and
without a JSON line when the build or the run itself fails.

The `report` form runs every workload repeatedly under each seed and
prints each metric's median and quartiles; it fails if a deterministic
metric differs between any two runs. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

# Metrics that must repeat exactly across runs, under any seed: the
# answers and the work (every seed relabels the same input family).
DETERMINISTIC = {
    "*": ["solved_ratio", "decomposed_ratio", "partition_cost", "ok_ratio",
          "work_conflicts"],
    "synth-recursive": ["synth_gates", "synth_depth"],
}
DETERMINISTIC_LAYERS = {
    "qbf-ladder": ["oracle.sat_calls", "sat.conflicts", "sat.propagations",
                   "qbf.calls", "qbf.cegar_iterations", "partition.cost",
                   "session.replays"],
    "synth-recursive": ["oracle.sat_calls", "sat.conflicts", "sat.propagations",
                        "synth.nodes_expanded", "synth.bdd_splits", "synth.gates",
                        "synth.depth", "store.result_hit_ratio", "bank.hit_ratio",
                        "bank.donated_clauses"],
}


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def parse_metric(line):
    """Parses `metric <name> <value> <unit> [n=<samples>]`, else None."""
    fields = line.split()
    if len(fields) not in (4, 5) or fields[0] != "metric":
        return None
    try:
        value = float(fields[2])
    except ValueError:
        return None
    if value != value or value in (float("inf"), float("-inf")):
        return None
    samples = None
    if len(fields) == 5:
        if not fields[4].startswith("n="):
            return None
        try:
            samples = int(fields[4][2:])
        except ValueError:
            return None
    return {"name": fields[1], "value": value, "unit": fields[3], "samples": samples}


def parse_result(line):
    """Parses `result correct=<bool> attempted=<n> failed=<n>`, else None."""
    fields = line.split()
    if not fields or fields[0] != "result":
        return None
    kv = dict(f.split("=", 1) for f in fields[1:] if "=" in f)
    try:
        return {
            "correct": kv["correct"] == "true",
            "attempted": int(kv["attempted"]),
            "failed": int(kv["failed"]),
        }
    except (KeyError, ValueError):
        return None


def compose(lines, wanted):
    """The result object from a run's output lines.

    `wanted` maps each metric name to the unit BENCHMARK.json gives it.
    Every wanted metric must be present with that unit.
    """
    metrics, result = {}, None
    for line in lines:
        m = parse_metric(line)
        if m:
            metrics[m["name"]] = m
        r = parse_result(line)
        if r:
            result = r
    if result is None:
        raise BenchError("the run printed no result line")
    if result["attempted"] < 1:
        raise BenchError("the run attempted no operations")
    out = {}
    for name, unit in wanted.items():
        m = metrics.get(name)
        if m is None:
            raise BenchError(f"metric {name} missing from the run")
        if m["unit"] != unit:
            raise BenchError(f"metric {name} in {m['unit']}, BENCHMARK.json says {unit}")
        out[name] = {"value": m["value"], "unit": unit}
    return dict(result, metrics=out)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(root):
    """Builds `step` and `perfbench` in release mode, offline."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(root))
    for args in (
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "step"],
        ["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        try:
            done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build failed: {e}")
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)} exited {done.returncode}")


def run_workload(root, workload, seed, seconds, trace):
    """Runs the built binary; returns (exit code, stdout lines)."""
    release = os.path.join(target_dir(root), "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
        "--step-bin", os.path.join(release, "step"),
        "--out", os.path.join(BENCH_DIR, "out"),
    ]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"run failed: {e}")
    return done.returncode, done.stdout.splitlines()


def measure(root, spec, workload, seed, seconds, trace, echo=True):
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {workload}")
    code, lines = run_workload(root, workload, seed, seconds, trace)
    if echo:
        for line in lines:
            print(line)
    kind = "per_layer" if trace else "end_to_end"
    result = compose(lines, {m["name"]: m["unit"] for m in spec[kind]})
    if code != 0 and result["correct"]:
        raise BenchError(f"perfbench exited {code}")
    return result, lines


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def all_metrics(lines):
    """Every metric a run printed, by name."""
    return {m["name"]: m["value"] for m in map(parse_metric, lines) if m}


def report(root, spec, seeds, runs, seconds, workloads):
    """Steadiness report: median and quartiles per metric and seed."""
    ok = True
    for workload in workloads:
        fixed = DETERMINISTIC["*"] + DETERMINISTIC.get(workload, [])
        seen = {}
        for seed in seeds:
            def go(trace):
                result, lines = measure(root, spec, workload, seed, seconds, trace, echo=False)
                return result["correct"], all_metrics(lines)
            plain = [go(False) for _ in range(runs)]
            traced = [go(True) for _ in range(2)]
            print(f"== {workload} seed {seed}: {runs} runs")
            for name in plain[0][1]:
                values = [m[name] for _, m in plain]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else 0.0
                flag = ""
                if name in fixed:
                    seen.setdefault(name, values[0])
                    if len(set(values + [seen[name]])) > 1:
                        flag, ok = "  NOT DETERMINISTIC", False
                print(f"  {name:<22} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                      f" spread {spread:.3f}{flag}")
            for name in DETERMINISTIC_LAYERS.get(workload, []):
                a, b = (m[name] for _, m in traced)
                if a != b:
                    print(f"  {name} differs between traced runs: {a} vs {b}")
                    ok = False
            untraced = statistics.median(m["outputs_per_s"] for _, m in plain)
            with_trace = traced[0][1]["trace.outputs_per_s"]
            print(f"  tracing overhead: outputs_per_s {untraced:.6g} untraced, "
                  f"{with_trace:.6g} traced ({(untraced / with_trace - 1) * 100:+.1f}%)")
            if not all(c for c, _ in plain + traced):
                print("  INCORRECT OUTPUT")
                ok = False
    return ok


def main(argv):
    root = os.getcwd()
    if argv[:1] == ["report"]:
        p = argparse.ArgumentParser(prog="run.py report")
        p.add_argument("--seeds", default="1,2")
        p.add_argument("--runs", type=int, default=5)
        p.add_argument("--seconds", type=float, default=None)
        p.add_argument("--workloads", default=None)
        a = p.parse_args(argv[1:])
        spec = load_spec(root)
        build(root)
        names = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
        seeds = [int(s) for s in a.seeds.split(",")]
        ok = report(root, spec, seeds, a.runs, a.seconds or spec["run_seconds"], names)
        return 0 if ok else 1
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    spec = load_spec(root)
    build(root)
    result, _ = measure(root, spec, a.workload, a.seed, a.seconds, a.trace == 1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
