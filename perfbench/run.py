#!/usr/bin/env python3
"""Serving benchmark for privrec's RecommendationService.

Builds the library from src/ and the benchmark program in this directory
with CMake (into $CARGO_TARGET_DIR, default .bench_build), then runs
workloads whose parameters all live in perfbench/config.json:

  python3 perfbench/run.py --workload cold_reads --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 30
  python3 perfbench/run.py --spread --workload churn --runs 10 --seconds 30

One run prints human-readable lines and, as the last line of stdout, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. It exits non-zero when an output check fails.

--spread repeats one workload over consecutive seeds and prints, for each
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median next to the metric's bound.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(jobs):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not (ROOT / "src" / "serve" / "recommendation_service.h").is_file():
        fail(f"privrec sources not found under {ROOT / 'src'}")
    out = build_dir() / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(jobs)],
                   check=True, stdout=sys.stderr)
    return out / "serving_bench"


def load_json(path):
    with open(path) as f:
        return json.load(f)


def workload_flags(config, workload):
    params = dict(config["common"])
    params.update(config["workloads"][workload])
    return [f"--{key}={value}" for key, value in params.items()]


def run_once(binary, config, bench, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, parsed result)."""
    work = build_dir() / "runs" / f"{workload}-s{seed}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    args = [str(binary), f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--trace={trace}", f"--work_dir={work}",
            *workload_flags(config, workload)]
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} exceeded {RUN_TIMEOUT_S} s", 3)
    finally:
        # Durable logs and probe scratch are large; span dumps are kept.
        for sub in ("durable", "probe"):
            shutil.rmtree(work / sub, ignore_errors=True)
        if trace == 0:
            shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"{workload} seed {seed} printed nothing (exit {proc.returncode})",
             3)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines), file=sys.stderr)
        fail(f"{workload} seed {seed} did not end with a result "
             f"(exit {proc.returncode})", 3)
    expected = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        print("\n".join(lines[:-1]), file=sys.stderr)
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, unexpected "
             f"{sorted(set(got) - set(want))}, unit mismatches "
             f"{sorted(n for n in want if n in got and want[n] != got[n])}", 3)
    return proc.returncode, lines, result


def spread(binary, config, bench, workload, runs, seed_base, seconds):
    values = {}
    correct = True
    for i in range(runs):
        seed = seed_base + i
        code, _, result = run_once(binary, config, bench, workload, seed,
                                   seconds, 0)
        correct &= code == 0 and result["correct"]
        summary = " ".join(f"{k}={v['value']:.4g}"
                           for k, v in result["metrics"].items())
        print(f"{workload} seed {seed}: {summary}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        share = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        flag = "" if share < bound / 3 else (" <bound" if share <= bound
                                              else " OVER")
        print(f"{name:<18} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{share:>8.4f} {bound:>6.2f}{flag}")
        report[name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                        "bound": bound}
    print(json.dumps({"workload": workload, "runs": runs, "correct": correct,
                      "metrics": report}))
    return 0 if correct else 1


def main():
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps
    # the running benchmark before run.py exits.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of config.json, or 'all' for "
                        "those BENCHMARK.json lists")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", action="store_true",
                        help="repeat the workload over --runs seeds")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    args = parser.parse_args()

    if not (ROOT / "src").is_dir():
        fail(f"no library sources next to {HERE.name}/; run from a full "
             "checkout")
    config = load_json(HERE / "config.json")
    bench = load_json(ROOT / "BENCHMARK.json")
    if list(config["layers"]) != [m["name"] for m in bench["per_layer"]]:
        fail("config.json's layer map and BENCHMARK.json's per_layer list "
             "name different metrics")
    names = list(config["workloads"])
    gated = [w["name"] for w in bench["workloads"]]
    workloads = gated if args.workload == "all" else [args.workload]
    for w in workloads:
        if w not in config["workloads"]:
            fail(f"unknown workload {w!r}; choose from {names} or 'all'")
    binary = build(args.jobs)

    if args.spread:
        return max(spread(binary, config, bench, w, args.runs, args.seed,
                          args.seconds) for w in workloads)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in workloads:
        code, lines, result = run_once(binary, config, bench, w, args.seed,
                                       args.seconds, args.trace)
        if len(workloads) == 1:
            print("\n".join(lines), flush=True)
            return code
        print(f"== {w}")
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, code)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
