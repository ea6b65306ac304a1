#!/usr/bin/env python3
"""DCDB pipeline benchmark.

Builds the benchmark program (perfbench/src, linked against the DCDB
libraries in ../src) with CMake, then runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of output is the JSON result. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones; the
lines before it print every metric computed, with its unit and sample.

Stability report: run every workload (or --workloads a,b) --runs times,
each with another seed, in --sets independent sets, and print each
end-to-end metric's median, quartiles and spread against its bound (and
the spread of the metrics printed but not gated):

    python3 perfbench/run.py --stability [--runs 10] [--sets 1]
        [--seconds S] [--first-seed 1] [--workloads NAME,...] [--values]

It exits non-zero if a run fails, is incorrect or loses a reading, if a
gated metric's spread exceeds its bound, or if a later set's median is
worse than the first set's by more than the bound.

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); results, span logs and the scratch data
directory go to perfbench-out beside it. layers.json records why each
workload exists, the layer-to-metric map, what was dropped as unsteady
and the held-out seed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configure (once) and build pipeline_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: DCDB sources not found under " +
                 os.path.join(ROOT, "src"))
    build_dir = os.path.join(build_root(), "perfbench")
    # Keep the compiler's temporary files inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(build_root(), "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "pipeline_bench")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench_args(binary, workload, seed, seconds, trace):
    """The result carries BENCHMARK.json's metrics for this --trace."""
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", os.path.join(build_root(), "perfbench-out"),
            "--report", ",".join(m["name"] for m in spec)]


def spread(values):
    """Quartile distance over the median, as the acceptance check takes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else float("inf")


def run_record(binary, workload, seed, seconds):
    """One untraced run; returns every metric it computed (value and unit),
    or None (after saying why) if it failed, was incorrect or lost
    readings."""
    proc = subprocess.run(bench_args(binary, workload, seed, seconds, 0),
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct") or result.get("failed"):
        print(f"{workload} seed {seed}: BAD RUN exit={proc.returncode} "
              f"correct={result.get('correct')} "
              f"failed={result.get('failed')} {proc.stderr.strip()[-300:]}")
        return None
    path = os.path.join(build_root(), "perfbench-out", "results",
                        f"{workload}-seed{seed}-trace0.json")
    with open(path) as f:
        samples = json.load(f)["samples"]
    return samples


def stability(args, binary):
    bench = benchmark_spec()
    gated = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    problems = []
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values, units = {}, {}
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                metrics = run_record(binary, workload, seed, seconds)
                if metrics is None:
                    problems.append(f"{workload} seed {seed}: bad run")
                    continue
                for name, m in metrics.items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
            if len(next(iter(values.values()), [])) < 2:
                problems.append(f"{workload} set {s + 1}: too few good runs")
                return report_problems(problems)
            sets.append(values)
        print(f"\n{workload}: {args.sets} set(s) x {args.runs} runs of "
              f"{seconds} s (metrics without a bound are printed only)")
        print(f"  {'metric':26} {'unit':>10} {'set':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for name in sets[0]:
            m = gated.get(name)
            medians = []
            for s, values in enumerate(sets):
                q1, median, q3, sp = spread(values[name])
                medians.append(median)
                flag = ""
                if m and sp > m["bound"]:
                    flag = "  UNSTEADY"
                    problems.append(f"{workload}/{name} spread {sp:.3f} > "
                                    f"bound {m['bound']}")
                elif m and sp > m["bound"] / 3:
                    flag = "  above bound/3"
                bound = f"{m['bound']:6.2f}" if m else f"{'-':>6}"
                print(f"  {name:26} {units[name]:>10} {s + 1:>3} "
                      f"{median:12.6g} {q1:12.6g} {q3:12.6g} {sp:7.3f} "
                      f"{bound}{flag}")
                if args.values:
                    print("      " + " ".join(f"{v:.4g}" for v in values[name]))
            if m and len(medians) > 1:
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (medians[-1] - medians[0]) / medians[0]
                verdict = "ok"
                if worse > m["bound"]:
                    verdict = "DRIFT"
                    problems.append(f"{workload}/{name} median worse by "
                                    f"{worse:+.3f} > bound {m['bound']}")
                print(f"  {name:26} last set's median worse by {worse:+.3f}"
                      f" ({verdict})")
    with open(os.path.join(HERE, "layers.json")) as f:
        dropped = json.load(f)["dropped_as_unsteady"]
    print("\nnot gated, as unsteady (spread when dropped):")
    for name, why in dropped.items():
        print(f"  {name}: {why}")
    return report_problems(problems)


def report_problems(problems):
    if problems:
        print("\nFAILED:\n  " + "\n  ".join(problems))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stability", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--values", action="store_true",
                        help="stability report: also print every run's value")
    args = parser.parse_args()
    if not args.stability and (not args.workload or not args.seconds):
        parser.error("--workload and --seconds are required")

    binary = build()
    if args.stability:
        return stability(args, binary)
    sys.stdout.flush()
    os.execv(binary, bench_args(binary, args.workload, args.seed,
                                 args.seconds, args.trace))


if __name__ == "__main__":
    sys.exit(main())
