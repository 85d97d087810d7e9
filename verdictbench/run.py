#!/usr/bin/env python3
"""Build and run the PUFatt verdict benchmark.

    python3 verdictbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 verdictbench/run.py --self-check

Run from the root of a checkout.  The first run configures and builds the
program's libraries and the benchmark binary under $CARGO_TARGET_DIR (default
.bench_build); later runs rebuild incrementally.  The binary's standard output
is passed through; its last line is the result JSON.

--self-check runs every workload of BENCHMARK.json briefly, untraced and
traced, and verifies that each run passes its correctness checks and prints
exactly the metrics BENCHMARK.json names, each with its declared unit.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"verdictbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to verdictbench/; "
             "run from a full checkout")
    for var in ("CXXFLAGS", "CFLAGS", "LDFLAGS"):
        if "-fsanitize" in os.environ.get(var, ""):
            fail(f"refusing to time a sanitizer build ({var} has -fsanitize)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "verdictbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 2)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                       "--target", "verdictbench"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "verdictbench")


def run_once(exe, workload, seed, seconds, trace):
    """Runs the binary; returns (exit code, stdout text)."""
    proc = subprocess.Popen(
        [exe, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def self_check(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            before = len(problems)
            code, out = run_once(exe, workload, 1, 2, trace)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: no result line (exit {code})")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if code != 0 or result.get("correct") is not True:
                problems.append(f"{label}: correctness checks failed (exit {code})")
            if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
                problems.append(f"{label}: attempted must be a whole number >= 1")
            declared = {m["name"]: m["unit"] for m in bench[key]}
            metrics = result.get("metrics", {})
            if set(metrics) != set(declared):
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(declared) - set(metrics))}, "
                                f"extra {sorted(set(metrics) - set(declared))}")
            for name, unit in declared.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: {name} should be a number in {unit}, got {got}")
                if not re.search(rf"^metric {re.escape(name)}\s+= \S+ {re.escape(unit)}$",
                                 out, re.MULTILINE):
                    problems.append(f"{label}: no printed line for {name} [{unit}]")
                if key == "end_to_end" and got.get("value") in (0, 0.0):
                    problems.append(f"{label}: {name} reads 0")
            print(f"self-check {label}: "
                  f"{'ok' if len(problems) == before else 'FAILED'}", file=sys.stderr)
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    print(json.dumps({"self_check": "fail" if problems else "ok",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and (args.workload is None or args.seed is None
                                or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    exe = build()
    if args.self_check:
        return self_check(exe)
    code, out = run_once(exe, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
