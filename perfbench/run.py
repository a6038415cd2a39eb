#!/usr/bin/env python3
"""Builds and runs the PMWare study benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 20141208 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The first form builds perfbench/ (which compiles ../src) into the directory
named by CARGO_TARGET_DIR, default .bench_build, runs one workload and prints
the benchmark's JSON result as the last line of stdout. It exits non-zero
when the build fails, a correctness check fails, or the run overstays.

--selftest runs every workload of BENCHMARK.json at smoke size (2
participants x 1 day), traced and untraced, and checks that each metric
BENCHMARK.json names is printed, with its unit, and nothing else.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no src/ next to perfbench/: not a PMWare checkout")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, env=env,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def run(binary, args):
    """Runs the binary; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            code, result = run(binary, ["--workload", workload["name"],
                                        "--seed", "20141208", "--seconds", "1",
                                        "--trace", str(trace), "--smoke"])
            problems = []
            if code != 0 or result is None or not result.get("correct"):
                problems.append(f"exit {code}, result {result and result.get('correct')}")
            got = {k: v.get("unit") for k, v in (result or {}).get("metrics", {}).items()}
            problems += [f"missing {n}" for n in want if n not in got]
            problems += [f"unexpected {n}" for n in got if n not in want]
            problems += [f"{n}: unit {got[n]!r}, want {u!r}"
                         for n, u in want.items() if n in got and got[n] != u]
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            log(f"selftest {workload['name']} --trace {trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=20141208)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.selftest:
        return selftest(binary)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
