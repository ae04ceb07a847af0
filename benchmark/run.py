#!/usr/bin/env python3
"""Build and run the FT-GEMM gating benchmark.

One workload, as BENCHMARK.json at the repository root names it:

    python3 benchmark/run.py --workload gemm_serial --seed 1 --seconds 25 --trace 0

The last line printed is the JSON result.  Without --workload every
workload runs, each in its own process, and the results are written to
bench_results.json:

    python3 benchmark/run.py [--seed N] [--trace] [--smoke] [--out FILE]

Run it from the repository root.  The first run configures and builds the
library and the harness into .bench_build/ (CMake, Release); later runs only
rebuild what changed.  The benchmark measures the library's defaults, so it
refuses to run while any FTGEMM_* or OMP_* variable is set.  Exit status is
non-zero when a build fails or any output check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_suite")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "ftgemm.hpp")):
        fail("library sources not found under %s/src" % ROOT)
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=ROOT, env=env,
                          stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_one(workload, seed, seconds, trace, smoke=False, echo=True):
    """Run one workload; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out" % workload, file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", nargs="?", const="1", default="0",
                    choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true",
                    help="1-second phases on smaller problems; every output "
                         "is still checked")
    ap.add_argument("--out", help="result file of the all-workloads run "
                                  "(default bench_results.json)")
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ
                   if k.startswith("FTGEMM_") or k.startswith("OMP_"))
    if knobs:
        fail("unset %s: the benchmark measures the library defaults"
             % " ".join(knobs))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or (1 if args.smoke else spec["run_seconds"])
    trace = args.trace == "1"
    build()

    if args.workload:
        if args.workload not in names:
            fail("unknown workload %r (have %s)" % (args.workload, names))
        code, result = run_one(args.workload, args.seed, seconds, trace,
                               args.smoke)
        if args.out and result is not None:
            with open(args.out, "w") as f:
                json.dump({"seed": args.seed, "trace": trace,
                           "workloads": {args.workload: result}}, f, indent=1)
        return code

    results, worst = {}, 0
    for name in names:
        code, result = run_one(name, args.seed, seconds, trace, args.smoke,
                               echo=False)
        worst = max(worst, code)
        if result is None:
            print("%s: no result (exit %d)" % (name, code))
            worst = max(worst, 1)
            continue
        results[name] = result
        for metric, m in result["metrics"].items():
            print("%s %s %.6g %s" % (name, metric, m["value"], m["unit"]))
        print("%s attempted %d failed %d correct %s"
              % (name, result["attempted"], result["failed"],
                 result["correct"]))
    out = args.out or os.path.join(ROOT, "bench_results.json")
    with open(out, "w") as f:
        json.dump({"seed": args.seed, "trace": trace, "smoke": args.smoke,
                   "workloads": results}, f, indent=1)
    print("results written to %s" % out)
    return worst


if __name__ == "__main__":
    sys.exit(main())
