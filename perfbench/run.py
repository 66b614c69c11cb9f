#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output goes to stderr. Per-run
records and trace spans are written under $CARGO_TARGET_DIR/perfbench-results.
The benchmark binary prints its report and, as the last stdout line, the JSON
result; its exit code is passed through (nonzero on any failed check). The
metric names of that result must match BENCHMARK.json, or the run fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cmd, echo=False, **kw):
    """Run a child to completion; forward SIGTERM/SIGINT to it and wait.

    With echo, the child's stdout is copied through; returns (code, last
    stdout line), else the exit code alone."""
    if echo:
        kw["stdout"] = subprocess.PIPE
        kw["text"] = True
    proc = subprocess.Popen(cmd, **kw)

    def forward(signum, _frame):
        proc.send_signal(signum)

    sigs = (signal.SIGTERM, signal.SIGINT)
    old = {s: signal.signal(s, forward) for s in sigs}
    last = ""
    try:
        if echo:
            for line in proc.stdout:
                sys.stdout.write(line)
                last = line
            sys.stdout.flush()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for s, h in old.items():
            signal.signal(s, h)
    return (code, last) if echo else code


def metric_names_match(last_line, trace):
    """The result's metric names equal BENCHMARK.json's list for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        got = set(json.loads(last_line)["metrics"])
    except (ValueError, KeyError, TypeError):
        return False
    if got != want:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "extra %s" % (sorted(want - got), sorted(got - want)),
              file=sys.stderr)
    return got == want


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(target)
    build = os.path.join(target, "perfbench")
    results = os.path.join(target, "perfbench-results")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    err = sys.stderr.fileno()
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", build,
                "-DCMAKE_BUILD_TYPE=Release"], stdout=err) != 0:
            print("perfbench: configure failed", file=sys.stderr)
            return 2
    if run(["cmake", "--build", build, "-j", jobs, "--target", "perfbench"],
           stdout=err) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(results, exist_ok=True)
    sys.stdout.flush()
    code, last = run([os.path.join(build, "perfbench"),
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--out", results],
                     echo=True)
    if code == 0 and not metric_names_match(last, args.trace):
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
