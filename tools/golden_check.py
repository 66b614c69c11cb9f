#!/usr/bin/env python3
"""Check a figure bench's --quick stdout against its committed golden copy.

    tools/golden_check.py <binary> <golden>

The bench runs with --quick in a fresh temporary directory, so the
BENCH_*.json files it writes never land in the caller's tree. Figure output
is deterministic virtual time, so any difference is a change in modelled
behaviour: the check fails and names the first differing line. Goldens live
in tests/golden/<fig>.quick.txt and hold only benches whose quick stdout has
no wall-clock or event-count columns.
"""

import argparse
import os
import subprocess
import sys
import tempfile


def run_quick(binary):
    binary = os.path.abspath(binary)
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        proc = subprocess.run([binary, "--quick"], cwd=tmp,
                              stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"golden_check: {binary} --quick exited {proc.returncode}")
    return proc.stdout


def first_difference(want, got):
    """1-based line number of the first differing line, or None."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for i in range(max(len(want_lines), len(got_lines))):
        w = want_lines[i] if i < len(want_lines) else None
        g = got_lines[i] if i < len(got_lines) else None
        if w != g:
            return i + 1, w, g
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary")
    ap.add_argument("golden")
    args = ap.parse_args()

    got = run_quick(args.binary)
    with open(args.golden) as f:
        want = f.read()
    diff = first_difference(want, got)
    if diff is None:
        print(f"golden_check: {os.path.basename(args.golden)} matches")
        return 0
    line, w, g = diff
    print(f"golden_check: {args.golden}:{line}: first differing line")
    print(f"  golden: {'<end of output>' if w is None else w}")
    print(f"  actual: {'<end of output>' if g is None else g}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
