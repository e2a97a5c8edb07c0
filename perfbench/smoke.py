#!/usr/bin/env python3
"""Smoke test of the benchmark itself (about a minute).

    python3 perfbench/smoke.py

Run from the repository root.  For every workload in BENCHMARK.json it
runs three ops through run.py (an exact count, whatever the host speed),
untraced and traced, and asserts that

  * every end-to-end metric (untraced) and every per-layer metric (traced)
    is printed with the unit BENCHMARK.json gives it, and nothing else;
  * no op failed its output checks -- for the traced runs this includes
    the traced RunReports being byte-identical to the untraced ones;
  * a deliberately corrupted output counts as exactly one failed op: one
    flipped report byte on every workload, and a "cached":false response on
    service-hot.

Exits non-zero on the first violated assertion.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHORT = ["--seconds", "1", "--ops", "3"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--trace", str(trace), *SHORT, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def expect(cond, what):
    if not cond:
        sys.exit(f"FAIL {what}")
    print(f"ok   {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            r = run(w, trace)
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == units[trace],
                   f"{w} trace={trace}: metrics and units as declared")
            expect(all(isinstance(v["value"], (int, float))
                       for v in r["metrics"].values()),
                   f"{w} trace={trace}: every value is a number")
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{w} trace={trace}: {r['attempted']} ops, none failed")
        kinds = ["report"] + (["uncached"] if w == "service-hot" else [])
        for kind in kinds:
            r = run(w, 0, "--corrupt", kind)
            expect(not r["correct"] and r["failed"] == 1,
                   f"{w}: corrupt={kind} counts exactly one failed op "
                   f"(of {r['attempted']})")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
