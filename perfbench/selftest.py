#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced on tiny inputs and
checks that each run succeeds and emits exactly the declared end-to-end or
per-layer metrics, each with its declared unit. Then runs one workload with
the first imputation output truncated by one row and checks that the run
counts it as a failed operation. Exits non-zero on the first problem.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"selftest: {workload} trace={trace} {extra} exited {proc.returncode}")
    return json.loads(lines[-1])


def check_metrics(result, declared, what):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        raise SystemExit(f"selftest: {what}: missing {sorted(set(want) - set(got))}, "
                         f"undeclared {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            raise SystemExit(f"selftest: {what}: {name} has unit {got[name]['unit']}, declared {unit}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SystemExit(f"selftest: {what}: {name} is not a number: {value!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            what = f"{w} trace={trace}"
            r = run(w, trace)
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                raise SystemExit(f"selftest: {what}: correct={r['correct']} "
                                 f"attempted={r['attempted']} failed={r['failed']}")
            check_metrics(r, declared, what)
            print(f"selftest: {what}: ok, {r['attempted']} operations, {len(r['metrics'])} metrics")
    w = spec["workloads"][0]["name"]
    r = run(w, 0, "--fault", "truncate")
    if r["correct"] or r["failed"] < 1:
        raise SystemExit(f"selftest: a truncated output was not counted as failed: {r}")
    print(f"selftest: {w} with a truncated output: ok, {r['failed']} of {r['attempted']} failed")


if __name__ == "__main__":
    main()
