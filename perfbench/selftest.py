#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/selftest.py [--seconds S]

Smoke check: a short run of every workload, untraced and traced, exits 0,
passes its correctness checks, and emits every metric BENCHMARK.json lists
(end_to_end untraced, per_layer traced), each with its unit.

Stall check (sensitivity): a fixed 20 us busy-wait in front of the naming
servant's dispatch must raise resolve_churn's op_p50_us by 10 to 40 us, and
must leave mdo_30_3's ops_per_s within its bound, since that workload does
not resolve in its steady state.  The rise exceeds the stall itself: the
naming servant executes one object key's requests in FIFO order, so each
reader also waits out the stalls of the readers queued ahead of it.  Each
side is the median of three alternating runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STALL_US = 20.0


def run(workload, seconds, trace, seed=1, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


def smoke(bench, seconds, failures):
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, result, output = run(workload, seconds, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"smoke {where}: exit {code}\n{output[-1500:]}")
                continue
            metrics = result["metrics"]
            for spec in expected[trace]:
                got = metrics.get(spec["name"])
                if got is None or got.get("unit") != spec["unit"]:
                    failures.append(f"smoke {where}: {spec['name']} [{spec['unit']}] "
                                    f"missing or wrong unit: {got}")
            extra = set(metrics) - {spec["name"] for spec in expected[trace]}
            if extra:
                failures.append(f"smoke {where}: unlisted metrics {sorted(extra)}")
            print(f"smoke {where}: {len(metrics)} metrics ok")


def paired_medians(workload, metric, seconds):
    """Median `metric` without and with the naming stall, alternating."""
    plain, stalled = [], []
    for _ in range(3):
        for extra, values in (((), plain),
                              (("--naming-stall-us", str(STALL_US)), stalled)):
            code, result, output = run(workload, seconds, 0, extra=extra)
            if code != 0 or result is None:
                raise RuntimeError(f"{workload} {extra}: exit {code}\n{output[-1500:]}")
            values.append(result["metrics"][metric]["value"])
    return statistics.median(plain), statistics.median(stalled)


def stall(bench, seconds, failures):
    plain, stalled = paired_medians("resolve_churn", "op_p50_us", seconds)
    delta = stalled - plain
    print(f"stall resolve_churn op_p50_us: {plain:.1f} -> {stalled:.1f} us "
          f"(+{delta:.1f}, expect +{0.5 * STALL_US:.0f} to +{2 * STALL_US:.0f})")
    if not 0.5 * STALL_US <= delta <= 2.0 * STALL_US:
        failures.append(f"stall: resolve_churn op_p50_us moved {delta:.1f} us")

    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "ops_per_s")
    plain, stalled = paired_medians("mdo_30_3", "ops_per_s", seconds)
    change = stalled / plain - 1.0
    print(f"stall mdo_30_3 ops_per_s: {plain:.1f} -> {stalled:.1f} "
          f"({100 * change:+.1f} %, bound {100 * bound:.0f} %)")
    if abs(change) > bound:
        failures.append(f"stall: mdo_30_3 ops_per_s moved {100 * change:+.1f} %")


def main():
    parser = argparse.ArgumentParser(description="perfbench self-test")
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    smoke(bench, args.seconds, failures)
    stall(bench, args.seconds, failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
