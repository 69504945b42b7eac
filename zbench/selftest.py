#!/usr/bin/env python3
"""Quick self-test of the zbench benchmark at tiny sizes.

Usage (from the root of the checkout):  python3 zbench/selftest.py

For every workload it runs an untraced and a traced pass with --scale tiny
and asserts that:
  - the last output line is the result object with exactly the keys
    correct/attempted/failed/metrics, every correctness check passed, and
    the metrics are exactly the end_to_end (untraced) or per_layer (traced)
    names and units listed in BENCHMARK.json, the end-to-end ones non-zero;
  - a second traced pass on the same seed repeats every count exactly;
  - the ledger's layer self times plus the unattributed remainder add up to
    the wall time.
It also flips one signature bit in the mc-proofheavy inputs (--corrupt sig)
and asserts that the correctness checks catch it. Exits non-zero on the
first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mc-proofheavy", "sc-epochs", "net-cluster"]
EXACT_UNITS = {"count", "ticks", "bytes"}
LAYERS = ["crypto", "snark", "merkle", "mc", "par", "latus", "core", "net",
          "sim"]


def run(workload, trace, seed=5, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--scale", "tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s exited with %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def fail(msg):
    print("SELFTEST FAILED: " + msg)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


def check_result(workload, trace, result, spec):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           "%s: result keys %s" % (workload, sorted(result)))
    expect(result["correct"] is True and result["failed"] == 0,
           "%s trace=%d: correctness checks failed" % (workload, trace))
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           "%s: attempted must be a positive integer" % workload)
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    expect(sorted(got) == sorted(m["name"] for m in wanted),
           "%s trace=%d: metric names differ from BENCHMARK.json" %
           (workload, trace))
    for m in wanted:
        expect(got[m["name"]]["unit"] == m["unit"],
               "%s: unit of %s" % (workload, m["name"]))
        if not trace:
            expect(got[m["name"]]["value"] > 0,
                   "%s: end-to-end metric %s is not positive" %
                   (workload, m["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        _, untraced = run(workload, 0)
        check_result(workload, 0, untraced, spec)
        lines, traced = run(workload, 1)
        check_result(workload, 1, traced, spec)
        expect(traced["metrics"]["failed_frac"]["value"] == 0,
               "%s: failed_frac is not 0" % workload)
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        total = sum(m["ledger.%s.self_ms" % l] for l in LAYERS)
        total += m["ledger.unattributed_ms"]
        expect(abs(total - m["ledger.wall_ms"]) <= 1e-6 * m["ledger.wall_ms"],
               "%s: ledger does not add up to the wall time" % workload)
        expect(m["ledger.wall_ms"] > 0, "%s: empty ledger" % workload)
        _, again = run(workload, 1)
        for name, v in traced["metrics"].items():
            if v["unit"] in EXACT_UNITS:
                expect(again["metrics"][name]["value"] == v["value"],
                       "%s: count %s differs between runs of one seed" %
                       (workload, name))
        print("ok   %s (%d checks, %d lines)" %
              (workload, traced["attempted"], len(lines)))

    _, corrupted = run("mc-proofheavy", 0, extra=["--corrupt", "sig"])
    expect(corrupted["correct"] is False and corrupted["failed"] > 0,
           "a flipped signature bit went unnoticed")
    print("ok   corrupted signature detected (%d of %d checks failed)" %
          (corrupted["failed"], corrupted["attempted"]))
    print("SELFTEST PASSED")


if __name__ == "__main__":
    main()
