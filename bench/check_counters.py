#!/usr/bin/env python3
"""Gate a fresh BENCH_<area>.json against the committed one.

Usage: bench/check_counters.py <committed.json> <fresh.json>

Both files are google-benchmark's native JSON (--benchmark_out=<f>
--benchmark_out_format=json). Only rows with run_type "iteration" are
read; aggregate rows (mean, median, stddev, cv) are ignored. A plain
counter is every numeric key of a row outside google-benchmark's fixed
fields, except keys ending in "_per_sec", which are host-dependent rates.

Plain counters are deterministic functions of the seed and scenario, so:
  - within each file, every repetition of a row must carry the same plain
    counters with the same values;
  - both files must carry the same row names: a row missing from either
    file (a deleted, renamed or filtered-out sweep) is a mismatch;
  - for every row, the plain counters must match across the two files.
Values are compared up to a relative tolerance of 1e-9 that absorbs float
formatting. At least one row must be compared, so two empty files cannot
pass vacuously.

Exits 0 when every compared counter matches, 1 otherwise, listing each
mismatch.
"""
import json
import math
import sys

REL_TOL = 1e-9

FIXED_FIELDS = {
    "iterations", "real_time", "cpu_time", "repetitions", "repetition_index",
    "threads", "family_index", "per_family_instance_index",
}


def plain_counters(row):
    return {k: v for k, v in row.items()
            if k not in FIXED_FIELDS and not k.endswith("_per_sec")
            and isinstance(v, (int, float)) and not isinstance(v, bool)}


def diff(want, got, where, left, right):
    """Describes each plain counter on which `want` and `got` differ."""
    out = []
    for key in sorted(set(want) | set(got)):
        if key not in want or key not in got:
            side = left if key not in want else right
            out.append(f"{where}: counter {key!r} missing from {side}")
        elif not math.isclose(want[key], got[key], rel_tol=REL_TOL):
            out.append(f"{where}: {key} {left}={want[key]!r} {right}={got[key]!r}")
    return out


def load_rows(path):
    """Returns (plain counters by row name, repetition disagreements)."""
    with open(path) as f:
        doc = json.load(f)
    rows, mismatches = {}, []
    for b in doc.get("benchmarks", []):
        if b.get("run_type") != "iteration":
            continue
        name, counters = b["name"], plain_counters(b)
        if name not in rows:
            rows[name] = counters
            continue
        where = f"{path}: {name} repetition {b.get('repetition_index')}"
        mismatches += diff(rows[name], counters, where, "first", "this")
    return rows, mismatches


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    committed, mismatches = load_rows(argv[1])
    fresh, fresh_mismatches = load_rows(argv[2])
    mismatches += fresh_mismatches
    for name in sorted(set(committed) ^ set(fresh)):
        side = "fresh" if name in committed else "committed"
        mismatches.append(f"{name}: row missing from {side}")
    shared = sorted(set(committed) & set(fresh))
    for name in shared:
        mismatches += diff(committed[name], fresh[name], name, "committed", "fresh")
    if not shared:
        print("check_counters: no benchmark row appears in both files",
              file=sys.stderr)
        return 1
    for m in mismatches:
        print(f"MISMATCH {m}", file=sys.stderr)
    if mismatches:
        print(f"check_counters: {len(mismatches)} mismatch(es) over "
              f"{len(shared)} row(s)", file=sys.stderr)
        return 1
    print(f"check_counters: {len(shared)} row(s) match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
