#!/usr/bin/env python3
"""Gate a fresh BENCH_<area>.json against the committed one.

Usage: bench/check_counters.py <committed.json> <fresh.json>

Plain counters are deterministic functions of the seed and scenario (see
bench/bench_json.hpp), so for every benchmark row present in both files
each counter whose key does not end in "_per_sec" must match, up to a
relative tolerance of 1e-9 that absorbs float formatting. Rate counters
("*_per_sec") depend on the host and are ignored. Rows present in only
one file are skipped, but at least one row must match by name so that a
renamed or filtered-out sweep cannot pass vacuously.

Exits 0 when every compared counter matches, 1 otherwise, listing each
mismatch.
"""
import json
import math
import sys

REL_TOL = 1e-9


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: b.get("counters", {}) for b in doc.get("benchmarks", [])}


def compare(committed, fresh):
    """Returns (rows compared, list of mismatch descriptions)."""
    shared = sorted(set(committed) & set(fresh))
    mismatches = []
    for name in shared:
        want, got = committed[name], fresh[name]
        keys = sorted(k for k in set(want) | set(got) if not k.endswith("_per_sec"))
        for key in keys:
            if key not in want or key not in got:
                side = "committed" if key not in want else "fresh"
                mismatches.append(f"{name}: counter {key!r} missing from {side} file")
            elif not math.isclose(want[key], got[key], rel_tol=REL_TOL):
                mismatches.append(
                    f"{name}: {key} committed={want[key]!r} fresh={got[key]!r}")
    return len(shared), mismatches


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rows, mismatches = compare(load_rows(argv[1]), load_rows(argv[2]))
    if rows == 0:
        print("check_counters: no benchmark row appears in both files",
              file=sys.stderr)
        return 1
    for m in mismatches:
        print(f"MISMATCH {m}", file=sys.stderr)
    if mismatches:
        print(f"check_counters: {len(mismatches)} mismatch(es) over {rows} row(s)",
              file=sys.stderr)
        return 1
    print(f"check_counters: {rows} row(s) match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
