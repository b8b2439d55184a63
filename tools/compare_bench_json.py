#!/usr/bin/env python3
"""Compares two BENCH_<name>.json files from the fig_*/tbl_* harnesses.

    python3 tools/compare_bench_json.py PARENT.json CHANGE.json

Walks both documents together, key by key and in order, and reports every
difference in key order, value type (an integer is not a double) or value.
Exits 0 when nothing differs outside the exempt keys below, 1 otherwise,
2 on unreadable input.

A key is exempt only where two runs of one binary on one machine already
disagree: it measures the machine (wall-clock time, CPU time, heap, RSS) or
a race between real threads, not the model. The list is per harness,
keyed by the document's "bench" field, and each entry says why.
"""

import json
import sys

TIMING = "wall-clock or CPU time of this run"
SWEEP = {"wall_seconds": TIMING, "cpu_seconds": TIMING,
         "speedup": "CPU time over wall time of the seed fan-out"}

# bench name -> {key: reason}, exempt at any depth of that bench's
# document. Every entry differed between two runs of one binary; keep it
# that way, and never add a key to make a real difference pass.
EXEMPT = {
    "baselines": SWEEP,
    "faults": SWEEP,
    "staleness_delta": SWEEP,
    "ttl_policy": SWEEP,
    # A2 times a counting-filter snapshot against a rebuild.
    "ablations": {"materialize_us": TIMING, "rebuild_us": TIMING,
                  "speedup": "ratio of the two timings"},
    "invalidation_scale": {"indexed_writes_per_s": TIMING,
                           "fullscan_writes_per_s": TIMING},
    # The scaling points are timed; their fingerprints are compared.
    "throughput": {"wall_seconds": TIMING, "requests_per_sec": TIMING,
                   "speedup_vs_1_thread": "ratio of timed points"},
    # mallinfo2 counts chunks malloc still caches for reuse as in use, so
    # the heap probes move with the harness's own earlier allocations: two
    # runs that differ only in the --json path disagree.
    "memscale": {"wall_seconds": TIMING, "requests_per_sec": TIMING,
                 "construct_bytes_per_client": "heap probe (mallinfo2)",
                 "after_run_bytes_per_client": "heap probe (mallinfo2)",
                 "peak_rss_bytes": "process RSS high-water mark"},
    # Real TCP: which request leads an origin flight depends on thread
    # timing, and the sim replay is paced by the socket run's wall time.
    "socketed": {"throughput_rps": TIMING, "wall_p50_us": TIMING,
                 "wall_p99_us": TIMING,
                 "flight_joins": "single-flight joins race real threads"},
}


def type_name(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "double"
    if value is None:
        return "null"
    return type(value).__name__


def walk(parent, change, path, exempt, diffs):
    key = path.rsplit(".", 1)[-1].split("[", 1)[0]
    if key in exempt:
        return
    if type_name(parent) != type_name(change):
        diffs.append(f"{path}: type {type_name(parent)} -> "
                     f"{type_name(change)} ({parent!r} -> {change!r})")
        return
    if isinstance(parent, dict):
        if list(parent) != list(change):
            diffs.append(f"{path}: keys {list(parent)} -> {list(change)}")
            return
        for k in parent:
            walk(parent[k], change[k], f"{path}.{k}", exempt, diffs)
    elif isinstance(parent, list):
        if len(parent) != len(change):
            diffs.append(f"{path}: {len(parent)} -> {len(change)} items")
            return
        for i, (p, c) in enumerate(zip(parent, change)):
            walk(p, c, f"{path}[{i}]", exempt, diffs)
    elif parent != change:
        diffs.append(f"{path}: {parent!r} -> {change!r}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            parent = json.load(f)
        with open(argv[2]) as f:
            change = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    bench = parent.get("bench") if isinstance(parent, dict) else None
    exempt = EXEMPT.get(bench, {})
    diffs = []
    walk(parent, change, "$", exempt, diffs)
    for d in diffs:
        print(d)
    skipped = ", ".join(f"{k} ({why})" for k, why in exempt.items())
    status = "DIFFERENT" if diffs else "same"
    print(f"{bench}: {status}" + (f"; exempt: {skipped}" if skipped else ""))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
