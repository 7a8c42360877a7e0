#!/usr/bin/env python3
"""Gate BENCH_*.json artifacts against a committed baseline.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [--threshold 0.25]

Both files use the ipg-bench-v1 schema emitted by bench/BenchUtil.h. Only
*deterministic* counters are gated — allocation and node counts do not
depend on the machine the job landed on — while timing metrics
(bytes_per_sec, mean_us) are reported for information only: CI runners
vary far more than any real regression threshold.

A metric regresses when current > baseline * (1 + threshold) + slack.
The additive slack (2.0) keeps near-zero baselines (e.g. 0 allocations
per parse in the arena steady state) from failing on noise while still
catching a real return of per-node allocation.

Exit status: 0 clean, 1 regression found, 2 usage/schema error.
"""

import json
import sys

GATED_METRICS = [
    "allocs_per_parse",
    "nodes_per_parse",
    "terms_per_parse",
    "memo_misses",
    # BENCH_vm.json's cold path: allocations of one grammar load, and of
    # a fresh VM engine's construction plus its first parse.
    "load_allocs",
    "cold_parse_allocs",
    # ... and the per-level heap footprint of a 10^6-level list parse
    # (depth-free recursion: tree, memo table, the tier's level records).
    "deep_alloc_bytes_per_level",
    # BENCH_roundtrip.json (serializer): print-exactness facts. More gap
    # or overlap bytes means the printer (or a grammar) stopped covering
    # the corpus the way the committed baseline proves it can.
    "gap_bytes",
    "overlap_bytes",
    "spans",
    # BENCH_recovery.json: the salvage verdict census over the
    # deterministic corrupt-at-offset sweep. The three counts always sum
    # to `probes`, so any redistribution (e.g. salvages degrading to
    # rejects) raises at least one of them past its baseline; all three
    # are gated because this checker only catches increases. holes_total
    # moving means hole placement itself changed.
    "verdict_accept",
    "verdict_salvage",
    "verdict_reject",
    "holes_total",
]
INFO_METRICS = [
    "bytes_per_sec",
    "print_bytes_per_sec",
    "mean_us",
    # BENCH_service.json: end-to-end timing through the thread pool.
    # Latency and scaling depend on the runner's core count, so these
    # stay informational; the service's allocs_per_parse IS gated.
    "p50_us",
    "p99_us",
    "agg_bytes_per_sec",
    "wall_ms",
    "speedup",
    # ... and its store economy (ParseService::metrics per measured job):
    # how many parses built a store, and how many adopted a read one.
    "stores_built_per_job",
    "stores_claimed_per_job",
]
ADDITIVE_SLACK = 2.0


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if doc.get("schema") != "ipg-bench-v1":
        sys.exit(f"error: {path}: expected schema ipg-bench-v1, "
                 f"got {doc.get('schema')!r}")
    return {e["name"]: e["metrics"] for e in doc.get("entries", [])}


def main(argv):
    args = []
    threshold = 0.25
    it = iter(argv[1:])
    for a in it:
        if a.startswith("--threshold"):
            if "=" in a:
                value = a.split("=", 1)[1]
            else:
                value = next(it, None)
                if value is None:
                    sys.exit("error: --threshold needs a value")
            threshold = float(value)
        elif a.startswith("--"):
            sys.exit(f"error: unknown option {a}")
        else:
            args.append(a)
    if len(args) != 2:
        print(__doc__)
        return 2

    baseline = load(args[0])
    current = load(args[1])
    failures = []

    for name, base_metrics in sorted(baseline.items()):
        cur_metrics = current.get(name)
        if cur_metrics is None:
            failures.append(f"{name}: missing from current run")
            continue
        for metric in GATED_METRICS:
            if metric not in base_metrics:
                continue
            base = base_metrics[metric]
            cur = cur_metrics.get(metric)
            if cur is None:
                failures.append(f"{name}.{metric}: missing from current run")
                continue
            limit = base * (1 + threshold) + ADDITIVE_SLACK
            status = "FAIL" if cur > limit else "ok"
            print(f"{status:4} {name:28} {metric:18} "
                  f"base={base:<12g} cur={cur:<12g} limit={limit:g}")
            if cur > limit:
                failures.append(
                    f"{name}.{metric}: {cur:g} > limit {limit:g} "
                    f"(baseline {base:g}, threshold {threshold:.0%})")
        for metric in INFO_METRICS:
            if metric in base_metrics and metric in cur_metrics:
                base, cur = base_metrics[metric], cur_metrics[metric]
                delta = (cur / base - 1) * 100 if base else 0.0
                print(f"info {name:28} {metric:18} "
                      f"base={base:<12g} cur={cur:<12g} ({delta:+.1f}%)")

    new_entries = sorted(set(current) - set(baseline))
    for name in new_entries:
        print(f"note {name}: not in baseline (add it when regenerating)")

    if failures:
        print("\nregressions detected:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nno regressions against baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
