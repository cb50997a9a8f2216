#!/usr/bin/env python3
"""Steadiness self-check of the benchmark. Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--seconds 10] [--first-seed 1]
                                [--workloads suite-analyze,sdc-robust,eco-chain]

For each workload it runs the benchmark `--runs` times, each with another
seed, and prints every end-to-end metric's spread -- the distance between
the first and third quartile as a share of the median -- next to its bound
from BENCHMARK.json. A spread must stay within its bound and should stay
below a third of it. Then it runs the traced mode twice on one seed and
checks that the deterministic counts repeat exactly. Exits nonzero if a
check fails.
"""
import argparse
import json
import statistics
import sys

from baseline import run

# Per-layer counts that depend only on the inputs, never on timing.
DETERMINISTIC = [
    "report.robust_pairs", "report.unknown_frac", "hazard.robust", "hazard.demoted",
    "sim.words", "sim.pairs_dropped", "atpg.decisions", "atpg.backtracks", "atpg.aborts",
    "implication.implications", "implication.contradictions", "netlist.slice_nodes",
    "lint.nodes_visited", "eco.reverify_ratio", "cas.bytes_written", "cas.entries_written",
]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), med


def main():
    sys.stdout.reconfigure(line_buffering=True)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    ok = True
    for w in workloads:
        runs = [run(w, args.first_seed + k, seconds, 0) for k in range(args.runs)]
        print(f"{w}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for m in spec["end_to_end"]:
            s, med = spread([r[m["name"]] for r in runs])
            bound = m["bound"]
            verdict = "steady" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            if s > bound:
                ok = False
            print(f"  {m['name']:<14} median {med:12.6g} {m['unit']:<5} "
                  f"spread {s:7.4f}  bound {bound:5.3f}  {verdict}")
            print("      runs: " + " ".join(f"{r[m['name']]:.4g}" for r in runs))
        a, b = run(w, args.first_seed, seconds, 1), run(w, args.first_seed, seconds, 1)
        drift = [k for k in DETERMINISTIC if a[k] != b[k]]
        print(f"  deterministic counts repeat exactly: {'yes' if not drift else 'NO ' + str(drift)}")
        ok = ok and not drift
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
