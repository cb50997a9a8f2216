#!/usr/bin/env python3
"""Measures the benchmark's baseline on this host and records it, with the
host facts, in perfbench/baseline.json (keeping its seeds).
Run from the repository root:

    python3 perfbench/baseline.py

Each workload runs end to end at the default and the held-out seed, and
traced at the default seed.
"""
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "baseline.json")


def run(workload, seed, seconds, trace):
    """Runs the benchmark once; returns its metrics, exits if incorrect."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
    result = json.loads(out.stdout.decode().strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open(BASELINE) as f:
        base = json.load(f)
    seconds = spec["run_seconds"]
    seeds = base["seeds"]
    rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE, text=True).stdout
    cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo")
                if l.startswith("model name")), "unknown")
    base["host"] = {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release(),
                    "rustc": rustc.strip(), "run_seconds": seconds}
    base["baseline"] = {
        w["name"]: {
            f"seed_{seeds['default']}": run(w["name"], seeds["default"], seconds, 0),
            f"seed_{seeds['held_out']}": run(w["name"], seeds["held_out"], seconds, 0),
            f"traced_seed_{seeds['default']}": run(w["name"], seeds["default"], seconds, 1),
        }
        for w in spec["workloads"]
    }
    with open(BASELINE, "w") as f:
        json.dump(base, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
