#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
median, quartiles and spread against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --trace-seed 1 --out perfbench/results/baseline.json

The spread is the distance between the first and third quartile as a share
of the median (``statistics.quantiles(values, n=4)``). Runs go one after
another, each in its own process, from the root of the checkout.
Every workload of BENCHMARK.json runs for its ``run_seconds``.
``--trace-seed`` adds one traced run per workload for the per-layer numbers.
``--against`` compares each median with that of an earlier results file
and flags a metric that got worse by more than its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result["wall_clock"] = next((line for line in lines if line.startswith("wall clock:")), None)
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    regressions = 0
    doc = {
        "hardware": {"cpu": cpu_model(), "logical_cpus": os.cpu_count()},
        "command": spec["command"],
        "seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    worst = 0.0
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(spec, wl, seed, seconds, 0))
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in runs[-1]["metrics"].items()), flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bound)
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                             "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                             "values": values}
            flag = "over bound" if spread > bound else "over bound/3" if spread > bound / 3 else "ok"
            line = (f"  {wl:<16} {name:<15} median {med:<14.6g} spread {spread:8.4f} "
                    f"bound {bound:<5} {flag}")
            if wl in earlier:
                before = earlier[wl]["end_to_end"][name]["median"]
                worse = (before - med if name in higher else med - before) / before
                metrics[name]["worse_than_against"] = worse
                regressions += worse > bound
                line += f" | worse by {worse:+.4f} vs --against" + (" REGRESSION" if worse > bound else "")
            print(line)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": metrics,
                 "wall_clock": [r["wall_clock"] for r in runs]}
        if args.trace_seed is not None:
            traced = run_once(spec, wl, args.trace_seed, seconds, 1)
            entry["per_layer"] = {n: m["value"] for n, m in traced["metrics"].items()}
        doc["workloads"][wl] = entry
    print(f"largest spread / bound: {worst:.3f}")
    if args.against:
        doc["against"] = str(args.against)
        print(f"metrics worse than --against by more than their bound: {regressions}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
