"""Measure the benchmark's baseline and write it to perfbench/baseline.json.

    python3 perfbench/baseline.py --seconds 40 --sets 301-310,401-410 --traced-seed 1

Run from the root of a source checkout.  For every workload and every set
of seeds it makes one untraced run per seed, one after another, and records
each end-to-end value with the set's median, quartiles and quartile spread
((q3 - q1) / median, the figure the bounds in BENCHMARK.json are held
against); then one traced run per workload gives the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 900


def run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--sets", default="301-310,401-410", help="comma-separated seed ranges, one per set")
    parser.add_argument("--traced-seed", type=int, default=1)
    parser.add_argument("--source", default="", help="what was measured, e.g. the commit")
    parser.add_argument("--machine", default="", help="the machine it ran on")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sets = [seeds(part) for part in args.sets.split(",")]
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end, per_layer = {}, {}
    for workload in workloads:
        table = end_to_end[workload] = {}
        for k, set_seeds in enumerate(sets, 1):
            results = []
            for seed in set_seeds:
                result = run(workload, seed, args.seconds, 0)
                if not result["correct"]:
                    raise RuntimeError(f"{workload} seed {seed}: outputs incorrect")
                results.append(result)
                print(workload, f"set{k}", seed, json.dumps(result), flush=True)
            for metric in spec["end_to_end"]:
                name = metric["name"]
                entry = table.setdefault(name, {"unit": metric["unit"]})
                entry[f"set{k}"] = stats([r["metrics"][name]["value"] for r in results])
                print(f"{workload} set{k} {name}: median {entry[f'set{k}']['median']:.5g} "
                      f"spread {entry[f'set{k}']['spread']:.4f}", flush=True)
            table.setdefault("attempted_per_run", []).extend(r["attempted"] for r in results)
            table.setdefault("failed_per_run", []).extend(r["failed"] for r in results)
        traced = run(workload, args.traced_seed, args.seconds, 1)
        per_layer[workload] = {name: m["value"] for name, m in traced["metrics"].items()}
        per_layer[workload]["_units"] = {name: m["unit"] for name, m in traced["metrics"].items()}
        per_layer[workload]["_seed"] = args.traced_seed

    baseline = {
        "source": args.source,
        "machine": args.machine or f"{platform.machine()}, nproc={os.cpu_count()}, "
                                   f"Python {platform.python_version()}",
        "run_seconds": args.seconds,
        "seeds": [seed for set_seeds in sets for seed in set_seeds],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    with open(os.path.join(BENCH_DIR, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
