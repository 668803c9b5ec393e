"""Runs one workload over several seeds and prints, per metric, the median
and the quartile spread (Q3 - Q1) / median, as statistics.quantiles gives
them.  The benchmark's bounds in BENCHMARK.json expect each end-to-end
spread (setup_s aside) to stay well under its bound.

    python3 perfbench/spread.py --workload tree-mix --seeds 1-10 [--trace 1]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    first, last = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in range(first, last + 1):
        start = time.time()
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT {result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {time.time() - start:.1f} s wall", file=sys.stderr)
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}  {'OK' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:45s} median {med:14.4f}  spread {spread:7.4f}{flag}")


if __name__ == "__main__":
    main()
