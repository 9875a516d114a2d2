#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the repository root:

    python3 perf/spread.py --workload ooc_csr --seeds 1-10 [--trace 0]

Runs `perf/run.py` once per seed and prints, per metric, the median and
the interquartile range as a share of the median (quartiles as
`statistics.quantiles(values, n=4)` gives them), next to the metric's
bound from BENCHMARK.json. Each run's result line is appended to
`.bench_out/spread-<workload>.jsonl`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", default="0")
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    os.makedirs(".bench_out", exist_ok=True)
    log = os.path.join(".bench_out", f"spread-{a.workload}.jsonl")
    for seed in seeds(a.seeds):
        cmd = bench["command"] + [
            "--workload", a.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", a.trace,
        ]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            print(f"seed {seed}: exit {run.returncode}", file=sys.stderr)
            return 1
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        steal = next((l.split()[-1] for l in lines if l.startswith("host steal")), "?")
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: steal={steal} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        share = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and share > bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name:<16} median={med:<14.6g} iqr/median={share:.4f} "
              f"bound={bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
