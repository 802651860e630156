#!/usr/bin/env python3
"""Repeatability check: do two sets of runs of the same code agree?

Runs the command from BENCHMARK.json on every workload, two sets back to
back with the same seeds, and compares each end-to-end metric's set medians
against the metric's bound. Prints the observed spreads so the bounds in
BENCHMARK.json can be checked against measurement. Exits non-zero on any
disagreement.

    python3 benchmark/agree.py                 # one run per set: "run twice"
    python3 benchmark/agree.py --runs 10       # ten seeds per set, with the
                                               # quartile spread per metric
    python3 benchmark/agree.py --trace         # also one traced run per set

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys

EXACT = ("j_mean",)  # end-to-end metrics that must repeat exactly per seed
EXACT_TRACED = ("sim.vrdann_parallel_fps", "sim.decoder_ceiling_fps")


def run(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit code {out.returncode}")
    result = json.loads(lines[-1])
    host = next(json.loads(l[5:]) for l in lines if l.startswith("host "))
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output checks failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, host["output_digest"]


def spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=1, help="runs (seeds) per set")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--trace", action="store_true", help="add a traced run per set")
    ap.add_argument("--workload", action="append", help="only these workloads")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = [args.seed + i for i in range(args.runs)]
    ok = True

    def complain(text):
        nonlocal ok
        ok = False
        print("DISAGREE " + text)

    for workload in workloads:
        sets = [[run(spec, workload, s, 0) for s in seeds] for _ in range(2)]
        for a, b in zip(*sets):
            if a[1] != b[1]:
                complain(f"{workload}: output_digest differs between sets")
            for name in EXACT:
                if a[0][name] != b[0][name]:
                    complain(f"{workload}: {name} does not repeat exactly")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[values[name] for values, _ in runs] for runs in sets]
            med = [statistics.median(v) for v in per_set]
            worse = (med[0] - med[1]) / med[0]
            if metric["better"] == "lower":
                worse = -worse
            spreads = [spread(v) for v in per_set]
            shown = " ".join("-" if s is None else f"{s:.4f}" for s in spreads)
            print(f"{workload:15} {name:13} medians {med[0]:.6g} {med[1]:.6g} "
                  f"second worse by {worse:+.4f} spreads {shown} bound {bound}")
            for v in per_set:
                print(f"{'':29} runs " + " ".join(f"{x:.5g}" for x in v))
            if worse > bound:
                complain(f"{workload}: {name} second median worse by {worse:.4f} > {bound}")
            if name != "setup_s":
                for s in spreads:
                    if s is not None and s > bound:
                        complain(f"{workload}: {name} spread {s:.4f} > {bound}")
        if args.trace:
            traced = [run(spec, workload, seeds[0], 1) for _ in range(2)]
            if len({digest for _, digest in traced} | {sets[0][0][1]}) != 1:
                complain(f"{workload}: traced output_digest differs from the untraced run's")
            for name in EXACT_TRACED:
                if traced[0][0][name] != traced[1][0][name]:
                    complain(f"{workload}: {name} does not repeat exactly")
            for name in ("trace.coverage", "trace.overhead_frac", "trace.replay_residual_frac"):
                print(f"{workload:15} {name:27} {traced[0][0][name]:.4f} {traced[1][0][name]:.4f}")
    print("agree" if ok else "DISAGREE")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
