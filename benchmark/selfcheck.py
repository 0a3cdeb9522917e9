#!/usr/bin/env python3
"""Does the benchmark repeat? Two sets of runs of the same code, compared.

    python3 benchmark/selfcheck.py

Two sets of five runs of every workload, each run with another seed and
the workload order alternating between rounds, through the benchmark's
one command (`bash benchmark/run.sh`, which builds first) at the run
length BENCHMARK.json names. For every end-to-end (metric, workload) pair
it prints the median, the quartiles and (max - min) / median within each
set, the spread the driver computes — (Q3 - Q1) / median over all ten
runs, by `statistics.quantiles(values, n=4)` — (max - min) / median over
all ten (a bound is twice that, rounded up), and the gap between the two
sets' medians in the direction that counts as worse.

It fails (exit 1) if any pair's (max - min) / median exceeds a tenth
within a set, if the second set's median is worse than the first's by
more than the metric's bound, if the driver's spread exceeds the bound
(`setup_s` excepted, as in the driver), if a run reports
`correct: false`, or if a counted metric differs between any two runs of
a workload. Pairs whose driver spread is above a third of their bound are
marked `!`. The raw results go to benchmark/target/sets/. The per-slice
series of all runs are pooled to print what the calibration constants of
`src/calib.rs` are derived from: the percentiles of the kernel's time
(the nominal is their median) and, per workload, the fitted exponent
(see README, "Re-deriving the constants").
"""

import csv
import json
import math
import pathlib
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 5
WITHIN_A_SET = 0.10
EXACT = {"allocs_per_event", "wire_bytes_per_event"}


def run_once(workload, seed, seconds):
    command = ["bash", str(BENCH / "run.sh"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"selfcheck: {' '.join(command)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    out = BENCH / "target" / "sets"
    out.mkdir(parents=True, exist_ok=True)

    started = time.time()
    sets = {"A": {w: [] for w in workloads}, "B": {w: [] for w in workloads}}
    calib = []
    stable = {w: [] for w in workloads}  # (ln calibration ms, ln chain us/event)
    seed = 100
    for label in sets:
        with open(out / f"set_{label}.jsonl", "w") as log:
            for round_no in range(RUNS):
                order = workloads if round_no % 2 == 0 else list(reversed(workloads))
                for workload in order:
                    seed += 1
                    result = run_once(workload, seed, seconds)
                    sets[label][workload].append(result)
                    log.write(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                                          "result": result}) + "\n")
                    log.flush()
                    with open(BENCH / "target" / f"slices-{workload}.csv") as f:
                        for row in csv.DictReader(f):
                            before, after = float(row["calib_before_ms"]), float(row["calib_after_ms"])
                            calib.append(after)
                            if max(before, after) <= 1.10 * min(before, after):
                                stable[workload].append((math.log((before + after) / 2),
                                                         math.log(float(row["chain_us_per_event"]))))
                    print(f"  set {label} round {round_no + 1} {workload} seed {seed}: "
                          f"failed {result['failed']} of {result['attempted']}", file=sys.stderr)

    failures = []
    header = (f"{'workload':9} {'metric':22} {'set':3} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'range/med':>9} | {'IQR/med all':>11} {'range all':>9} {'bound':>6} {'B vs A':>8}")
    print(header)
    print("-" * len(header))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            worse = 1.0 if metric["better"] == "lower" else -1.0
            values = {k: [r["metrics"][name]["value"] for r in sets[k][workload]] for k in sets}
            pooled = values["A"] + values["B"]
            q1, q2, q3 = statistics.quantiles(pooled, n=4)
            spread = (q3 - q1) / q2
            span = (max(pooled) - min(pooled)) / q2
            med = {k: statistics.median(v) for k, v in values.items()}
            gap = worse * (med["B"] - med["A"]) / med["A"]
            if name != "setup_s" and spread > bound:
                failures.append(f"{workload}/{name}: spread {spread:.1%} exceeds its bound {bound:.1%}")
            if gap > bound:
                failures.append(f"{workload}/{name}: set B is {gap:.1%} worse than set A, bound {bound:.1%}")
            if name in EXACT and len(set(pooled)) != 1:
                failures.append(f"{workload}/{name}: not identical across runs: {sorted(set(pooled))}")
            for k in sets:
                a, b, c = statistics.quantiles(values[k], n=4)
                rng = (max(values[k]) - min(values[k])) / b
                if rng > WITHIN_A_SET:
                    failures.append(f"{workload}/{name}: set {k} spans {rng:.1%} of its median, "
                                    f"more than {WITHIN_A_SET:.0%}")
                mark = "!" if name != "setup_s" and spread > bound / 3 else " "
                tail = (f"| {spread:>10.2%}{mark} {span:>9.2%} {bound:>6.1%} {gap:>+8.2%}"
                        if k == "A" else "|")
                print(f"{workload:9} {name:22} {k:3} {b:>12.6g} {a:>12.6g} {c:>12.6g} {rng:>9.2%} {tail}")
        incorrect = [r for k in sets for r in sets[k][workload] if not r["correct"]]
        if incorrect:
            failures.append(f"{workload}: {len(incorrect)} runs reported correct: false")

    calib.sort()
    pick = lambda q: calib[min(len(calib) - 1, int(q * len(calib)))]
    print(f"\ncalibration times pooled over {len(calib)} slices: p10 {pick(0.10):.2f} ms, "
          f"p25 {pick(0.25):.2f}, p50 {pick(0.50):.2f}, p75 {pick(0.75):.2f}, p90 {pick(0.90):.2f}")
    for workload, points in stable.items():
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        sxx = sum((x - mx) ** 2 for x, _ in points)
        gamma = sum((x - mx) * (y - my) for x, y in points) / sxx
        print(f"exponent fitted over {len(points)} stable slices of {workload}: {gamma:.2f}")
    print(f"{2 * RUNS} runs per workload, {seconds} s each, {time.time() - started:.0f} s in all")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck: " + ("FAILED" if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
