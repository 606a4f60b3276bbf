#!/usr/bin/env python3
"""Steadiness check: runs every workload in two sets separated in time.

    python3 perfbench/steadiness.py

Each set runs every workload of BENCHMARK.json once per seed 1..10
(untraced, run length from BENCHMARK.json); the second set starts two
minutes after the first ends.  For every end-to-end metric it prints:

  median1, median2  the set medians over the ten seeds
  spread1, spread2  each set's IQR over the seeds (distance between the
                    first and third quartile as a share of the median, as
                    statistics.quantiles(values, n=4) gives them).  This
                    mixes run-to-run noise with real differences between
                    seeds, and is what a run of ten seeds is judged on.
  noise             the IQR of the per-seed changes from set 1 to set 2,
                    as a share: run-to-run noise alone, since each pair
                    runs the same inputs.
  change            |median2 - median1| / median1, in either direction.

A metric is flagged when its change exceeds its bound, or when its
spread or its noise exceeds a third of its bound; setup_s gets no
exemption.  The wall-clock figures each run prints ("# wall.*" lines)
are listed the same way without a bound, for the record.  Exits 1 if
any run failed or any metric is flagged.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
GAP_S = 120
WALL_FIGURES = ("wall.op_us_p50", "wall.op_us_p99", "wall.ops_per_s")


def run_once(workload, seed, seconds):
    """The run's metrics plus its printed wall-clock figures ("wall.*")."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        if line.startswith("# wall."):
            key, _, rest = line[2:].partition(": ")
            values[key] = float(rest.split()[0])
    return values


def iqr_share(values, centre):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(centre) if centre else 0.0


def compare(first, second):
    """(median1, spread1, median2, spread2, noise, change) of two sets,
    each a {seed: value} map."""
    a, b = list(first.values()), list(second.values())
    ma, mb = statistics.median(a), statistics.median(b)
    paired = [(second[s] - first[s]) / first[s] for s in first
              if s in second and first[s]]
    noise = iqr_share(paired, 1.0) if len(paired) >= 2 else 0.0
    change = abs(mb - ma) / ma if ma else 0.0
    return ma, iqr_share(a, ma), mb, iqr_share(b, mb), noise, change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    sets = []
    failures = 0
    for index in range(2):
        if index == 1:
            time.sleep(GAP_S)
        values = {}
        for workload in workloads:
            for seed in range(1, RUNS + 1):
                started = time.time()
                result = run_once(workload, seed, seconds)
                print(f"set {index + 1} {workload} seed {seed}: "
                      f"{'ok' if result else 'FAILED'} "
                      f"({time.time() - started:.0f} s)", file=sys.stderr)
                if result is None:
                    failures += 1
                    continue
                for name, value in result.items():
                    values.setdefault((workload, name), {})[seed] = value
        sets.append(values)

    print(f"{'workload':<17} {'metric':<14} {'median1':>11} {'spread1':>7} "
          f"{'median2':>11} {'spread2':>7} {'noise':>6} {'change':>6} "
          f"{'bound':>5}  flag")
    rows = [(w, m["name"], m["bound"]) for w in workloads
            for m in bench["end_to_end"]]
    rows += [(w, name, None) for w in workloads for name in WALL_FIGURES]
    flagged = 0
    for workload, name, bound in rows:
        first = sets[0].get((workload, name), {})
        second = sets[1].get((workload, name), {})
        if len(first) < 2 or len(second) < 2:
            print(f"{workload:<17} {name:<14} too few runs")
            flagged += bound is not None
            continue
        ma, sa, mb, sb, noise, change = compare(first, second)
        flags = []
        if bound is None:
            flags.append("not gated")
        else:
            if change > bound:
                flags.append("CHANGE>BOUND")
            if max(sa, sb) > bound / 3:
                flags.append("SPREAD>BOUND/3")
            if noise > bound / 3:
                flags.append("NOISE>BOUND/3")
            flagged += len(flags) > 0
        print(f"{workload:<17} {name:<14} {ma:>11.6g} {sa:>7.1%} "
              f"{mb:>11.6g} {sb:>7.1%} {noise:>6.1%} {change:>6.1%} "
              f"{'-' if bound is None else f'{bound:.2f}':>5}  "
              f"{' '.join(flags)}")
    print(f"{failures} failed runs, {flagged} flagged metrics")
    return 1 if failures or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
