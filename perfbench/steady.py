"""Steadiness check: two sets of runs of the same code against the bounds.

    python3 perfbench/steady.py

Runs run.py exactly as BENCHMARK.json's command does: for each workload in
BENCHMARK.json, RUNS untraced runs with seeds 1..RUNS (set A), RUNS with
seeds 101..100+RUNS (set B), and two traced runs with seed 1.  It then
checks, per workload and end-to-end metric:

* spread: (Q3 - Q1) / median of each set, from
  statistics.quantiles(values, n=4), within the metric's bound, and the
  steadiness target of a third of the bound;
* drift: set B's median within the bound of set A's, either way;
* the failed share of attempted operations is the same in both sets;
* every per-layer count repeats exactly between the two traced runs.

Prints a table and writes perfbench/out/steady.json; exits 1 if a check
fails.  Run it from the root of the repository.
"""

import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = (("A", 0), ("B", 100))       # label, seed offset


def _run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out",
                           f"result-{workload}-{seed}-{trace}.json")) as fh:
        raw = json.load(fh)["raw"]
    # uncalibrated round time, for comparison with the calibrated run_s
    res["raw_run_s"] = statistics.median(r["raw_s"] for r in raw["rounds"])
    return res


def _spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report, failures = {}, []
    for wl in names:
        sets = {}
        for label, base in SETS:
            runs = []
            for seed in range(base + 1, base + RUNS + 1):
                res = _run(bench, wl, seed, 0)
                if not res["correct"]:
                    failures.append(f"{wl} seed {seed}: correct is false")
                runs.append(res)
                print(f"{wl} {label} seed {seed}: " + "  ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                    flush=True)
            sets[label] = runs
        rows = {}
        shares = {Fraction(r["failed"], r["attempted"])
                  for runs in sets.values() for r in runs}
        if len(shares) != 1:
            failures.append(f"{wl}: failed share differs between runs")
        for metric, bound in bounds.items():
            a_spread, a_med = _spread(
                [r["metrics"][metric]["value"] for r in sets["A"]])
            b_spread, b_med = _spread(
                [r["metrics"][metric]["value"] for r in sets["B"]])
            drift = b_med / a_med - 1
            rows[metric] = {"spread_A": a_spread, "spread_B": b_spread,
                            "median_A": a_med, "median_B": b_med,
                            "drift": drift, "bound": bound}
            worst = max(a_spread, b_spread)
            flag = ""
            if worst > bound:
                failures.append(f"{wl} {metric}: spread {worst:.3f} > {bound}")
                flag = "  SPREAD > BOUND"
            elif worst > bound / 3:
                flag = "  spread > bound/3"
            if abs(drift) > bound:
                failures.append(f"{wl} {metric}: drift {drift:+.3f} > {bound}")
                flag += "  DRIFT > BOUND"
            print(f"  {wl:16s} {metric:12s} spread {a_spread:.3f}/"
                  f"{b_spread:.3f}  median {a_med:.4g}/{b_med:.4g}  "
                  f"drift {drift:+.3f}  bound {bound}{flag}", flush=True)
        raw_spread, _ = _spread([r["raw_run_s"] for r in sets["A"]])
        rows["raw_run_s_spread"] = raw_spread
        print(f"  {wl:16s} uncalibrated run_s spread {raw_spread:.3f}",
              flush=True)
        traced = [_run(bench, wl, 1, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if v["unit"] == "count"} for t in traced]
        rows["counts_repeat"] = counts[0] == counts[1]
        rows["trace_overhead"] = [
            t["metrics"]["trace_overhead"]["value"] for t in traced]
        if counts[0] != counts[1] or not all(t["correct"] for t in traced):
            failures.append(f"{wl}: traced counts differ or incorrect")
        print(f"  {wl:16s} traced counts repeat: {rows['counts_repeat']}"
              f"  overhead {rows['trace_overhead']}", flush=True)
        report[wl] = {"metrics": rows,
                      "runs": {k: [r["metrics"] for r in v]
                               for k, v in sets.items()}}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump({"report": report, "failures": failures}, fh, indent=1)
    for f in failures:
        print("FAIL", f)
    print("steady" if not failures else "NOT steady")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
