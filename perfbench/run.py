"""Benchmark entry point for charpgeom.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  Each invocation starts, one after
another (never more than one busy core):

* SETUPS - 1 set-up-only processes, for the median set-up time;
* one workload process that sets up, then runs whole rounds of the same
  seeded inputs until S seconds have passed (--trace 0), or one untraced and
  two traced rounds (--trace 1), and then checks every output against an
  independent computation.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  All end-to-end times are calibrated (see calib.py).
The same object, with the raw measurements behind it, is written to
perfbench/out/result-<workload>-<seed>-<trace>.json.  The exit code is 0
when a result was printed, 2 when the program could not be set up or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calib import host_factor  # noqa: E402

WORKLOADS = ("frobenius-batch", "closure-sample", "vojta-demo",
             "normalform-grid")
SETUPS = 9
WINDOW_S = 1.5
PROCESS_TIMEOUT_S = 150
# Printed with --trace 1.  Times are printed only where every workload
# enters the layer: the result format refuses a time that reads the same
# (here 0) on every run.  The trace file has every module's self time and
# the covers/cli inclusive times as well.
PER_LAYER = (
    "finitefield.ops", "unipoly.ratfunc_new", "unipoly.mul", "unipoly.divmod",
    "multipoly.mul", "multipoly.term_products", "jets.mul", "jets.compose",
    "groebner.pairs", "groebner.reductions", "groebner.basis_len",
    "finitefield.self_s", "multipoly.self_s", "l1.self_s", "l2.self_s",
)


class WorkerError(RuntimeError):
    pass


def _worker(workload, seed, seconds, mode):
    """Run one worker process to completion; its parsed JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), str(seconds), mode]
    spawn_t = time.perf_counter()
    proc = subprocess.Popen(cmd + [repr(spawn_t)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    try:
        out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{mode} process of {workload} timed out")
    if proc.returncode != 0:
        raise WorkerError(f"{mode} process of {workload} exited with "
                          f"{proc.returncode}:\n{err.strip()}")
    if err.strip():
        sys.stderr.write(err)
    return json.loads(out.strip().splitlines()[-1])


def _setup_s(res):
    return res["setup_raw_s"] * host_factor(res["setup_kernels"])


def _calibrated(rnd):
    """(calibrated round time, calibrated unit times) of one round.

    The round is scaled by the kernel over the whole round.  Each unit is
    scaled by the kernel samples within WINDOW_S of it (at least the three
    nearest), because host speed moves within a round too."""
    kernels = rnd["kernels"]
    total = rnd["raw_s"] * host_factor([dt for _, dt in kernels])
    units = []
    for t, dt in rnd["units"]:
        by_distance = sorted(kernels, key=lambda k: abs(k[0] - t))
        near = [k for k in by_distance if abs(k[0] - t) <= WINDOW_S]
        near = near if len(near) >= 3 else by_distance[:3]
        units.append(dt * host_factor([kdt for _, kdt in near]))
    return total, units


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setups, res):
    round_s, units = [], []
    for rnd in res["rounds"]:
        total, per_unit = _calibrated(rnd)
        round_s.append(total)
        units.extend(per_unit)
    units_ms = [u * 1000 for u in units]
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "run_s": _metric(statistics.median(round_s), "s"),
        "unit_p50_ms": _metric(statistics.median(units_ms), "ms"),
        "unit_p90_ms": _metric(
            statistics.quantiles(units_ms, n=10, method="inclusive")[-1],
            "ms"),
        "peak_rss_mb": _metric(res["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(res):
    """Per-layer metrics of the first traced round, times averaged over
    both."""
    first = res["traced"][0]
    untraced, _ = _calibrated(res["rounds"][0])
    traced = [_calibrated(r)[0] for r in res["traced"]]
    values = dict(first["trace"]["counts"])
    for name in first["trace"]["times"]:
        # times as measured under tracing, calibrated like run_s
        values[name] = statistics.mean(
            r["trace"]["times"][name]
            * host_factor([dt for _, dt in r["kernels"]])
            for r in res["traced"])
    metrics = {}
    for name in PER_LAYER:
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = _metric(values[name], unit)
    metrics["raw_run_s"] = _metric(res["rounds"][0]["raw_s"], "s")
    metrics["calib_ms"] = _metric(
        statistics.median(dt for _, dt in res["rounds"][0]["kernels"]) * 1000,
        "ms")
    metrics["trace_overhead"] = _metric(statistics.mean(traced) / untraced,
                                        "ratio")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        setups = [_setup_s(_worker(args.workload, args.seed, args.seconds,
                                   "setup")) for _ in range(SETUPS - 1)]
        mode = "trace" if args.trace else "run"
        res = _worker(args.workload, args.seed, args.seconds, mode)
    except (WorkerError, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark could not run: {exc}\n")
        return 2
    setups.append(_setup_s(res))
    for msg in res["errors"]:
        sys.stderr.write(f"check failed: {msg}\n")
    correct = res["n_errors"] == 0
    if args.trace:
        metrics = per_layer(res)
        first, second = (r["trace"]["counts"] for r in res["traced"])
        if first != second:
            sys.stderr.write(f"per-layer counts differ between the two "
                             f"traced rounds: {first} != {second}\n")
            correct = False
    else:
        metrics = end_to_end(setups, res)
    rounds = len(res["rounds"]) + len(res.get("traced", []))
    result = {"correct": correct,
              "attempted": res["units_per_round"] * rounds,
              "failed": res["failed"],
              "metrics": metrics}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"result-{args.workload}-{args.seed}-"
                                 f"{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, setups_s=setups, raw=res), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
