"""One workload process: set up, run timed rounds, check, optionally trace.

Started by run.py, never by hand.  Prints one JSON object of raw
measurements on its last stdout line; run.py turns them into metrics.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE SPAWN_T

MODE is "setup" (set up, calibrate, stop), "run" (set up, timed rounds,
checks) or "trace" (set up, one untraced round, two traced rounds, checks).
SPAWN_T is the parent's time.perf_counter() just before it started this
process; perf_counter is CLOCK_MONOTONIC on Linux, so the two clocks agree.
"""

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import calib  # noqa: E402

# Run the calibration kernel at the first unit boundary after this much
# time, and often enough there that it takes about KERNEL_SHARE of the time:
# a long unit gets several samples at each end.
CAL_EVERY_S = 0.25
KERNEL_SHARE = 0.1
SETUP_KERNELS = 5


def _workload(name):
    import wl_closure
    import wl_frobenius
    import wl_normalform
    import wl_vojta
    mods = {m.NAME: m for m in (wl_frobenius, wl_closure, wl_vojta,
                                wl_normalform)}
    return mods[name]


class Round:
    """Raw timings of one round: (midpoint, wall time) of every unit and of
    every kernel sample.

    The kernel runs at the start, at unit boundaries once CAL_EVERY_S has
    passed since its last run, and at the end; kernel time is never part
    of a unit or of the round's time."""

    def __init__(self, interleave=True):
        self.interleave = interleave
        self.units = []
        self.kernels = []
        self.failed = 0
        self.errors = []
        self.outputs = None
        self._inside = 0.0          # kernel time spent between units
        self._kernel()

    def _kernel(self):
        t0 = time.perf_counter()
        dt = calib.time_kernel()
        self.kernels.append((t0 + dt / 2, dt))
        self._last = time.perf_counter()
        return dt

    def between(self):
        """Unit boundary: run the kernel if due; returns the time it took."""
        since = time.perf_counter() - self._last
        if not self.interleave or since < CAL_EVERY_S:
            return 0.0
        reps = max(1, round(KERNEL_SHARE * since / calib.NOMINAL_S))
        dt = sum(self._kernel() for _ in range(reps))
        self._inside += dt
        return dt

    def data(self):
        return {"units": self.units, "kernels": self.kernels,
                "raw_s": self.raw_s, "failed": self.failed}


def run_round(wl, inputs, interleave=True):
    """One round over every input; keeps the outputs for checking.  An
    exception out of the workload fails every unit of the round."""
    rnd = Round(interleave)
    t0 = time.perf_counter()
    try:
        rnd.outputs, rnd.units, rnd.errors = wl.run_round(inputs,
                                                          rnd.between)
        rnd.failed = len(rnd.errors)
    except Exception:
        rnd.failed = wl.UNITS_PER_ROUND
        rnd.errors = [traceback.format_exc(limit=3)]
    rnd.raw_s = time.perf_counter() - t0 - rnd._inside
    rnd._kernel()
    return rnd


def run_checks(wl, inputs, first, later):
    """Check the first round's outputs independently; every later round
    must have reproduced them exactly (later rounds keep only summaries, so
    peak memory does not grow with the number of rounds)."""
    errors = []
    if first.outputs is not None:
        errors.extend(wl.check(inputs, first.outputs))
        ref = wl.summary(first.outputs)
        if any(rnd.outputs != ref for rnd in later):
            errors.append("a later round's outputs differ from the first")
    for rnd in [first] + later:
        if not rnd.failed and len(rnd.units) != wl.UNITS_PER_ROUND:
            errors.append(f"a round timed {len(rnd.units)} units, not "
                          f"{wl.UNITS_PER_ROUND}")
    return errors


def later_round(wl, inputs):
    rnd = run_round(wl, inputs)
    if rnd.outputs is not None:
        rnd.outputs = wl.summary(rnd.outputs)
    return rnd


def main(argv):
    name, seed, seconds, mode, spawn_t = argv
    seed, seconds, spawn_t = int(seed), float(seconds), float(spawn_t)
    wl = _workload(name)
    import charpgeom  # set-up includes importing the program
    if not os.path.abspath(charpgeom.__file__).startswith(SRC + os.sep):
        sys.exit(f"charpgeom imported from {charpgeom.__file__}, "
                 f"not from this checkout's src/")
    inputs = wl.build(seed)
    setup_raw = time.perf_counter() - spawn_t
    setup_kernels = [calib.time_kernel() for _ in range(SETUP_KERNELS)]
    result = {"setup_raw_s": setup_raw, "setup_kernels": setup_kernels}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    rounds = []
    tracer = None
    if mode == "run":
        t_start = time.perf_counter()
        rounds.append(run_round(wl, inputs))
        while time.perf_counter() - t_start < seconds:
            rounds.append(later_round(wl, inputs))
        traced = []
    else:
        import tracer as tracer_mod
        rounds.append(run_round(wl, inputs))
        tracer = tracer_mod.Tracer()
        traced = []
        for _ in range(2):
            tracer.reset()
            tracer.install()
            try:
                # no kernel between units: it would run inside traced spans
                rnd = run_round(wl, inputs, interleave=False)
            finally:
                tracer.uninstall()
            rnd.trace = tracer.summary()
            if rnd.outputs is not None:
                rnd.outputs = wl.summary(rnd.outputs)
            traced.append(rnd)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    all_rounds = rounds + traced
    errors = run_checks(wl, inputs, all_rounds[0], all_rounds[1:])
    for rnd in all_rounds:
        for tb in rnd.errors[:1]:
            sys.stderr.write(f"failed operation:\n{tb}\n")
    result.update({
        "rounds": [r.data() for r in rounds],
        "units_per_round": wl.UNITS_PER_ROUND,
        "peak_rss_kb": rss_kb,
        "failed": sum(r.failed for r in all_rounds),
        "errors": errors[:20],
        "n_errors": len(errors),
    })
    if tracer is not None:
        result["traced"] = [dict(r.data(), trace=r.trace) for r in traced]
        result["trace_file"] = tracer.write(name, seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
