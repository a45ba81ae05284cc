"""The round protocol for workloads whose units are one call each.

Every workload module exposes

    UNITS_PER_ROUND
    run_round(inputs, between) -> (outputs, units, errors)
    summary(outputs)           -> a comparable copy of the outputs
    check(inputs, outputs)     -> list of error messages

where `units` holds (midpoint, wall time) per unit, `errors` one traceback
per failed unit, and `between()` runs at each unit boundary, outside the
units.  `protocol()` builds the last three from a function of one input.
"""

import time
import traceback


def protocol(unit, summary_one, check_one):
    """run_round, summary and check for a workload whose unit is
    `unit(x)` on each input x; a unit that raises is counted as failed and
    leaves None as its output."""

    def run_round(inputs, between):
        outputs, units, errors = [], [], []
        for x in inputs:
            t0 = time.perf_counter()
            try:
                out = unit(x)
            except Exception:          # a failed operation is counted
                errors.append(traceback.format_exc(limit=3))
                out = None
            dt = time.perf_counter() - t0
            units.append((t0 + dt / 2, dt))
            outputs.append(out)
            between()
        return outputs, units, errors

    def summary(outputs):
        return [None if o is None else summary_one(o) for o in outputs]

    def check(inputs, outputs):
        msgs = (check_one(x, out) for x, out in zip(inputs, outputs)
                if out is not None)
        return [m for m in msgs if m]

    return run_round, summary, check
