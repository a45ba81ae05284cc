"""vojta-demo: the Vojta-violation scenario through the CLI, report rendered.

A round is one `cli.run_scenario("vojta-demo", ...)` call at
(p, d, n, M) = (3, 1, 5, 15) plus `to_text()` on its report.  The bundle
search (singular-point sweeps over F_3 and F_9, RatExpr cocycle checks) comes
first and belongs to no unit; one unit is then one degree m of the family,
from the start of its section search to the start of the next one (or the
end of the family loop), dominated by `lift_point`: RatFunc gcd and divmod
in `unipoly`.  The same L0/L1 layers as frobenius-batch, driven through
dense univariate arithmetic instead of sparse products.

The workload seed is the scenario seed (the section searches); the bundle
seed stays at the CLI default, so every seed does the same bundle search.
"""

import time
from fractions import Fraction

NAME = "vojta-demo"
# M is odd, so the median unit is always degree (M + 1) / 2, however many
# rounds a run makes.  The cost of a lift at small m swings with the
# sparsity of the section the scenario draws; from m = 8 up it is steady
# within a few percent, so the median unit sits there.
P, D, N, M = 3, 1, 5, 15
UNITS_PER_ROUND = M
A_VALUES, C_VALUES = (1, 2, 5), (0, 10)


def build(seed):
    from charpgeom.algebra.finitefield import FF
    FF(P)
    return {"params": {"p": P, "d": D, "n": N, "M": M}, "seed": seed}


def run_round(inputs, between):
    """Run the scenario once.  Unit boundaries are read at the module
    attributes `heights` calls through, without changing what they do;
    `between()` runs at each boundary and returns the time it took, which
    is taken out of the units.  The units are one scenario call, so a
    failure raises and fails the whole round."""
    from charpgeom import cli, heights
    marks = []                  # (wall clock, wall clock minus kernel time)
    kernel_s = [0.0]
    search, demo = heights.sections_avoiding, heights.vojta_violation_demo

    def mark():
        t = time.perf_counter()
        marks.append((t, t - kernel_s[0]))
        kernel_s[0] += between()

    def mark_search(w_pairs, m, *args, **kwargs):
        if m > 0:
            mark()
        return search(w_pairs, m, *args, **kwargs)

    def mark_demo(*args, **kwargs):
        out = demo(*args, **kwargs)
        mark()
        return out

    heights.sections_avoiding, heights.vojta_violation_demo = (
        mark_search, mark_demo)
    # cli resolves heights.vojta_violation_demo through the module object
    try:
        report = cli.run_scenario("vojta-demo", inputs["params"],
                                  seed=inputs["seed"])
        text = report.to_text()
    finally:
        heights.sections_avoiding, heights.vojta_violation_demo = search, demo
    units = [((a[0] + b[0]) / 2, b[1] - a[1])
             for a, b in zip(marks, marks[1:])]
    return (report, text), units, []


def summary(out):
    return out[1]


def check(inputs, out):
    """Closed-form heights, constant discriminant, strict growth, and every
    requested (A, c) violated; the expected values are derived here, not
    read from the report."""
    report, text = out
    p, d, n, m_max = P, D, N, inputs["params"]["M"]
    errors = []
    family = report.outputs["family"]
    if [row["m"] for row in family] != list(range(1, m_max + 1)):
        errors.append("family rows are not m = 1..M")
    for row in family:
        want = (d * n * (p + 1) - 3) * p * row["m"]
        if row["canonical_height"] != want:
            errors.append(f"m={row['m']}: height {row['canonical_height']}"
                          f" != (d*n*(p+1)-3)*p*m = {want}")
        if row["d"] != "-2":
            errors.append(f"m={row['m']}: discriminant {row['d']} != -2")
    hs = [row["canonical_height"] for row in family]
    if any(a >= b for a, b in zip(hs, hs[1:])):
        errors.append("heights do not increase strictly")
    found = {(v["A"], v["c"]): v for v in report.outputs["violations"]}
    for a_val in A_VALUES:
        for c_val in C_VALUES:
            v = found.get((a_val, c_val))
            if v is None or not v["height"] > a_val * Fraction(-2) + c_val:
                errors.append(f"(A, c) = ({a_val}, {c_val}) not violated")
    if not text.endswith("result: PASS\n"):
        errors.append("rendered report does not end in PASS")
    return errors
