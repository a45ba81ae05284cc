"""Iterated blow-up desingularization of z^p = x_1^2 + ... + x_n^2.

One blow-up at the origin produces n+1 charts.  Substituting z = v*x_i,
x_j = u_j*x_i makes the total transform factor as x_i^2 * (strict transform)
with strict transform v^p * x_i^(p-2) - 1 - sum u_j^2, which is smooth and is
certified so by a Jacobian-ideal membership certificate.  Substituting
x_j = w_j*z gives z^2 * (z^(p-2) - sum w_j^2): the same local model with p
dropped by two.  So exactly (p-1)/2 singular-center blow-ups reach
z = sum w_j^2, every center has multiplicity exactly 2 (verified by direct
factorization at every step, never assumed), and the pullback of O(Z)
accumulates coefficient 2 on each step's exceptional divisor.

Documentation notes on the source construction this follows: the enclosing
statement advertises "p blow ups" while its own recursion terminates after
(p-1)/2, which is what the code performs and verifies; and the summary
formula for the pullback prints exceptional coefficient 1 while the
factorization (and the adjunction computation that consumes it) gives 2.
Both discrepancies are resolved in favor of the verified factorization.
"""

from dataclasses import dataclass, field as dc_field

from .algebra.finitefield import FF, FiniteField, is_prime
from .algebra.multipoly import MultiPoly, RatExpr
from .algebra.groebner import groebner_membership_one
from .covers import common_zeros

# Largest number of points a witness sweep visits (a field whose n-space is
# larger is not searched), and the degrees over the base field searched.
WITNESS_SWEEP_MAX = 400000
WITNESS_EXTENSIONS = (1, 2)


@dataclass
class BlowupChart:
    """One affine chart of a single blow-up step."""

    label: str                 # "z" or "x<i>"
    names: tuple               # ambient coordinate names, in variable order
    strict: MultiPoly          # strict-transform equation
    exceptional_index: int     # variable cutting the exceptional divisor
    multiplicity: int          # exponent of the exceptional factor
    step_index: int
    substitution: list         # blow-up map: new MultiPoly per old variable
    smooth_certificate: object = None
    singular_witness: object = None
    certificate_status: str = "unchecked"


@dataclass
class DesingReport:
    p: int
    n: int
    steps: list                      # list of lists of BlowupChart
    multiplicities: list             # one per step (all 2)
    final_equation: MultiPoly
    final_names: tuple
    ledger: dict = dc_field(default_factory=dict)

    @property
    def num_blowups(self):
        return len(self.steps)


def _variable_names(n):
    # chart ambient: coordinate 0 is the fiber variable, 1..n the base
    return ("z",) + tuple(f"x{i}" for i in range(1, n + 1))


def local_model(p, n):
    """The hypersurface z^p - (x_1^2 + ... + x_n^2) over F_p."""
    fld = FF(p)
    terms = {(p,) + (0,) * n: fld.one}
    for i in range(1, n + 1):
        terms[(0,) * i + (2,) + (0,) * (n - i)] = -fld.one
    return MultiPoly(fld, n + 1, terms)


def blowup_step(equation, step_index, names):
    """Blow up the chart origin; emit the n+1 charts with factored transforms.

    The center must be singular (equation and gradient vanish at the origin);
    otherwise this raises.  Each chart's total transform is factored as
    (exceptional)^mu * strict by exact exponent extraction, and the identity
    is re-verified by multiplication before the chart is returned.  The
    charts carry `step_index`; `names` name the variables of chart 0.
    """
    fld = equation.domain
    nv = equation.n
    # values at the origin are constant terms
    if equation.constant_term() != fld.zero:
        raise ValueError("center is not on the hypersurface")
    if any(g.constant_term() != fld.zero for g in equation.gradient()):
        raise ValueError("center is not a singular point")
    charts, new = [], MultiPoly.variables(fld, nv)
    for i in range(nv):
        # chart i: old_var_i = new_i, old_var_j = new_j * new_i  (j != i)
        subs = [new[i] if j == i else new[j] * new[i] for j in range(nv)]
        total = equation.subs(subs)
        if total.is_zero():
            raise AssertionError("total transform vanished")
        terms = total.terms
        mu = min(e[i] for e in terms)
        strict = MultiPoly(fld, nv, {
            e[:i] + (e[i] - mu,) + e[i + 1:]: c for e, c in terms.items()})
        check = strict * MultiPoly.var(fld, nv, i, mu)
        if check != total:
            raise AssertionError("exceptional factorization failed to re-verify")
        chart_names = names if i == 0 else tuple(
            "v" if j == 0 else (names[i] if j == i else f"u{j}") for j in range(nv))
        charts.append(BlowupChart(
            label=names[i], names=chart_names, strict=strict,
            exceptional_index=i, multiplicity=mu, step_index=step_index,
            substitution=subs))
    return charts


def smoothness_certificate(equation):
    """Jacobian criterion, exactly: 1 in (F, dF/dx_1, ...) or a witness.

    Returns (status, payload): status "smooth" with a re-verified cofactor
    certificate; "singular" with a common zero found over the base field or
    an extension; or "exhausted"/"inconclusive" when the pair budget ran out
    or no witness lives in the searched fields (a field is not searched when
    its n-space has more than WITNESS_SWEEP_MAX points).  An exhausted
    Groebner run is never reported as smooth.
    """
    gens = [equation] + equation.gradient()
    res = groebner_membership_one(gens)
    if res.status == "certificate":
        return "smooth", res.certificate
    fld = equation.domain
    if isinstance(fld, FiniteField):
        for ext in WITNESS_EXTENSIONS:
            if fld.order ** (ext * equation.n) > WITNESS_SWEEP_MAX:
                continue
            search, embed = fld.extension(ext)
            eq = equation.map_coefficients(search, embed)
            pt = next(common_zeros([eq] + eq.gradient()), None)
            if pt is not None:
                return "singular", {"witness": pt, "field": search}
    if res.status == "exhausted":
        return "exhausted", {"pairs": res.pairs_processed}
    return "inconclusive", {"note": "no unit certificate; no witness in the "
                                    "searched fields", "basis": res.basis}


def desingularize(p, n):
    """Resolve z^p = sum x_i^2 by (p-1)/2 blow-ups at singular origins.

    Follows the z-chart recursion z^(p-2k) = sum w^2, certifying every
    non-z chart smooth (Jacobian certificate) and extracting multiplicity 2
    by direct factorization at each step.  The ledger aggregates
    f*(O(Z)) = O(Z_final) + sum 2 E_k.
    """
    if n < 2:
        raise ValueError("need n >= 2 base variables")
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    eq = local_model(p, n)
    names = _variable_names(n)
    steps = []
    mults = []
    expected = (p - 1) // 2
    k = 0
    while True:
        zexp = eq.degree_in(0)
        if zexp == 1:
            break                      # z = sum w^2: smooth, stop
        charts = blowup_step(eq, k, names)
        zchart = charts[0]
        for ch in charts:
            if ch is zchart and ch.strict.degree_in(0) != 1:
                # still singular: the next center; no certificate expected
                ch.certificate_status = "singular center (next blow-up)"
                continue
            status, payload = smoothness_certificate(ch.strict)
            ch.certificate_status = status
            if status == "smooth":
                ch.smooth_certificate = payload
            elif status == "singular":
                ch.singular_witness = payload
                raise AssertionError(
                    f"chart {ch.label} at step {k} is singular")
            else:
                raise AssertionError(
                    f"chart {ch.label} at step {k}: {status}")
        steps.append(charts)
        mults.append(zchart.multiplicity)
        eq = zchart.strict
        names = ("z",) + tuple(f"w{i}" for i in range(1, n + 1))
        k += 1
        if k > expected:
            raise AssertionError("blow-up recursion exceeded (p-1)/2 steps")
    if k != expected:
        raise AssertionError(f"performed {k} blow-ups, expected {expected}")
    ledger = {
        "pullback": f"f*(O(Z)) = O(Z_{k}) + sum over the {k} steps of 2*E_step",
        "exceptional_coefficients": mults,
        "note": ("coefficient 2 verified by factorization at every step; the "
                 "printed summary formula with coefficient 1 is overridden by "
                 "the verified factorization"),
    }
    return DesingReport(p=p, n=n, steps=steps, multiplicities=mults,
                        final_equation=eq, final_names=names, ledger=ledger)


def pullback_ledger(report):
    """Re-verify the total-transform factorization of every step.

    For each step, substitutes the blow-up map into the step's input
    equation and checks total = (exceptional)^2 * strict by multiplication;
    aggregates the divisor identity for the pullback of O(Z).
    """
    p, n = report.p, report.n
    fld = report.final_equation.domain
    eq = local_model(p, n)
    checks = []
    for k, charts in enumerate(report.steps):
        for ch in charts:
            total = eq.subs(ch.substitution)
            exc = MultiPoly.var(fld, n + 1, ch.exceptional_index,
                                ch.multiplicity)
            ok = total == ch.strict * exc
            checks.append({"step": k, "chart": ch.label,
                           "multiplicity": ch.multiplicity, "ok": ok})
            if not ok:
                raise AssertionError(
                    f"step {k} chart {ch.label}: factorization mismatch")
        eq = charts[0].strict
    if any(c["multiplicity"] != 2 for c in checks):
        raise AssertionError("an exceptional exponent differs from 2")
    return {
        "identity": f"f*(O(Z)) = O(Z_{len(report.steps)}) "
                    f"+ 2*(E_1 + ... + E_{len(report.steps)})",
        "per_chart": checks,
        "steps": len(report.steps),
    }


def chart_overlap_consistency(charts):
    """The z-chart and x_i-chart strict transforms agree on overlaps.

    On the overlap the coordinates are related by v = 1/w_i, u_j = w_j/w_i,
    x_i = w_i*z; the x_i-chart equation pulled back equals w_i^(-2) times the
    z-chart equation, so cross-multiplying by w_i^2 must give an exact
    identity of rational expressions.
    """
    zchart = charts[0]
    fld = zchart.strict.domain
    nv = zchart.strict.n
    w, one = MultiPoly.variables(fld, nv), MultiPoly.const(fld, nv, 1)
    results = []
    for ch in charts[1:]:
        i = ch.exceptional_index
        # v = 1/w_i, x_i = w_i z, u_j = w_j/w_i
        subs = [RatExpr(one, w[i]) if j == 0 else RatExpr(w[i] * w[0]) if j == i
                else RatExpr(w[j], w[i]) for j in range(nv)]
        lhs = RatExpr(ch.strict).subs(subs) * RatExpr(w[i] * w[i])
        rhs = RatExpr(zchart.strict)
        ok = lhs == rhs
        results.append({"chart": ch.label, "ok": ok})
        if not ok:
            raise AssertionError(f"overlap mismatch between z-chart and {ch.label}")
    return results
