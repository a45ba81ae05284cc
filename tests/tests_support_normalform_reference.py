"""Frozen reference: the normal-form engine that stored corrections twice.

This is `normalform.normal_form` as it was when each correction step was a
{variable index: MultiPoly} dict, filled monomial by monomial from the
unpacked `(g - target).homogeneous_part(r')`, and rebuilt into jets by
`_step_jets` for every composition.  The engine in `charpgeom.normalform`
keeps each step as its substitution jets instead; the differential tests
compare the two on seeded inputs.  Do not edit: its value is that it does
not change.
"""

from dataclasses import dataclass, field as dc_field

from charpgeom.algebra.finitefield import FiniteField
from charpgeom.algebra.jets import Jet, jet_compose
from charpgeom.algebra.multipoly import MultiPoly, det, hessian_matrix
from charpgeom.normalform import NormalFormResult, diagonalize_quadratic


@dataclass
class ChangeStep:
    """One substitution step: 'linear' (matrix) or 'correction' (degree r')."""

    kind: str
    degree: int = 0
    matrix: list = None
    corrections: dict = dc_field(default_factory=dict)  # var index -> MultiPoly

    def describe(self):
        if self.kind == "linear":
            return f"linear change by the diagonalizing matrix ({len(self.matrix)}x{len(self.matrix)})"
        vars_touched = sorted(self.corrections)
        return (f"degree-{self.degree} correction on variables "
                f"{[v + 1 for v in vars_touched]}")


@dataclass
class CoordinateChange:
    """Ordered substitution steps plus their composed total as a jet tuple."""

    steps: list
    total: list
    fld: FiniteField
    extension_degree: int
    a0: object
    order: int

    def linear_part(self):
        n = len(self.total)
        return [[self.total[i].coefficient(
                    tuple(1 if k == j else 0 for k in range(n)))
                 for j in range(n)] for i in range(n)]


def _step_jets(fld, n, order, step):
    if step.kind == "linear":
        jets = []
        for i in range(n):
            terms = {}
            for j in range(n):
                if step.matrix[i][j] != fld.zero:
                    e = [0] * n
                    e[j] = 1
                    terms[tuple(e)] = step.matrix[i][j]
            jets.append(Jet(fld, n, order, terms))
        return jets
    jets = []
    for i in range(n):
        base = Jet.from_poly(MultiPoly.var(fld, n, i), order)
        corr = step.corrections.get(i)
        if corr is not None:
            base = base + Jet.from_poly(corr, order)
        jets.append(base)
    return jets


def normal_form(f, r):
    """Coordinate change certifying f = a0 + sum x_i^2 mod m^r at the origin."""
    fld = f.domain
    n = f.n
    if not isinstance(fld, FiniteField):
        raise TypeError("normal_form expects coefficients in a finite field")
    if fld.p == 2:
        raise ValueError("characteristic 2 is excluded")
    if r < 3:
        raise ValueError("order r must be at least 3")
    # values at the origin are constant terms
    if any(g.constant_term() != fld.zero for g in f.gradient()):
        raise ValueError("not a critical point")
    hess = [[h.constant_term() for h in row] for row in hessian_matrix(f)]
    if not det(hess, fld):
        raise ValueError("degenerate Hessian at the critical point")
    a0 = f.constant_term()

    # normalize the quadratic part: C^T (H/2) C = I makes it sum x_i^2
    half = fld.elem(2).inverse()
    halfh = [[hess[i][j] * half for j in range(n)] for i in range(n)]
    diag = diagonalize_quadratic(halfh, fld)
    big, embed = diag.fld, diag.embed
    work_f = f.map_coefficients(big, embed) if diag.extension_degree > 1 else f
    a0_big = embed(a0)

    steps = [ChangeStep(kind="linear", matrix=diag.matrix)]
    shifted = work_f - MultiPoly.const(big, n, a0_big)
    g = jet_compose(shifted, _step_jets(big, n, r, steps[0]), r)

    target = Jet(big, n, r, {tuple(2 * (j == i) for j in range(n)): big.one
                             for i in range(n)})

    two_inv = big.elem(2).inverse()
    for rp in range(3, r):
        part = (g - target).homogeneous_part(rp)
        if not part:
            continue
        corrections = {}
        for exps, coeff in part.items():
            i = max(idx for idx, e in enumerate(exps) if e > 0)
            j = list(exps)
            j[i] -= 1
            mono = MultiPoly.monomial(big, n, tuple(j), -coeff * two_inv)
            corrections[i] = corrections.get(i, MultiPoly(big, n)) + mono
        step = ChangeStep(kind="correction", degree=rp, corrections=corrections)
        steps.append(step)
        g = jet_compose(g, _step_jets(big, n, r, step), r)
        low = g.truncate(rp + 1)
        if low != target.truncate(rp + 1):
            raise AssertionError(f"degree-{rp} correction failed to cancel")
    if g != target:
        raise AssertionError("normal form did not reach the target jet")

    total = _step_jets(big, n, r, steps[0])
    for step in steps[1:]:
        sj = _step_jets(big, n, r, step)
        total = [jet_compose(tj, sj, r) for tj in total]
    change = CoordinateChange(steps=steps, total=total, fld=big,
                              extension_degree=diag.extension_degree,
                              a0=a0_big, order=r)
    result = NormalFormResult(a0=a0_big, change=change, fld=big,
                              extension_degree=diag.extension_degree,
                              certificate=g, target=target, embed=embed)
    if not result.verify(work_f):
        raise AssertionError("normal form failed independent recomposition")
    return result
