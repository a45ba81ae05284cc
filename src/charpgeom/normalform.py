"""Formal normal form at a nondegenerate critical point.

Brings f with f(0) critical and nondegenerate Hessian to the shape
a_0 + x_1^2 + ... + x_n^2 modulo m^r, entirely within truncated polynomial
arithmetic: first the quadratic part is normalized by an exact congruence
diagonalization (square roots taken in at most one quadratic extension of
the coefficient field, with the extension degree reported), then one
homogeneous correction step per degree r' = 3..r-1 kills the lowest
nonquadratic part, solving 2*sum_i x_i*phi_i = -(degree-r' part) monomial by
monomial (the formal Morse lemma).

Each degree-r' monomial is assigned to the highest variable index dividing
it, which pins the correction uniquely and deterministically; any assignment
works, and the certificate below is independent of the choice.  The index
is read off the key's exponent tuple (`Ring.exponents`), so the key layout
and its field width stay inside `algebra/`.

Each step is kept as its substitution, one order-r jet per variable on
the ring kernel's codes, built once: the linear jets from the diagonalizing
matrix, each correction straight from the degree-r' keys of `g.packed`.  The
returned CoordinateChange records the steps and their composed total
L o S_3 o ... o S_{r-1}, built right to left: the map composed so far is
substituted into each earlier step's jets, never a step into that dense
map.  The number of products a composition makes is set by the terms of
the jets substituted into; a correction jet is x_i plus a few degree-(r'-1)
terms, and the linear step, composed last, makes no products at all.

The certificate is the recomposition jet_compose(f - a_0, total, r),
compared against sum x_i^2.  It starts from f and the total, never from the
engine's g, so it does not trust the solver's intermediate state; but it
runs the same `jet_compose` and `Ring.mul` as the engine, so a fault shared
by both can pass it.  A verifier with its own product code is ROADMAP item
6(c).
"""

from dataclasses import dataclass

from .algebra.finitefield import FiniteField
from .algebra.multipoly import MultiPoly, det, hessian_matrix
from .algebra.linalg import mat_mul
from .algebra.jets import Jet, jet_compose


@dataclass
class Diagonalization:
    """Congruence change C with C^T Q C = identity, over `fld`.

    `fld` may be a quadratic extension of the input field (square roots of
    the diagonal entries); `extension_degree` is 1 or 2 and `embed` maps the
    original field in.
    """

    matrix: list
    fld: FiniteField
    extension_degree: int
    embed: object

    def verify(self, q_matrix):
        """C^T Q C is the identity, with Q embedded into `fld`."""
        fld, c = self.fld, self.matrix
        q = [[self.embed(a) for a in row] for row in q_matrix]
        ctqc = mat_mul([list(col) for col in zip(*c)], mat_mul(q, c, fld), fld)
        return ctqc == [[fld.one if i == j else fld.zero for j in range(len(c))]
                        for i in range(len(c))]


def diagonalize_quadratic(q_matrix, fld):
    """Invertible C with C^T Q C = I, enlarging the field for square roots.

    Q must be symmetric and nonsingular over F_q with q odd.  Symmetric
    Gaussian congruence produces C0 with C0^T Q C0 diagonal; the rescaling
    to the identity divides each column by a square root of its diagonal
    entry, which exists in F_q or (always) in F_{q^2}.
    """
    n = len(q_matrix)
    p = fld.p
    if p == 2:
        raise ValueError("characteristic 2 is excluded")
    for i in range(n):
        for j in range(n):
            if q_matrix[i][j] != q_matrix[j][i]:
                raise ValueError("matrix is not symmetric")
    if not det(q_matrix, fld):
        raise ValueError("singular quadratic form")
    q = [[q_matrix[i][j] for j in range(n)] for i in range(n)]
    c = [[fld.one if i == j else fld.zero for j in range(n)] for i in range(n)]

    def add_col(dst, src, factor):
        # column operation x_src += factor * x_dst ... applied as congruence:
        # col_dst := col_dst + factor * col_src on both Q (two-sided) and C
        for r in range(n):
            c[r][dst] = c[r][dst] + factor * c[r][src]
        for r in range(n):
            q[r][dst] = q[r][dst] + factor * q[r][src]
        for r in range(n):
            q[dst][r] = q[dst][r] + factor * q[src][r]

    for i in range(n):
        if not q[i][i]:
            # bring a nonzero onto the diagonal: a lower diagonal entry ...
            pivot = next((j for j in range(i + 1, n) if q[j][j]), None)
            if pivot is not None:
                for r in range(n):
                    c[r][i], c[r][pivot] = c[r][pivot], c[r][i]
                q[i], q[pivot] = q[pivot], q[i]
                for r in range(n):
                    q[r][i], q[r][pivot] = q[r][pivot], q[r][i]
            else:
                # all remaining diagonal entries vanish; use an off-diagonal
                j = next((j for j in range(i + 1, n) if q[i][j]), None)
                if j is None:
                    raise ValueError("singular quadratic form")
                add_col(i, j, fld.one)   # now q[i][i] = 2*q_old[i][j] != 0
        inv = q[i][i].inverse()
        for j in range(i + 1, n):
            if q[i][j]:
                add_col(j, i, -q[i][j] * inv)
    diag = [q[i][i] for i in range(n)]

    roots = [fld.sqrt(dv) for dv in diag]
    ext = 1 if all(r is not None for r in roots) else 2
    big, embed = fld.extension(ext)
    if ext == 2:
        roots = [big.sqrt(embed(dv)) for dv in diag]
        assert all(r is not None for r in roots), \
            "every element of F_q is a square in F_{q^2}"
    cc = [[embed(c[i][j]) * roots[j].inverse() for j in range(n)]
          for i in range(n)]
    result = Diagonalization(matrix=cc, fld=big, extension_degree=ext,
                             embed=embed)
    if not result.verify(q_matrix):
        raise AssertionError("diagonalization failed re-verification")
    return result


@dataclass
class ChangeStep:
    """One substitution step x_i -> jets[i], order-r jets on kernel codes:
    'linear' (by `matrix`) or a degree-r' 'correction', x_i -> x_i + phi_i
    with phi_i homogeneous of degree r' - 1."""

    kind: str
    degree: int = 0
    matrix: list = None
    jets: list = None

    def describe(self):
        if self.kind == "linear":
            return f"linear change by the diagonalizing matrix ({len(self.matrix)}x{len(self.matrix)})"
        touched = [i + 1 for i, jet in enumerate(self.jets) if len(jet.packed) > 1]
        return f"degree-{self.degree} correction on variables {touched}"


@dataclass
class CoordinateChange:
    """Ordered substitution steps plus their composed total as a jet tuple,
    total = steps[0] o steps[1] o ..., with (A o B)_i = A_i(B_1, ..., B_n).

    `normal_form` composes right to left, substituting the map composed so
    far into each earlier step's sparse jets.  That makes fewer products
    than substituting each step into the dense map composed before it, and
    gives the same jets: composition of zero-constant jets is associative,
    truncation included."""

    steps: list
    total: list
    order: int

    def linear_part(self):
        n = len(self.total)
        return [[self.total[i].coefficient(
                    tuple(1 if k == j else 0 for k in range(n)))
                 for j in range(n)] for i in range(n)]


@dataclass
class NormalFormResult:
    a0: object
    change: CoordinateChange
    fld: FiniteField
    extension_degree: int
    certificate: Jet
    target: Jet
    embed: object = None       # coefficient embedding into fld

    def recompose(self, f_embedded):
        """The certificate jet_compose(f - a0, total, r).  It starts from f
        and the total, not from the engine's g, but shares `jet_compose`
        and `Ring.mul` with the engine (ROADMAP item 6(c))."""
        shifted = f_embedded - MultiPoly.const(f_embedded.domain,
                                               f_embedded.n, self.a0)
        return jet_compose(shifted, self.change.total, self.change.order)

    def verify(self, f_embedded):
        return self.recompose(f_embedded) == self.target


def normal_form(f, r):
    """Coordinate change certifying f = a0 + sum x_i^2 mod m^r at the origin.

    Preconditions: gradient(f)(0) = 0, Hessian at 0 nondegenerate, p odd,
    r >= 3.  Returns a NormalFormResult whose certificate jet equals the
    target sum x_i^2 (order r) and re-verifies by recomposing f - a0 through
    the composed change.
    """
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

    basis = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    linear = [Jet(big, n, r, dict(zip(basis, row))) for row in diag.matrix]
    steps = [ChangeStep(kind="linear", matrix=diag.matrix, jets=linear)]
    g = jet_compose(work_f - MultiPoly.const(big, n, a0_big), linear, r)
    target = Jet(big, n, r, {tuple(2 * e for e in u): big.one for u in basis})

    ring = g.ring
    variables = [ring.monomial(u) for u in basis]
    neg_half = ring.inverse(ring.coeff(big.elem(-2)))
    for rp in range(3, r):
        # the target has no degree-r' terms, so they are g's: c x^e with
        # x_i the highest variable dividing x^e gives phi_i a term -c/2 x^e/x_i
        part = [(k, c) for k, c in g.packed.items() if k >> ring.top == rp]
        if not part:
            continue
        raw = [{v: ring.one} for v in variables]
        for key, c in part:
            i = max(j for j, e in enumerate(ring.exponents(key)) if e)
            raw[i][key - variables[i]] = ring.times(c, neg_half)
        step = ChangeStep(kind="correction", degree=rp,
                          jets=[g._like(t) for t in raw])
        steps.append(step)
        g = jet_compose(g, step.jets, r)
        if g.truncate(rp + 1) != target.truncate(rp + 1):
            raise AssertionError(f"degree-{rp} correction failed to cancel")
    if g != target:
        raise AssertionError("normal form did not reach the target jet")

    total = steps[-1].jets
    for step in reversed(steps[:-1]):
        total = [jet_compose(sj, total, r) for sj in step.jets]
    result = NormalFormResult(a0=a0_big, change=CoordinateChange(steps, total, r),
                              fld=big, extension_degree=diag.extension_degree,
                              certificate=g, target=target, embed=embed)
    if not result.verify(work_f):
        raise AssertionError("normal form failed recomposition from f")
    return result
