"""Multivariate polynomials: ring laws, char-p calculus, text encoding."""

import ast
import pathlib
import random

import pytest

import charpgeom
from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.multipoly import MultiPoly, RatExpr, parse_poly, hessian_at, det


def rand_mpoly(fld, n, rng, max_deg=4, max_terms=6):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        e = tuple(rng.randrange(0, max_deg) for _ in range(n))
        c = rng.randrange(fld.order)
        if c:
            terms[e] = fld.from_index(c)
    return MultiPoly(fld, n, terms)


def test_ring_laws_random_triples():
    fld = FF(5)
    rng = random.Random(1)
    for _ in range(60):
        a = rand_mpoly(fld, 2, rng)
        b = rand_mpoly(fld, 2, rng)
        c = rand_mpoly(fld, 2, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == MultiPoly.zero(fld, 2)


def test_no_stored_zero_coefficients():
    fld = FF(3)
    x, y = MultiPoly.variables(fld, 2)
    f = (x + y) - x - y
    assert f.terms == {}
    g = (x + y) * (x - y)   # x^2 - y^2; cross terms cancel
    assert set(g.terms) == {(2, 0), (0, 2)}


def _derivative_oracle(f, i):
    # independent term-by-term differentiation
    out = {}
    p = f.domain.p
    for e, c in f.terms.items():
        if e[i] == 0 or e[i] % p == 0:
            continue
        ne = list(e)
        ne[i] -= 1
        out[tuple(ne)] = c * (e[i] % p)
    return MultiPoly(f.domain, f.n, out)


def test_gradient_trivial_examples():
    fld = FF(5)
    x1, x2 = MultiPoly.variables(fld, 2)
    assert (x1 ** 2 + x2 ** 2).gradient() == [x1 * 2, x2 * 2]
    assert MultiPoly.var(fld, 2, 0, 5).gradient()[0].is_zero()


def test_gradient_derived_example():
    # f = x1^2 x2 + x2^3, p = 5 -> (2 x1 x2, x1^2 + 3 x2^2)
    fld = FF(5)
    x1, x2 = MultiPoly.variables(fld, 2)
    f = x1 ** 2 * x2 + x2 ** 3
    g = f.gradient()
    assert g[0] == _derivative_oracle(f, 0) == x1 * x2 * 2
    assert g[1] == _derivative_oracle(f, 1) == x1 ** 2 + x2 ** 2 * 3


def test_gradient_additive_and_leibniz_200_trials():
    for p in (3, 5, 7):
        fld = FF(p)
        rng = random.Random(p)
        for _ in range(200):
            a = rand_mpoly(fld, 2, rng)
            b = rand_mpoly(fld, 2, rng)
            i = rng.randrange(2)
            assert (a + b).derivative(i) == a.derivative(i) + b.derivative(i)
            assert (a * b).derivative(i) == \
                a.derivative(i) * b + a * b.derivative(i)


def test_derivative_matches_oracle_random():
    fld = FF(7)
    rng = random.Random(11)
    for _ in range(100):
        f = rand_mpoly(fld, 3, rng, max_deg=9)
        i = rng.randrange(3)
        assert f.derivative(i) == _derivative_oracle(f, i)


def test_hessian_examples():
    fld = FF(5)
    x1, x2 = MultiPoly.variables(fld, 2)
    origin = (fld.zero, fld.zero)
    h, nondeg = hessian_at(x1 ** 2 + x2 ** 2, origin)
    assert nondeg and h[0][0] == fld.elem(2) and h[1][1] == fld.elem(2)
    assert h[0][1] == fld.zero
    # f = x^3 at 0, p >= 5: degenerate
    f3 = MultiPoly.var(fld, 1, 0, 3)
    h3, nondeg3 = hessian_at(f3, (fld.zero,))
    assert not nondeg3 and h3[0][0] == fld.zero
    # f = x y at 0: det = -1 != 0
    hxy, nondeg_xy = hessian_at(x1 * x2, origin)
    assert nondeg_xy
    assert hxy[0][1] == fld.one and hxy[1][0] == fld.one
    assert det(hxy, fld) == fld.elem(-1)


def test_hessian_symmetric_random():
    fld = FF(7)
    rng = random.Random(5)
    for _ in range(30):
        f = rand_mpoly(fld, 3, rng)
        pt = tuple(fld.from_index(rng.randrange(7)) for _ in range(3))
        h, _ = hessian_at(f, pt)
        for i in range(3):
            for j in range(3):
                assert h[i][j] == h[j][i]


def test_hessian_rejects_char_2():
    # characteristic 2 never constructs a field here, so simulate via a stub
    class Stub:
        p, zero, one = 2, 0, 1

        def elem(self, c):
            return c
    f = MultiPoly(Stub(), 1)
    with pytest.raises(ValueError):
        hessian_at(f, ())


def test_subs_against_evaluation():
    fld = FF(5)
    rng = random.Random(8)
    for _ in range(20):
        f = rand_mpoly(fld, 2, rng)
        g1 = rand_mpoly(fld, 2, rng)
        g2 = rand_mpoly(fld, 2, rng)
        comp = f.subs([g1, g2])
        for _ in range(10):
            pt = (fld.from_index(rng.randrange(5)), fld.from_index(rng.randrange(5)))
            assert comp.evaluate(pt) == f.evaluate(
                (g1.evaluate(pt), g2.evaluate(pt)))


def test_evaluation_needs_one_coordinate_per_variable():
    fld = FF(5)
    x1, x2 = MultiPoly.variables(fld, 2)
    one = fld.one
    assert (x1 * x2).evaluate((one, one)) == one
    for point in [(one,), (one, one, one)]:
        with pytest.raises(ValueError, match="one coordinate per variable"):
            (x1 * x2).evaluate(point)


def test_text_encoding_round_trip_and_generator_coeffs():
    fld = FF(3, 2)
    x1, x2 = MultiPoly.variables(fld, 2)
    g = fld.generator()
    f = x1 ** 2 * x2 + MultiPoly.const(fld, 2, g) * x2 ** 3 + 1
    text = f.format()
    assert parse_poly(text, fld, ["x1", "x2"]) == f
    f5 = FF(5)
    q = parse_poly("2*x1^2*x2 + x2^3 + 4", f5, ["x1", "x2"])
    assert q.coefficient((2, 1)) == f5.elem(2)
    assert q.coefficient((0, 3)) == f5.one
    assert q.constant_term() == f5.elem(4)


def test_parse_poly_signs_and_empty_terms():
    fld = FF(5)
    t = MultiPoly.var(fld, 1, 0)
    assert parse_poly("-t+1", fld, ["t"]) == -t + 1
    assert parse_poly("t-1", fld, ["t"]) == t - 1
    assert parse_poly(" t - 2*t^2 ", fld, ["t"]) == t - 2 * t ** 2
    for text in ["t^2+", "t++1", "+t", "t--1", "", "-"]:
        with pytest.raises(ValueError, match="empty term"):
            parse_poly(text, fld, ["t"])


def test_ratexpr_cross_multiplication_equality():
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    a = RatExpr(x * x - y * y, x - y)
    b = RatExpr(x + y)
    assert a == b
    assert not (RatExpr(x) == RatExpr(y))
    c = RatExpr(MultiPoly.const(fld, 2, 1), x)
    assert c * RatExpr(x) == RatExpr(MultiPoly.const(fld, 2, 1))


def test_ratexpr_derivative_quotient_rule():
    fld = FF(7)
    x, y = MultiPoly.variables(fld, 2)
    r = RatExpr(x * y, x + y)
    dr = r.derivative(0)
    # d/dx (xy/(x+y)) = (y(x+y) - xy)/(x+y)^2 = y^2/(x+y)^2
    assert dr == RatExpr(y * y, (x + y) * (x + y))


def test_ratexpr_substitution():
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    r = RatExpr(x, y)
    sub = r.subs([RatExpr(MultiPoly.const(fld, 2, 1), x),
                  RatExpr(y, x)])       # x -> 1/x, y -> y/x
    assert sub == RatExpr(MultiPoly.const(fld, 2, 1), y)


def test_ratexpr_subs_rejects_entries_that_are_not_monomial_fractions():
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    r = RatExpr(x * y + 1, y)
    for bad in (RatExpr(x + 1, y), RatExpr(x, x + y),
                RatExpr(MultiPoly.zero(fld, 2), y)):
        with pytest.raises(ValueError, match="quotients of monomials"):
            r.subs([RatExpr(x), bad])


def test_ratexpr_subs_of_monomial_fractions_agrees_pointwise():
    # coefficients other than 1, maps that merge terms and cancel them
    fld = FF(7)
    rng = random.Random(13)
    points = [(a, b) for a in fld.elements() if a for b in fld.elements() if b]

    def fraction():
        def mono():
            return MultiPoly.monomial(
                fld, 2, (rng.randrange(3), rng.randrange(3)),
                rng.randrange(1, 7))
        return RatExpr(mono(), mono())

    for _ in range(40):
        f = rand_mpoly(fld, 2, rng)
        h = rand_mpoly(fld, 2, rng)
        if h.is_zero():
            continue
        cmap = [fraction(), fraction()]
        try:
            sub = RatExpr(f, h).subs(cmap)
        except ZeroDivisionError:       # h maps to zero: no fraction
            continue
        for pt in points:
            mapped = tuple(c.num.evaluate(pt) / c.den.evaluate(pt) for c in cmap)
            hv = h.evaluate(mapped)
            assert (sub.den.evaluate(pt) == 0) == (hv == 0)
            if hv:
                assert (sub.num.evaluate(pt) / sub.den.evaluate(pt)
                        == f.evaluate(mapped) / hv)
    x, y = MultiPoly.variables(fld, 2)
    # x -> y, y -> y merges x + 6y to zero
    zero = RatExpr(x + y * 6).subs([RatExpr(y), RatExpr(y)])
    assert zero.num.is_zero()
    with pytest.raises(ZeroDivisionError):
        RatExpr(x, x + y * 6).subs([RatExpr(y), RatExpr(y)])


def test_mixed_rings_raise():
    # exponent tuples of another length used to be truncated by zip:
    # x * z returned x
    fld = FF(5)
    x = MultiPoly.var(fld, 2, 0)
    z = MultiPoly.var(fld, 3, 2)
    for op in ("__add__", "__sub__", "__mul__", "__rsub__"):
        with pytest.raises(ValueError):
            getattr(x, op)(z)
    with pytest.raises(ValueError):
        x * MultiPoly.var(FF(3), 2, 0)
    assert x * MultiPoly.var(FF(5), 2, 1) == MultiPoly.monomial(fld, 2, (1, 1))


def _writes_terms(target):
    """Does an assignment or del target store into `<expr>.terms[...]`?"""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_terms(t) for t in target.elts)
    if isinstance(target, ast.Starred):
        return _writes_terms(target.value)
    return (isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "terms")


def test_terms_written_only_inside_algebra():
    # outside algebra/, polynomials are built through the constructor, so
    # `MultiPoly.terms` can become a read-only view
    root = pathlib.Path(charpgeom.__file__).parent
    writers = []
    for path in sorted(root.rglob("*.py")):
        if "algebra" in path.relative_to(root).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            else:
                continue
            if any(_writes_terms(t) for t in targets):
                writers.append(f"{path.name}:{node.lineno}")
    assert not writers, f"assignments into .terms[...]: {writers}"
