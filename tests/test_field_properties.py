"""Laws of F_{p^m} and of UPoly over it, as property tests.

Skipped without hypothesis.  Over F_9, F_25 and F_27: the field axioms,
Frobenius additive and multiplicative with `pth_root` its inverse, UPoly
division a = q*b + r with deg r < deg b, and a gcd that divides both inputs.
The power laws x^(a+b) = x^a * x^b, (x^a)^b = x^(ab), x^0 = 1 and x^1 = x
for field elements, UPoly, MultiPoly, truncated Jet and RatFunc (negative
exponents where x is invertible), and RatExpr substitution of a chart
transition (1/u, v/u) against evaluation point by point.
"""

import pytest

from charpgeom.algebra.finitefield import FF, pth_root
from charpgeom.algebra.jets import Jet
from charpgeom.algebra.multipoly import MultiPoly, RatExpr
from charpgeom.algebra.unipoly import RatFunc, UPoly

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FIELDS = [FF(3, 2), FF(5, 2), FF(3, 3)]
IDS = ["F9", "F25", "F27"]


def elements(fld):
    return st.integers(0, fld.order - 1).map(fld.from_index)


def upolys(fld, max_deg=12):
    return st.lists(elements(fld), max_size=max_deg + 1).map(
        lambda cs: UPoly(fld, cs))


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_field_axioms(fld):
    @settings(max_examples=150, deadline=None)
    @given(elements(fld), elements(fld), elements(fld))
    def check(a, b, c):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + fld.zero == a and a * fld.one == a
        assert a + (-a) == fld.zero and a - b == a + (-b)
        if a:
            assert a * a.inverse() == fld.one and (b / a) * a == b
    check()


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_frobenius_and_pth_root(fld):
    @settings(max_examples=150, deadline=None)
    @given(elements(fld), elements(fld))
    def check(a, b):
        def frob(a):
            return a ** fld.p
        assert frob(a + b) == frob(a) + frob(b)
        assert frob(a * b) == frob(a) * frob(b)
        assert pth_root(frob(a)) == a and frob(pth_root(a)) == a
    check()


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_divmod_identity(fld):
    @settings(max_examples=100, deadline=None)
    @given(upolys(fld), upolys(fld))
    def check(a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.divmod(b)
            return
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree() < b.degree()
    check()


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_gcd_divides_both(fld):
    @settings(max_examples=100, deadline=None)
    @given(upolys(fld, 8), upolys(fld, 8), upolys(fld, 4))
    def check(a, b, common):
        # a shared factor makes nontrivial gcds common
        a, b = a * common, b * common
        g = a.gcd(b)
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            return
        assert g.leading() == fld.one
        assert (a % g).is_zero() and (b % g).is_zero()
        if not common.is_zero():
            assert (g % common.monic()).is_zero()
    check()


def multipolys(fld, n=2, max_deg=2, max_terms=3):
    mono = st.tuples(*[st.integers(0, max_deg)] * n)
    return st.dictionaries(mono, elements(fld), max_size=max_terms).map(
        lambda terms: MultiPoly(fld, n, terms))


# kind -> (strategy of x, the one of x's ring, largest |exponent|, and
# whether an invertible x takes negative exponents)
POWER_KINDS = {
    "element": (elements, lambda fld: fld.one, 40, True),
    "upoly": (lambda fld: upolys(fld, 3), lambda fld: UPoly.const(fld, 1), 5, False),
    "multipoly": (multipolys, lambda fld: MultiPoly.const(fld, 2, 1), 4, False),
    "jet": (lambda fld: multipolys(fld, 2, 3, 4).map(lambda f: Jet.from_poly(f, 4)),
            lambda fld: Jet(fld, 2, 4, {(0, 0): 1}), 6, False),
    "ratfunc": (lambda fld: st.tuples(upolys(fld, 2), upolys(fld, 2).filter(bool)).map(
        lambda nd: RatFunc(*nd)), lambda fld: RatFunc.const(fld, 1), 4, True),
}


@pytest.mark.parametrize("kind", sorted(POWER_KINDS))
@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_power_laws(fld, kind):
    strategy, one_of, bound, invertible = POWER_KINDS[kind]
    one = one_of(fld)
    low = -bound if invertible else 0

    @settings(max_examples=40, deadline=None)
    @given(strategy(fld), st.integers(low, bound), st.integers(low, bound))
    def check(x, a, b):
        assert x ** 0 == one and x ** 1 == x
        if not x:
            a, b = abs(a), abs(b)
        assert x ** (a + b) == x ** a * x ** b
        assert (x ** a) ** b == x ** (a * b)
    check()


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_ratexpr_subs_of_a_chart_transition_agrees_pointwise(fld):
    # chart j's coordinates in chart i's: x_i/x_j -> 1/u, x_l/x_j -> v/u
    u, v = MultiPoly.variables(fld, 2)
    one = MultiPoly.const(fld, 2, 1)
    cmap = [RatExpr(one, u), RatExpr(v, u)]
    points = [(a, b) for a in fld.elements() if a for b in fld.elements()]

    @settings(max_examples=8, deadline=None)
    @given(multipolys(fld, 2, 4, 5), multipolys(fld, 2, 2, 3).filter(bool))
    def check(f, h):
        sub = RatExpr(f, h).subs(cmap)
        for pt in points:
            mapped = tuple(c.num.evaluate(pt) / c.den.evaluate(pt) for c in cmap)
            hv = h.evaluate(mapped)
            if hv:
                assert (sub.num.evaluate(pt) / sub.den.evaluate(pt)
                        == f.evaluate(mapped) / hv)
    check()
