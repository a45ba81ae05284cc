"""The shared exponentiation routine, and the inputs it and the polynomial
constructors reject.

`power` is square-and-multiply from the low bit: it multiplies exactly
floor(log2 e) squares plus popcount(e) - 1 partial products, never by
`one`.  `substitute` makes each power of a value once, multiplies a term's
powers in variable order and its coefficient last, and obeys the
substitution laws over F_5, F_9 and F_3(t).  A negative exponent raises ValueError in the rings without
inverses (it used to loop forever, since -1 >> 1 == -1), and inverts in
the fields and fraction types.  Exponent tuples of the wrong length or
with a negative entry raise ValueError instead of packing or multiplying
into a wrong monomial.
"""

import random

import pytest

from charpgeom.algebra import monomials
from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.jets import Jet
from charpgeom.algebra.multipoly import MultiPoly, RatExpr
from charpgeom.algebra.powers import cached_power, power, substitute
from charpgeom.algebra.unipoly import RatFunc, RatFuncField, UPoly


class Counted:
    """An int under multiplication, counting the products taken."""

    products = 0

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.v * other.v)


@pytest.mark.parametrize("e", [0, 1, 2, 3, 4, 5, 7, 8, 13, 64, 127, 1000])
def test_power_takes_the_binary_method_product_count(e):
    Counted.products = 0
    one = Counted(1)
    got = power(Counted(3), e, one)
    assert got.v == 3 ** e
    assert got is one if e == 0 else got is not one
    expected = 0 if e == 0 else e.bit_length() - 1 + bin(e).count("1") - 1
    assert Counted.products == expected


def test_cached_power_steps_once_per_missing_power():
    Counted.products = 0
    cache = {0: Counted(1)}
    assert cached_power(cache, Counted(2), 5).v == 32
    assert Counted.products == 5 and sorted(cache) == [0, 1, 2, 3, 4, 5]
    assert cached_power(cache, Counted(2), 3).v == 8
    assert cached_power(cache, Counted(2), 7).v == 128
    assert Counted.products == 7


class Word:
    """A word under concatenation: products keep their order."""

    products = 0

    def __init__(self, s):
        self.s = s

    def __mul__(self, other):
        Word.products += 1
        return Word(self.s + other.s)

    def __add__(self, other):
        return Word(f"{self.s}+{other.s}")


def test_substitute_orders_products_and_makes_each_power_once():
    x, y, c = Word("x"), Word("y"), Word("c")
    Word.products = 0
    got = substitute({(3, 0): c, (2, 1): c, (1, 2): c, (0, 0): Word("d")},
                     [x, y], Word("0"))
    assert got.s == "0+xxxc+xxyc+xyyc+d"
    # x^2, x^3 and y^2 once each, then 1 + 2 + 2 term products
    assert Word.products == 3 + 5
    assert substitute({}, [x, y], Word("0")).s == "0"
    assert substitute({(2, 1): 5, (0, 0): 7}, [2, 3], 0) == 67


def _random_element(domain, rng):
    if isinstance(domain, RatFuncField):
        fld = domain.base
        return RatFunc(UPoly.from_ints(fld, [rng.randrange(3) for _ in range(3)]),
                       UPoly.from_ints(fld, [1, rng.randrange(3)]))
    return domain.from_index(rng.randrange(domain.order))


def _random_poly(domain, n, rng, max_deg=3):
    return MultiPoly(domain, n, {
        tuple(rng.randrange(max_deg) for _ in range(n)):
            _random_element(domain, rng) for _ in range(rng.randrange(5))})


def _termwise(f, point):
    """f at point, one `**` per variable and term."""
    acc = f.domain.zero
    for e, c in f.terms.items():
        for x, k in zip(point, e):
            c = c * x ** k
        acc = acc + c
    return acc


@pytest.mark.parametrize("domain", [FF(5), FF(3, 2), RatFuncField(FF(3))],
                         ids=["F5", "F9", "F3(t)"])
def test_substitution_laws(domain):
    rng = random.Random(repr(domain))
    for _ in range(15):
        f = _random_poly(domain, 2, rng)
        gs = [_random_poly(domain, 3, rng, 2) for _ in range(2)]
        point = [_random_element(domain, rng) for _ in range(3)]
        assert f.subs(gs).evaluate(point) \
            == f.evaluate([g.evaluate(point) for g in gs])
        assert f.evaluate(point[:2]) == _termwise(f, point[:2])
        for g in gs:
            assert g.evaluate(point) == _termwise(g, point)


def test_negative_powers_raise_in_rings_without_inverses():
    fld = FF(5)
    x = MultiPoly.var(fld, 2, 0) + 1
    cases = [x, UPoly.from_ints(fld, [1, 1]), Jet.from_poly(x, 3)]
    for a in cases:
        with pytest.raises(ValueError, match="negative exponent"):
            a ** -1
        with pytest.raises(ValueError, match="negative exponent"):
            a ** -4
    with pytest.raises(ValueError, match="negative exponent"):
        power(2, -1, 1)


def test_negative_powers_invert_in_fields_and_fractions():
    for fld in (FF(5), FF(3, 2)):
        for a in list(fld.elements())[1:]:
            assert a ** -1 == a.inverse() and a ** -3 * a ** 3 == fld.one
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            fld.zero ** -1
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            fld.one / fld.zero
    fld = FF(5)
    t = RatFunc(UPoly.from_ints(fld, [1, 2]), UPoly.from_ints(fld, [0, 1]))
    assert t ** -2 * t ** 2 == RatFunc.const(fld, 1)
    x, y = MultiPoly.variables(fld, 2)
    r = RatExpr(x + 1, y)
    assert r ** -2 == RatExpr(y * y, (x + 1) * (x + 1))


@pytest.mark.parametrize("exps", [(0, 0, 1), (1,), (-1, 2), (2, -1)])
def test_bad_exponent_tuples_raise(exps):
    fld = FF(5)
    ring = monomials.ring(fld, 2)
    with pytest.raises(ValueError, match="exponents"):
        ring.monomial(exps)
    with pytest.raises(ValueError, match="exponents"):
        MultiPoly(fld, 2, {exps: fld.one})
    with pytest.raises(ValueError, match="exponents"):
        MultiPoly.monomial(fld, 2, exps)
    with pytest.raises(ValueError, match="exponents"):
        Jet(fld, 2, 5, {exps: 1})


def test_good_exponent_tuples_still_pack():
    fld = FF(5)
    ring = monomials.ring(fld, 2)
    assert ring.exponents(ring.monomial((3, 1))) == (3, 1)
    jet = Jet(fld, 2, 5, {(1, 2): 3})
    assert jet.coefficient((1, 2)) == fld.elem(3)
    assert jet.constant_term() == fld.zero
    x1 = MultiPoly.var(fld, 2, 0)
    assert MultiPoly(fld, 2, {(0, 1): 1}) * x1 == MultiPoly.monomial(fld, 2, (1, 1))
