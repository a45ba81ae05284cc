"""The shared exponentiation routine, and the inputs it and the polynomial
constructors reject.

`power` is square-and-multiply from the low bit: it multiplies exactly
floor(log2 e) squares plus popcount(e) - 1 partial products, never by
`one`.  `cached_power` steps across narrow gaps and squares across wide
ones.  `substitute` runs nested Horner: one product per exponent gap
present in each group, each power of a value made once, coefficients added
innermost; it obeys the substitution laws over F_5, F_9 and F_3(t).  A negative exponent raises ValueError in the rings without
inverses (it used to loop forever, since -1 >> 1 == -1), and inverts in
the fields and fraction types.  Exponent tuples of the wrong length or
with a negative entry raise ValueError instead of packing or multiplying
into a wrong monomial.
"""

import math
import random

import pytest

from charpgeom.algebra import monomials, powers
from charpgeom.algebra.finitefield import FF, FFElement
from charpgeom.algebra.jets import Jet
from charpgeom.algebra.multipoly import MultiPoly, RatExpr
from charpgeom.algebra.powers import cached_power, power, substitute
from charpgeom.algebra.unipoly import RatFunc, RatFuncField, UPoly


class Counted:
    """An int under multiplication and addition, counting the products
    taken."""

    products = 0

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.v * other.v)

    def __add__(self, other):
        return Counted(self.v + other.v)


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
    # a narrow gap steps one power at a time, caching each
    Counted.products = 0
    cache = {0: Counted(1)}
    assert cached_power(cache, Counted(2), 3).v == 8
    assert Counted.products == 2 and sorted(cache) == [0, 1, 2, 3]
    # a wide one makes the missing squares below it (4, 8) and spans the
    # rest from the highest cached power by cached squares: 8 * 4 * 1
    assert cached_power(cache, cache[1], 13).v == 2 ** 13
    assert Counted.products == 2 + 4 and sorted(cache) == [0, 1, 2, 3, 4, 8, 12, 13]
    assert cached_power(cache, cache[1], 5).v == 32
    assert cached_power(cache, cache[1], 12).v == 2 ** 12
    assert Counted.products == 7
    # where squaring costs what stepping does (gap 3: square 2, then 2 * 1),
    # it steps and caches every power
    cache = {1: Counted(3)}
    assert cached_power(cache, cache[1], 4).v == 81
    assert Counted.products == 10 and sorted(cache) == [1, 2, 3, 4]


@pytest.mark.parametrize("k", [0, -1, -5])
def test_cached_power_below_every_cached_exponent_raises(k):
    # it used to step down from k forever, looking for a cached power
    cache = {1: 3}
    with pytest.raises(ValueError):
        cached_power(cache, 3, k)
    assert cache == {1: 3}
    assert cached_power({0: 1, 1: 3}, 3, 0) == 1      # a cached k is served


def test_sparse_evaluation_squares_across_wide_gaps(monkeypatch):
    """x^81 + x y^27 + 1 over F_9: x^80 and y^27 by squares, not by one
    product per degree (108 products when it stepped)."""
    fld = FF(3, 2)
    x, y = MultiPoly.variables(fld, 2)
    f = x ** 81 + x * y ** 27 + 1
    points = [(fld.generator(), fld.elem(2)), (fld.generator() ** 3, fld.generator())]
    wants = [power(a, 81, fld.one) + a * power(b, 27, fld.one) + fld.one for a, b in points]
    real = FFElement.__mul__
    products = []

    def counted(a, b):
        products.append(None)
        return real(a, b)
    monkeypatch.setattr(FFElement, "__mul__", counted)
    for point, want in zip(points, wants):
        products.clear()
        assert f.evaluate(list(point)) == want
        # x^64 * x^16 after six squares, y^16 * y^8 * y^2 * y after four, and
        # one product per Horner gap
        assert len(products) == 7 + 7 + 3


class Expr:
    """A formal expression: products and sums keep their order and their
    grouping, and products are counted."""

    products = 0

    def __init__(self, s):
        self.s = s

    def __mul__(self, other):
        Expr.products += 1
        return Expr(f"{self.s}*{other.s}")

    def __add__(self, other):
        return Expr(f"({self.s}+{other.s})")


def test_substitute_is_nested_horner():
    x, y, c = Expr("x"), Expr("y"), Expr("c")
    Expr.products = 0
    got = substitute({(3, 0): c, (2, 1): c, (1, 2): c, (0, 0): Expr("d")},
                     [x, y], Expr("0"))
    assert got.s == "(x*(x*(x*c+y*c)+y*y*c)+d)"
    # gaps 1, 1, 1 in x, and gaps 1 and 2 in y in two groups; y^2 made once
    assert Expr.products == 3 + 2 + 1
    Expr.products = 0
    got = substitute({(5, 2): Expr("a"), (2, 2): Expr("b")}, [x, y], Expr("0"))
    assert got.s == "x*x*(x*x*x*y*y*a+y*y*b)"
    # gaps 2 in y in two groups, 3 and 2 in x; y^2, x^2 and x^3 made once
    assert Expr.products == 2 + 2 + 1 + 2
    assert substitute({}, [x, y], Expr("0")).s == "0"
    assert substitute({(0, 0): c}, [x, y], Expr("0")).s == "(0+c)"
    assert substitute({(2, 1): 5, (0, 0): 7}, [2, 3], 0) == 67


def _horner_products(terms, n):
    """Products nested Horner takes on `terms` apart from making powers: in
    each group of terms equal before variable i, one per gap between the
    exponents of variable i present, down to 0.  Also the widest gap of each
    variable: stepping to it makes every power up to it."""
    widest = [1] * n

    def walk(exps, i):
        if i == n:
            return 0
        groups = {}
        for e in exps:
            groups.setdefault(e[i], []).append(e)
        ks = sorted(groups, reverse=True) + [0]
        gaps = [a - b for a, b in zip(ks, ks[1:]) if a > b]
        widest[i] = max([widest[i]] + gaps)
        return len(gaps) + sum(walk(g, i + 1) for g in groups.values())
    return walk(list(terms), 0), widest


@pytest.mark.parametrize("n", [1, 2, 3])
def test_substitute_takes_one_product_per_gap_and_each_power_once(n, monkeypatch):
    caches = []
    real = powers.cached_power

    def cached_power(cache, base, k):
        if cache not in caches:
            caches.append(cache)
        return real(cache, base, k)
    monkeypatch.setattr(powers, "cached_power", cached_power)
    rng = random.Random(f"horner:{n}")
    for _ in range(40):
        terms = {tuple(rng.choice((0, 1, 2, 4, 7)) for _ in range(n)):
                 Counted(rng.randrange(1, 5)) for _ in range(rng.randrange(1, 9))}
        if not any(map(any, terms)):
            continue
        values = [rng.randrange(2, 5) for _ in range(n)]
        Counted.products = 0
        caches.clear()
        got = substitute(terms, [Counted(v) for v in values], None)
        gaps, widest = _horner_products(terms, n)
        # each cached power but the value itself cost one product, and
        # never more than stepping to the widest gap would
        made = sum(len(cache) - 1 for cache in caches)
        assert Counted.products == gaps + made, terms
        assert made <= sum(k - 1 for k in widest), terms
        assert got.v == sum(c.v * math.prod(v ** k for v, k in zip(values, e))
                            for e, c in terms.items())


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
