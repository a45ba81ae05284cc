"""Univariate polynomials, rational functions, char-p square-free structure."""

import random

import pytest

from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.multipoly import MultiPoly
from charpgeom.algebra.unipoly import UPoly, RatFunc, RatFuncField, lcm, ratfunc_pth_root


def rand_poly(fld, deg, rng, monic=False):
    coeffs = [fld.from_index(rng.randrange(fld.order)) for _ in range(deg + 1)]
    if monic:
        coeffs[-1] = fld.one
    return UPoly(fld, coeffs)


def test_arithmetic_against_evaluation():
    fld = FF(7)
    rng = random.Random(2)
    for _ in range(40):
        a = rand_poly(fld, rng.randrange(0, 6), rng)
        b = rand_poly(fld, rng.randrange(0, 6), rng)
        for x in fld.elements():
            assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
            assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


def test_divmod_identity():
    fld = FF(5)
    rng = random.Random(3)
    for _ in range(60):
        a = rand_poly(fld, rng.randrange(0, 8), rng)
        b = rand_poly(fld, rng.randrange(0, 5), rng)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree() < b.degree() or r.is_zero()


def test_gcd_divides_both():
    fld = FF(5)
    rng = random.Random(4)
    for _ in range(40):
        g = rand_poly(fld, rng.randrange(0, 3), rng, monic=True)
        a = g * rand_poly(fld, rng.randrange(0, 4), rng)
        b = g * rand_poly(fld, rng.randrange(0, 4), rng)
        if a.is_zero() or b.is_zero():
            continue
        d = a.gcd(b)
        assert (a % d).is_zero() and (b % d).is_zero()
        assert (d % g).is_zero()   # the planted factor divides the gcd


def test_derivative_char_p():
    fld = FF(3)
    t = UPoly.x(fld)
    assert (t ** 3).derivative().is_zero()
    assert (t ** 3 + t).derivative() == UPoly.const(fld, 1)


def test_pth_root_poly():
    fld = FF(3)
    t = UPoly.x(fld)
    f = (t ** 2 + t + 2) ** 3
    assert f.is_pth_power()
    assert f.pth_root_poly() == t ** 2 + t + 2
    assert not (t ** 2 + 1).is_pth_power()


def test_squarefree_decomposition_against_planted_factorization():
    # oracle: build f from known pairwise-coprime squarefree parts
    fld = FF(3)
    t = UPoly.x(fld)
    cases = [
        {1: t + 1, 2: t + 2, 3: t},                 # multiplicities 1,2,3
        {3: t + 1},                                  # multiplicity p
        {6: t + 2},                                  # multiplicity 2p
        {1: t ** 2 + 1, 4: t + 1},
        {2: t + 1, 9: t + 2},                        # p^2 multiplicity
    ]
    for parts in cases:
        f = UPoly.const(fld, 2)
        for mult, g in parts.items():
            f = f * g ** mult
        lc, rec = f.squarefree_decomposition()
        assert lc == fld.elem(2)
        rebuilt = UPoly.const(fld, 1)
        for mult, g in rec.items():
            rebuilt = rebuilt * g ** mult
        assert rebuilt.scale(lc) == f
        assert rec == parts, (rec, parts)


def test_squarefree_decomposition_random_reconstruction():
    fld = FF(5)
    rng = random.Random(9)
    for _ in range(30):
        f = rand_poly(fld, rng.randrange(1, 7), rng)
        if f.is_zero() or f.degree() < 1:
            continue
        lc, rec = f.squarefree_decomposition()
        rebuilt = UPoly.const(fld, lc)
        for mult, g in rec.items():
            assert g.leading() == fld.one
            assert g.gcd(g.derivative()).degree() <= 0 or g.derivative().is_zero()
            rebuilt = rebuilt * g ** mult
        assert rebuilt == f


def test_ratfunc_reduction_invariants():
    fld = FF(5)
    t = UPoly.x(fld)
    r = RatFunc((t + 1) * (t + 2), (t + 2) * (t + 3) * 2)
    assert r.den.leading() == fld.one            # monic denominator
    assert r.num.gcd(r.den).degree() <= 0        # reduced
    assert r == RatFunc((t + 1) * 3, (t + 3) * 6)


def test_ratfunc_powers_are_the_rebuilt_fractions():
    # powers skip the gcd of __init__; they must be what it would build
    fld = FF(3)
    s = UPoly.x(fld)
    u = [RatFunc(s ** 5 + s ** 2 + 1, s ** 6 + s + 2),
         RatFunc(s + 1, s ** 4 + 2), RatFunc(s * 2 + 1, s),
         RatFunc(UPoly.const(fld, 2)), RatFunc(UPoly(fld))]
    for r in u:
        for e in range(-4, 5):
            if e < 0 and r.is_zero():
                with pytest.raises(ZeroDivisionError):
                    r ** e
                continue
            got = r ** e
            want = (RatFunc(r.num ** e, r.den ** e) if e >= 0
                    else RatFunc(r.den ** -e, r.num ** -e))
            assert (got.num, got.den) == (want.num, want.den)
            assert got.den.leading() == fld.one
    # (2s + 1)/s inverted: s/(2s + 1) with its denominator made monic
    inv = u[2] ** -1
    assert (inv.num, inv.den) == (s * 2, s + 2)


def test_ratfunc_field_ops():
    fld = FF(7)
    t = UPoly.x(fld)
    a = RatFunc(t, t + 1)
    b = RatFunc(UPoly.const(fld, 2), t)
    assert a * (1 / a) == RatFunc(UPoly.const(fld, 1))
    assert (a + b) - b == a
    assert (a * b) / b == a


def test_ratfunc_pth_root_defining_relation():
    # a = t, p = 3: root is s (since s^3 = t)
    fld = FF(3)
    t = UPoly.x(fld)
    r = ratfunc_pth_root(RatFunc(t))
    assert r == RatFunc(UPoly.x(fld))


def test_ratfunc_pth_root_quadratic_example():
    # a = t^2 + c over F_3: (s^2 + c)^3 = s^6 + c^3 = t^2 + c with t = s^3
    fld = FF(3)
    t = UPoly.x(fld)
    for c in range(3):
        a = RatFunc(t * t + c)
        r = ratfunc_pth_root(a)
        assert r == RatFunc(t * t + c)   # c^(1/3) = c on the prime field
        assert r ** 3 == a.inflate(3)


def test_ratfunc_pth_root_one():
    fld = FF(5)
    one = RatFunc(UPoly.const(fld, 1))
    assert ratfunc_pth_root(one) == one


def test_ratfunc_pth_root_random_identity():
    for p in (3, 5):
        fld = FF(p, 2 if p == 3 else 1)
        rng = random.Random(p)
        for _ in range(25):
            num = rand_poly(fld, rng.randrange(0, 4), rng)
            den = rand_poly(fld, rng.randrange(0, 3), rng, monic=True)
            if num.is_zero():
                continue
            a = RatFunc(num, den)
            r = ratfunc_pth_root(a)
            assert r ** p == a.inflate(p)


def test_ratfunc_field_domain_wrapper():
    fld = FF(5)
    dom = RatFuncField(fld)
    assert dom.zero.is_zero()
    assert dom.one == RatFunc(UPoly.const(fld, 1))
    assert dom.elem(3) == RatFunc(UPoly.const(fld, 3))
    assert dom.p == 5


def test_mixed_field_polynomials_raise():
    f3, f5 = FF(3), FF(5)
    with pytest.raises(ValueError):
        UPoly(f3, [f3.one, f5.one])
    with pytest.raises(ValueError):
        UPoly(f3, [1, 2])
    a = UPoly(f3, [f3.zero, f3.one])
    b = UPoly(f5, [f5.one, f5.one])
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
               lambda x, y: x.divmod(y), lambda x, y: x.gcd(y)):
        with pytest.raises(ValueError):
            op(a, b)
    c = UPoly(FF(3, 2), [FF(3, 2).one, FF(3, 2).one])
    with pytest.raises(ValueError):
        a * c


def test_mixed_field_gcd_raises_at_once():
    # used to loop forever: divmod left a remainder of full degree
    with pytest.raises(ValueError):
        UPoly(FF(3), [FF(3).zero, FF(3).one]).gcd(
            UPoly(FF(3), [FF(5).one, FF(5).one]))


def test_gcd_with_a_nonzero_constant_is_one():
    for fld in (FF(5), FF(3, 2)):
        one, c = UPoly.const(fld, 1), UPoly.const(fld, 2)
        f = UPoly.x(fld) ** 3 + UPoly.x(fld)
        for a, b in ((f, c), (c, f), (UPoly(fld), c), (c, UPoly(fld)), (c, c)):
            assert a.gcd(b) == one
        assert f.gcd(UPoly(fld)) == f.monic()
        assert UPoly(fld).gcd(UPoly(fld)).is_zero()


def test_ratfunc_defers_to_multipoly_operands():
    # a MultiPoly right operand used to go on to UPoly.const and raise
    # TypeError; RatFunc now returns NotImplemented and MultiPoly's
    # reflected method runs
    fld = FF(3)
    tdom = RatFuncField(fld)
    t = RatFunc(UPoly.x(fld))
    x, y = MultiPoly.variables(tdom, 2)
    y = y * y + x * t + 1
    assert t * y == y * t
    assert t + y == y + t
    assert t - y == -(y - t)
    assert RatFunc.__add__(t, y) is NotImplemented
    assert RatFunc.__truediv__(t, y) is NotImplemented
    assert (t == object()) is False
    # ints, field elements and UPolys still coerce
    assert t + 1 == RatFunc(UPoly.from_ints(fld, [1, 1]))
    assert 1 - t == RatFunc(UPoly.from_ints(fld, [1, 2]))
    assert fld.elem(2) * t == RatFunc(UPoly.from_ints(fld, [0, 2]))
    assert t / UPoly.x(fld) == RatFunc.const(fld, 1)
    assert 1 / t == RatFunc(UPoly.const(fld, 1), UPoly.x(fld))


def _scaled_sum(fld, pairs):
    acc = UPoly(fld)
    for w, f in pairs:
        acc = acc + f.scale(w)
    return acc


@pytest.mark.parametrize("p", [3, 257, 65521])
def test_lincomb_is_the_sum_of_scales_at_the_edges(p):
    """All-(p-1) weights and coefficients, one to many pairs, widths 1 to
    64 and ragged ones; weights may exceed p, as the fold's products of
    residues do."""
    fld = FF(p)
    top = lambda n: UPoly.from_ints(fld, [p - 1] * n)
    for count in (1, 2, 37):
        for width in (1, 2, 9, 64):
            pairs = [(p - 1, top(width)) for _ in range(count)]
            got = UPoly.lincomb(fld, pairs)
            assert got == _scaled_sum(fld, pairs)
            assert got.coeffs == (fld.elem(count),) * width if count % p else got.is_zero()
        ragged = [((p - 1) ** 3, top(1 + (i * 7) % 64)) for i in range(count)]
        assert UPoly.lincomb(fld, ragged) == _scaled_sum(fld, ragged)
    f = top(5) + UPoly.x(fld) ** 7
    cancelled = UPoly.lincomb(fld, [(3, f), (p - 3, f), (1, UPoly.x(fld))])
    assert cancelled == UPoly.x(fld) and cancelled._c[-1] != 0   # trimmed
    assert UPoly.lincomb(fld, []).is_zero()


@pytest.mark.parametrize("fld", [FF(3, 2), FF(5, 2), FF(65537)])
def test_lincomb_element_path(fld):
    """Weights are codes of the polynomials' kernel: Zech logs over F_9
    and F_25, elements over F_65537."""
    assert fld.prime_elements is None
    code = lambda w: UPoly(fld).ring.coeff(fld.elem(w))
    rng = random.Random(f"lincomb:{fld.order}")
    for _ in range(20):
        pairs = [(rng.choice([fld.from_index(rng.randrange(fld.order)),
                              rng.randrange(1, 1000)]),
                  rand_poly(fld, rng.randrange(0, 9), rng))
                 for _ in range(rng.randrange(1, 7))]
        got = UPoly.lincomb(fld, [(code(w), f) for w, f in pairs])
        assert got == _scaled_sum(fld, pairs)
        assert not got._c or got._c[-1]
    f = rand_poly(fld, 4, rng, monic=True)
    assert UPoly.lincomb(fld, [(code(1), f), (code(-1), f)]).is_zero()


def test_extension_results_are_trimmed_and_foreign_coefficients_still_raise():
    """Over F_9 sums, products, scales and divisions skip the constructor's
    field check, so they must trim what it trimmed."""
    fld = FF(3, 2)
    rng = random.Random("ext results")
    for _ in range(30):
        a = rand_poly(fld, rng.randrange(0, 6), rng)
        b = rand_poly(fld, rng.randrange(0, 6), rng)
        c = fld.from_index(rng.randrange(fld.order))
        results = [a + b, a - b, a - a, a * b, a.scale(c), a.scale(0)]
        if not b.is_zero():
            results += list(a.divmod(b))
        for r in results:
            assert r == UPoly(fld, r.coeffs) and (not r._c or r._c[-1])
        assert (a - a).is_zero() and a.scale(0).is_zero()
    with pytest.raises(ValueError):
        UPoly(fld, [fld.one, FF(3).one])
    with pytest.raises(ValueError):
        UPoly(fld, [FF(3, 3).one])


@pytest.mark.parametrize("fld", [FF(3), FF(3, 2)], ids=["F3", "F9"])
def test_lcm_of_denominators(fld):
    t, one = UPoly.x(fld), UPoly.const(fld, 1)
    a, b, c = t + 1, t + fld.from_index(fld.order - 1), t * t + 1
    assert lcm(fld, []) == one
    assert lcm(fld, [one, one]) == one
    # coprime: the product
    assert lcm(fld, [a, b]) == a * b
    assert lcm(fld, [a, b, t]) == a * b * t
    # repeated and nested factors count once, at their highest power
    assert lcm(fld, [a, a, a * a, b]) == a * a * b
    assert lcm(fld, [a * c, c * b, a]) == a * b * c
    for dens, want in [([a * a * c, t * a, b], a * a * b * c * t),
                       ([c, c * c, a * t], a * c * c * t)]:
        got = lcm(fld, dens)
        assert got == want and got.leading() == fld.one
        assert all(got % d == UPoly(fld) for d in dens)


def test_iterating_a_upoly_raises():
    # __getitem__ reads zero past the degree: iteration through it would
    # never end, so iter() and list() refuse a UPoly
    u = UPoly.x(FF(3))
    with pytest.raises(TypeError):
        iter(u)
    with pytest.raises(TypeError):
        list(u)
    assert list(u.coeffs) == [FF(3).zero, FF(3).one]
