"""MultiPoly against the frozen MultiPoly on {exponent tuple: element} dicts.

On seeded polynomials in 1-3 variables over F_3, F_5, F_7, F_9, F_27,
F_3(t) and F_70001 (a prime beyond the residue table), so on each of the
three coefficient kernels of `monomials.ring`, every MultiPoly operation
must agree with the reference (`tests_support_multipoly_reference`) once
both are read back as {exponent tuple: element} dicts, and both must print
the same text.  Also: products and powers past `monomials.MAX_DEGREE`
raise ValueError rather than wrap.
"""

import random

import pytest

from charpgeom.algebra import monomials
from charpgeom.algebra.finitefield import FF, pth_root
from charpgeom.algebra.multipoly import MultiPoly, parse_poly
from charpgeom.algebra.unipoly import RatFunc, RatFuncField, UPoly

import tests_support_multipoly_reference as reference

DOMAINS = {
    "F_3": lambda: FF(3), "F_5": lambda: FF(5), "F_7": lambda: FF(7),
    "F_9": lambda: FF(3, 2), "F_27": lambda: FF(3, 3),
    "F_3(t)": lambda: RatFuncField(FF(3)), "F_70001": lambda: FF(70001),
}


def _element(domain, rng):
    if isinstance(domain, RatFuncField):
        base = domain.base
        num = UPoly(base, [base.from_index(rng.randrange(3))
                           for _ in range(rng.randrange(1, 3))])
        den = UPoly(base, [base.from_index(rng.randrange(1, 3)),
                           base.from_index(rng.randrange(2))])
        return domain.elem(RatFunc(num, den))
    # the top elements too: p - 1 over F_70001, the last code over F_27
    k = rng.choice((rng.randrange(domain.order), domain.order - 1))
    return domain.from_index(k)


def _terms(domain, n, rng, max_deg=4, size=6):
    """Seeded terms, zero coefficients included (both constructors drop
    them)."""
    return {tuple(rng.randrange(max_deg + 1) for _ in range(n)):
            _element(domain, rng) for _ in range(rng.randrange(size + 1))}


def _pair(domain, n, rng, **kw):
    terms = _terms(domain, n, rng, **kw)
    return MultiPoly(domain, n, terms), reference.MultiPoly(domain, n, terms)


def _same(new, ref):
    assert isinstance(new, MultiPoly)
    assert (new.n, new.domain) == (ref.n, ref.domain)
    assert new.terms == ref.terms
    assert new.format() == ref.format()


def _root(domain):
    """The reference's coefficient p-th root: None when there is none."""
    if not isinstance(domain, RatFuncField):
        return pth_root

    def root(c):
        if not (c.num.is_pth_power() and c.den.is_pth_power()):
            return None
        return RatFunc(c.num.pth_root_poly(), c.den.pth_root_poly())
    return root


@pytest.fixture(params=sorted(DOMAINS))
def domain(request):
    return DOMAINS[request.param]()


def test_arithmetic_agrees(domain):
    rng = random.Random(f"arith:{domain!r}")
    for _ in range(12):
        n = rng.randrange(1, 4)
        (a, ra), (b, rb) = _pair(domain, n, rng), _pair(domain, n, rng)
        c = _element(domain, rng)
        _same(a + b, ra + rb)
        _same(a - b, ra - rb)
        _same(a - a, ra - ra)
        _same(a * b, ra * rb)
        _same(-a, -ra)
        _same(a * c, ra * c)
        _same(a * 3, ra * 3)
        _same(3 * a, 3 * ra)
        _same(a * 0, ra * 0)
        _same(a + 1, ra + 1)
        _same(1 + a, 1 + ra)
        _same(2 - a, 2 - ra)
        _same(a - c, ra - c)
        for k in range(4):
            _same(a ** k, ra ** k)


def test_calculus_and_substitution_agree(domain):
    rng = random.Random(f"calculus:{domain!r}")
    for _ in range(10):
        n = rng.randrange(1, 4)
        # exponents up to 2p (p <= 7), so some derivatives drop terms
        a, ra = _pair(domain, n, rng, max_deg=min(2 * domain.p, 14), size=8)
        for i in range(n):
            _same(a.derivative(i), ra.derivative(i))
        for g, rg in zip(a.gradient(), ra.gradient()):
            _same(g, rg)
        m = rng.randrange(1, 4)
        b, rb = _pair(domain, n, rng, max_deg=3)
        subs = [_pair(domain, m, rng, max_deg=2, size=3) for _ in range(n)]
        _same(b.subs([s for s, _ in subs]), rb.subs([r for _, r in subs]))
        point = tuple(_element(domain, rng) for _ in range(n))
        assert a.evaluate(point) == ra.evaluate(point)


def test_queries_agree(domain):
    rng = random.Random(f"queries:{domain!r}")
    for _ in range(15):
        n = rng.randrange(1, 4)
        a, ra = _pair(domain, n, rng)
        assert a.is_zero() == ra.is_zero()
        assert bool(a) == bool(ra)
        assert a.is_constant() == ra.is_constant()
        assert a.constant_term() == ra.constant_term()
        assert a.total_degree() == ra.total_degree()
        assert a.is_homogeneous() == ra.is_homogeneous()
        for i in range(n):
            assert a.degree_in(i) == ra.degree_in(i)
        for exps in [*ra.terms, (0,) * n, (5,) * n]:
            assert a.coefficient(exps) == ra.coefficient(exps)
        assert repr(a) == repr(ra)
        names = [f"y{i}" for i in range(n)]
        assert a.format(names) == ra.format(names)
        forms = [MultiPoly(domain, n, {e: c}) for e, c in ra.terms.items()]
        assert a.is_homogeneous() == (len({f.total_degree() for f in forms}) <= 1)


def test_equality_and_hash(domain):
    rng = random.Random(f"eq:{domain!r}")
    for _ in range(10):
        n = rng.randrange(1, 4)
        (a, ra), (b, rb) = _pair(domain, n, rng), _pair(domain, n, rng)
        assert (a == b) == (ra == rb)
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert (a - a == 0) and (a - a) == MultiPoly.zero(domain, n)
        assert (a == 0) == (ra == 0)
        assert MultiPoly.const(domain, n, 2) == 2
        assert (a == 2) == (ra == 2)
        assert {a + b: 1}[b + a] == 1
    x = MultiPoly.var(domain, 2, 0)
    assert x != MultiPoly.var(domain, 2, 1) and x != MultiPoly.var(domain, 3, 0)


@pytest.mark.parametrize("name", ["F_3", "F_9"])
def test_map_coefficients_into_an_extension(name):
    small = DOMAINS[name]()
    big, embed = small.extension(2)
    rng = random.Random(f"map:{name}")
    for _ in range(10):
        n = rng.randrange(1, 4)
        a, ra = _pair(small, n, rng)
        _same(a.map_coefficients(big, embed), ra.map_coefficients(big, embed))
        # and back from the packed layout: keys depend only on n
        _same(a.map_coefficients(big, embed) * 2,
              ra.map_coefficients(big, embed) * 2)
    zero = MultiPoly.var(small, 2, 0).map_coefficients(big, lambda c: big.zero)
    assert zero.is_zero()


def test_pth_powers_agree(domain):
    rng = random.Random(f"pth:{domain!r}")
    p = domain.p
    for _ in range(8):
        n = rng.randrange(1, 3)
        g, rg = _pair(domain, n, rng, max_deg=2, size=3)
        # over F_70001 no p-th power but a constant has packed keys
        cases = [(g, rg), (g ** p, rg ** p)] if p < 100 else [
            (g, rg), (MultiPoly.const(domain, n, 5), rg * 0 + 5)]
        for f, rf in cases:
            root, rroot = f.is_pth_power(), rf.is_pth_power(_root(domain))
            if rroot is None:
                assert root is None
            else:
                _same(root, rroot)
    if isinstance(domain, RatFuncField):
        # exponents divisible by p, but the coefficient t has no p-th root
        t = domain.elem(UPoly.x(domain.base))
        f = MultiPoly(domain, 1, {(p,): t})
        assert f.is_pth_power() is None
        assert reference.MultiPoly(domain, 1, {(p,): t}).is_pth_power(
            _root(domain)) is None


def _text(domain, n, rng):
    bits = []
    for _ in range(rng.randrange(1, 6)):
        factors = []
        if rng.random() < 0.7:
            if getattr(domain, "m", 1) > 1 and rng.random() < 0.5:
                factors.append(f"g^{rng.randrange(domain.order - 1)}")
            else:
                factors.append(str(rng.randrange(2 * domain.p)))
        for i in range(n):
            k = rng.randrange(4)
            if k:
                factors.append(f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}")
        bits.append(rng.choice("+-") + ("*".join(factors) or "1"))
    return "".join(bits).lstrip("+")


def test_parse_poly_agrees(domain):
    rng = random.Random(f"parse:{domain!r}")
    for _ in range(15):
        n = rng.randrange(1, 4)
        names = [f"x{i + 1}" for i in range(n)]
        text = _text(domain, n, rng)
        _same(parse_poly(text, domain, names),
              reference.parse_poly(text, domain, names))
        a, ra = _pair(domain, n, rng)
        if not isinstance(domain, RatFuncField) and domain.order < 1000:
            _same(parse_poly(a.format(), domain, names), ra)


@pytest.mark.parametrize("name", ["F_5", "F_9", "F_3(t)"])
def test_products_and_powers_past_the_degree_bound_raise(name):
    domain = DOMAINS[name]()
    bound = monomials.MAX_DEGREE
    x, y = MultiPoly.variables(domain, 2)
    too_big = "exceeds the packed-key bound MAX_DEGREE"
    assert (x ** bound).total_degree() == bound
    assert (x ** (bound - 1) * y).total_degree() == bound
    for make in (lambda: x ** (bound + 1),
                 lambda: (x + y) ** (bound + 1),
                 lambda: x ** bound * y,
                 lambda: (x ** 20000 + 1) * (y ** 20000 + x),
                 lambda: MultiPoly(domain, 2, {(bound, 1): domain.one}),
                 lambda: MultiPoly.var(domain, 2, 0, bound + 1)):
        with pytest.raises(ValueError, match=too_big):
            make()
    # a power reports the degree it was asked for
    with pytest.raises(ValueError, match=f"degree {1 << 16} exceeds"):
        x ** (1 << 16)
    # scalar products and sums never raise at the bound
    assert (x ** bound * 2 + y ** bound).total_degree() == bound
