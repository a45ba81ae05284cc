"""Laws of the packed monomial keys and of the coefficient kernels.

Property tests (skipped without hypothesis): keys add like exponent
vectors, the top field is the degree, lcm and divisibility agree with the
tuple forms, integer order is grevlex order, and jet composition is
associative.

Kernel tests (seeded, always run): `ring()` picks residues over F_p,
Zech-log codes over F_{p^m} and domain elements otherwise, once per equal
(domain, n); each specialised kernel defines every coefficient method
itself, except the one shared sum; the residue and code kernels, their
scalar products and sums included, agree with the element kernel over F_3, F_5, F_7, F_9, F_25, F_27, F_49 and F_81; and
the Zech-log tables obey their laws.
"""

import random

import pytest

from charpgeom.algebra import groebner, monomials
from charpgeom.algebra.finitefield import FF, FiniteField
from charpgeom.algebra.jets import Jet, jet_compose
from charpgeom.algebra.multipoly import MultiPoly
from charpgeom.algebra.unipoly import RatFuncField

try:
    from hypothesis import given, settings, strategies as st
except ImportError:                 # the property tests skip, the rest run
    class _Absent:
        def __getattr__(self, name):
            return self

        def __call__(self, *args, **kwargs):
            return self

    st = _Absent()
    given = settings = lambda *a, **k: pytest.mark.skip(
        reason="hypothesis is not installed")

NVARS = 3
_exps = st.lists(st.integers(0, 40), min_size=NVARS, max_size=NVARS).map(tuple)
_ring = monomials.ring(FF(5), NVARS)


@settings(max_examples=200, deadline=None)
@given(_exps, _exps)
def test_keys_add_like_exponents(a, b):
    ka, kb = _ring.monomial(a), _ring.monomial(b)
    assert ka + kb == _ring.monomial(tuple(x + y for x, y in zip(a, b)))
    assert ka >> _ring.top == sum(a)
    assert _ring.exponents(ka) == a


@settings(max_examples=200, deadline=None)
@given(_exps, _exps)
def test_lcm_and_divisibility(a, b):
    ka, kb = _ring.monomial(a), _ring.monomial(b)
    lcm = tuple(max(x, y) for x, y in zip(a, b))
    low = _ring.lcm(ka, kb)
    assert _ring.key(low) == _ring.monomial(lcm)
    divides = all(x <= y for x, y in zip(a, b))
    assert (low == kb & _ring.low_mask) == divides
    # the division loop's test: a guarded subtraction of exponent fields
    guard = _ring.guard
    assert (((kb & _ring.low_mask | guard) - (ka & _ring.low_mask)) & guard
            == guard) == divides


@settings(max_examples=200, deadline=None)
@given(_exps, _exps)
def test_key_order_is_grevlex(a, b):
    ka, kb = _ring.monomial(a), _ring.monomial(b)
    assert (ka < kb) == (groebner.grevlex_key(a) < groebner.grevlex_key(b))


def _poly_strategy(n, max_deg, no_const):
    fld = FF(5)
    mono = st.lists(st.integers(0, max_deg), min_size=n, max_size=n).map(tuple)
    if no_const:
        mono = mono.filter(any)
    return st.dictionaries(mono, st.integers(1, 4), max_size=4).map(
        lambda terms: MultiPoly(fld, n, {e: fld.elem(c)
                                         for e, c in terms.items()}))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), _poly_strategy(2, 4, False),
       st.lists(_poly_strategy(2, 3, True), min_size=2, max_size=2),
       st.lists(_poly_strategy(2, 3, True), min_size=2, max_size=2))
def test_compose_is_associative(r, f, gs, hs):
    g_jets = [Jet.from_poly(g, r) for g in gs]
    h_jets = [Jet.from_poly(h, r) for h in hs]
    left = jet_compose(jet_compose(f, g_jets, r), h_jets, r)
    right = jet_compose(f, [jet_compose(g, h_jets, r) for g in gs], r)
    assert left == right


# -- coefficient kernels -------------------------------------------------------

KERNEL_METHODS = ("coeff", "element", "inverse", "times", "plus", "scale",
                  "submul", "mul")
CODE_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)]
KERNEL_FIELDS = [(3, 1), (5, 1), (7, 1)] + CODE_FIELDS


def test_ring_selection():
    assert type(monomials.ring(FF(5), 2)) is monomials.Residues
    assert type(monomials.ring(FF(3, 2), 2)) is monomials.ZechLogs
    assert type(monomials.ring(RatFuncField(FF(3)), 2)) is monomials.Ring
    assert type(monomials.ring(FF(70001), 2)) is monomials.Ring
    # order 66049, just above PRIME_TABLE_MAX: elements, and no table built
    big = FF(257, 2)
    assert type(monomials.ring(big, 2)) is monomials.Ring
    assert big._log_tables is None


@pytest.mark.parametrize("kernel", monomials.Ring.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_kernels_define_every_coefficient_method(kernel):
    # an inherited element method would do int arithmetic on residues or
    # codes, with no error
    assert [m for m in KERNEL_METHODS if m not in vars(kernel)] == []
    # ... and the sum is one submul by -1 in every kernel
    assert "add" not in vars(kernel)


@pytest.mark.parametrize("make", [lambda: FF(5), lambda: FF(3, 2),
                                  lambda: RatFuncField(FF(3)),
                                  lambda: RatFuncField(FF(3), "s")],
                         ids=["F5", "F9", "F3(t)", "F3(s)"])
def test_one_ring_per_domain_and_variable_count(make):
    d1, d2 = make(), make()
    if isinstance(d1, FiniteField):         # FF is memoised itself
        d2 = FiniteField(d1.p, d1.m)
    assert d1 is not d2 and d1 == d2
    assert monomials.ring(d1, 2) is monomials.ring(d2, 2)
    assert monomials.ring(d1, 2) is not monomials.ring(d1, 3)


def test_derived_jets_share_the_ring():
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    shared = monomials.ring(fld, 2)
    jet = Jet.from_poly(x + x * y + y ** 4, 4)
    assert jet.ring is shared
    assert jet.truncate(2).ring is shared
    assert (jet * jet - jet).ring is shared
    assert Jet.from_poly(MultiPoly.var(fld, 2, 1), 3).ring is shared


@pytest.mark.parametrize("domain", [FF(5), FF(3, 2), FF(7, 2),
                                    RatFuncField(FF(3)), FF(70001)],
                         ids=repr)
def test_one_and_minus_one_round_trip(domain):
    r = monomials.ring(domain, 2)
    assert r.element(r.zero) == domain.zero and not r.zero
    assert r.element(r.one) == domain.one
    assert r.element(r.minus_one) == domain.elem(-1)
    assert r.coeff(r.element(r.minus_one)) == r.minus_one


def _random_packed(fld, rng, element_ring, max_terms=12):
    return {element_ring.monomial((rng.randrange(6), rng.randrange(6))):
            fld.from_index(rng.randrange(1, fld.order))
            for _ in range(rng.randrange(1, max_terms))}


def _sum(a, b, zero):
    """a + b term by term, the reference for the shared `Ring.add`."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, zero) + v
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("p, m", KERNEL_FIELDS)
def test_code_kernel_matches_element_ring(p, m):
    fld = FF(p, m)
    codes, elements = monomials.ring(fld, 2), monomials.Ring(fld, 2)
    assert type(codes) is (monomials.Residues if m == 1 else monomials.ZechLogs)

    def encode(poly):
        return {k: codes.coeff(c) for k, c in poly.items()}

    def decode(packed):
        return {k: codes.element(c) for k, c in packed.items()}

    rng = random.Random(f"kernel:{p}^{m}")
    for _ in range(60):
        a = _random_packed(fld, rng, elements)
        b = _random_packed(fld, rng, elements)
        c = fld.from_index(rng.randrange(1, fld.order))
        ca, cb, cc = encode(a), encode(b), codes.coeff(c)
        for degree in (1, 4, 9, 13):
            bound = degree << elements.top
            assert decode(codes.mul(ca, cb, bound)) == elements.mul(a, b, bound)
        assert decode(codes.add(ca, cb)) == elements.add(a, b) \
            == _sum(a, b, fld.zero)
        assert decode(codes.scale(ca, cc)) == elements.scale(a, c)
        assert codes.element(codes.inverse(cc)) == elements.inverse(c)
        shift = elements.monomial((1, 2))
        work, ref = dict(ca), dict(a)
        codes.submul(work, cb, shift, cc)
        elements.submul(ref, b, shift, c)
        assert decode(work) == ref
        # c * b subtracted from c * b cancels every term
        work = codes.scale(cb, cc)
        codes.submul(work, cb, 0, cc)
        assert work == {}
        assert codes.add(ca, codes.scale(ca, codes.minus_one)) == {}


@pytest.mark.parametrize("p, m", KERNEL_FIELDS)
def test_scalar_times_and_plus_match_elements(p, m):
    # every pair, zero included: the scalar ops of the point sweeps
    fld = FF(p, m)
    r = monomials.ring(fld, 2)
    elems = list(fld.elements())
    for a in elems:
        ca = r.coeff(a)
        for b in elems:
            cb = r.coeff(b)
            assert r.element(r.times(ca, cb)) == a * b
            assert r.element(r.plus(ca, cb)) == a + b


@pytest.mark.parametrize("p, m", CODE_FIELDS)
def test_log_table_laws(p, m):
    fld = FF(p, m)
    exp, log, zech = fld.log_tables()
    q, g = fld.order, fld.generator()
    assert len(exp) == len(log) == q and len(zech) == q - 1
    assert {a.coeffs for a in exp} == {a.coeffs for a in fld.elements()}
    assert all(log[a.coeffs] == code for code, a in enumerate(exp))
    assert exp[0] == fld.zero and exp[1] == fld.one and exp[2] == g
    zeros = [d for d, z in enumerate(zech) if z == 0]
    assert zeros == [(q - 1) // 2]
    x = fld.one
    for d in range(q - 1):
        assert exp[zech[d]] == fld.one + x
        x = x * g
    assert fld.log_tables() is fld.log_tables()
