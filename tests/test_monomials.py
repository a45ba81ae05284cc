"""Laws of the packed monomial keys, against exponent tuples.

Property tests (skipped without hypothesis): keys add like exponent
vectors, the top field is the degree, lcm and divisibility agree with the
tuple forms, integer order is grevlex order, and jet composition is
associative.
"""

import pytest

from charpgeom.algebra import groebner, monomials
from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.jets import Jet, jet_compose
from charpgeom.algebra.multipoly import MultiPoly

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
