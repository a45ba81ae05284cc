"""Jet against the frozen jet on 6-bit packed exponents.

On seeded jets in 1-3 variables over F_3, F_5, F_7, F_{3^2}, F_{5^2},
F_{3^3}, F_{7^2}, F_3(t) and F_70001 (a prime beyond the residue table),
so on each of the three coefficient kernels, every Jet operation
must agree with the reference (`tests_support_jets_reference`) once both
are read back as MultiPolys or domain elements.
"""

import random

import pytest

from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.jets import Jet, jet_compose
from charpgeom.algebra.multipoly import MultiPoly
from charpgeom.algebra.unipoly import RatFunc, RatFuncField, UPoly

import tests_support_jets_reference as reference

DOMAINS = {
    "F_3": lambda: FF(3), "F_5": lambda: FF(5), "F_7": lambda: FF(7),
    "F_3^2": lambda: FF(3, 2), "F_5^2": lambda: FF(5, 2),
    "F_3^3": lambda: FF(3, 3), "F_7^2": lambda: FF(7, 2),
    "F_3(t)": lambda: RatFuncField(FF(3)), "F_70001": lambda: FF(70001),
}


def _random_element(domain, rng):
    if isinstance(domain, RatFuncField):
        base = domain.base
        num = UPoly(base, [base.from_index(rng.randrange(3))
                           for _ in range(rng.randrange(1, 3))])
        den = UPoly(base, [base.from_index(rng.randrange(1, 3)),
                           base.from_index(rng.randrange(2))])
        return domain.elem(RatFunc(num, den))
    return domain.from_index(rng.randrange(min(domain.order, 50)))


def _random_poly(domain, n, rng, max_deg, no_const=False):
    terms = {}
    for _ in range(rng.randrange(1, 7)):
        e = tuple(rng.randrange(max_deg + 1) for _ in range(n))
        if no_const and sum(e) == 0:
            continue
        terms[e] = _random_element(domain, rng)
    return MultiPoly(domain, n, terms)


def _pair(poly, r):
    return Jet.from_poly(poly, r), reference.Jet.from_poly(poly, r)


def _min_degree(jet):
    """Least total degree of a term, None for the zero jet."""
    return min((sum(e) for e in jet.to_poly().terms), default=None)


def _same(new, ref):
    assert new.order == ref.order
    assert new.to_poly() == ref.to_poly()
    assert _min_degree(new) == ref.min_degree()
    assert new.constant_term() == ref.constant_term()


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_arithmetic_matches_reference(name):
    domain = DOMAINS[name]()
    rng = random.Random(f"arith:{name}")
    for _ in range(25):
        n, r = rng.randrange(1, 4), rng.randrange(2, 7)
        a, ra = _pair(_random_poly(domain, n, rng, r), r)
        b, rb = _pair(_random_poly(domain, n, rng, r), r)
        c = _random_element(domain, rng)
        _same(a, ra)
        _same(a + b, ra + rb)
        _same(a - b, ra - rb)
        _same(-a, -ra)
        _same(a * b, ra * rb)
        _same(a.scale(c), ra.scale(c))
        _same(a * 3, ra * 3)
        _same(a + 2, ra + 2)
        e = rng.randrange(5)
        _same(a ** e, ra ** e)
        for s in (1, r // 2 + 1, r + 2):
            _same(a.truncate(s), ra.truncate(s))
        for d in range(r + 1):
            assert a.homogeneous_part(d) == ra.homogeneous_part(d)
        for exps in list(ra.to_poly().terms) + [(1,) * n, (r,) + (0,) * (n - 1)]:
            assert a.coefficient(exps) == ra.coefficient(exps)
        assert (a == b) == (ra == rb)
        assert a == Jet.from_poly(a.to_poly(), r)


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_composition_matches_reference(name):
    domain = DOMAINS[name]()
    rng = random.Random(f"compose:{name}")
    for _ in range(10):
        n, m, r = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(2, 6)
        f = _random_poly(domain, n, rng, r)
        phis = [_pair(_random_poly(domain, m, rng, r - 1, no_const=True), r)
                for _ in range(n)]
        new = jet_compose(f, [p for p, _ in phis], r)
        ref = reference.jet_compose(f, [q for _, q in phis], r)
        _same(new, ref)
        # a jet as the outer series, at a lower order
        fj, rfj = _pair(f, r)
        _same(jet_compose(fj, [p for p, _ in phis], r - 1),
              reference.jet_compose(rfj, [q for _, q in phis], r - 1))

