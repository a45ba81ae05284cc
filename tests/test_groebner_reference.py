"""The packed Buchberger engine against the frozen eager-representation one.

On seeded ideals in 2-4 variables over F_3, F_5, F_7, F_{3^2}, F_{5^2},
F_{3^3} and F_{7^2}, every field of the membership result must agree with
the reference (`tests_support_groebner_reference`): status, pairs
processed, basis and cofactors.  The trace replay must give every basis
element the reference's representation, and `reduce_poly` the reference's
quotients and remainder.
"""

import random

import pytest

from charpgeom import covers
from charpgeom.algebra import groebner
from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.multipoly import MultiPoly, monomials_of_degree
from charpgeom.algebra.unipoly import RatFunc, RatFuncField, UPoly

import tests_support_groebner_reference as reference

FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)]


def _random_poly(fld, n, rng, n_terms, max_deg):
    terms = {}
    for _ in range(n_terms):
        exps = [0] * n
        for _ in range(rng.randrange(max_deg + 1)):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = fld.from_index(rng.randrange(1, fld.order))
    return MultiPoly(fld, n, terms)


def _random_ideal(fld, rng):
    n = rng.choice((2, 3, 4))
    return [_random_poly(fld, n, rng, rng.randrange(1, 5), rng.randrange(1, 5))
            for _ in range(rng.randrange(1, 4))]


def _same_result(new, ref):
    assert new.status == ref.status
    assert new.pairs_processed == ref.pairs_processed
    assert new.basis == ref.basis
    if ref.certificate is None:
        assert new.certificate is None
    else:
        assert new.certificate.generators == ref.certificate.generators
        assert new.certificate.cofactors == ref.certificate.cofactors


@pytest.mark.parametrize("p, m", FIELDS)
def test_membership_matches_reference(p, m):
    fld = FF(p, m)
    rng = random.Random(f"membership:{p}^{m}")
    statuses = set()
    for _ in range(40):
        gens = _random_ideal(fld, rng)
        max_pairs = rng.choice((1, 3, 50000))
        new = groebner.groebner_membership_one(gens, max_pairs=max_pairs)
        _same_result(new, reference.groebner_membership_one(gens, max_pairs))
        statuses.add(new.status)
    assert statuses == {"certificate", "not_in_ideal", "exhausted"}


@pytest.mark.parametrize("p, m", FIELDS)
def test_trace_replays_reference_representations(p, m):
    fld = FF(p, m)
    rng = random.Random(f"trace:{p}^{m}")
    for _ in range(15):
        gens = _random_ideal(fld, rng)
        status, basis, pairs, trace = groebner.buchberger(gens, max_pairs=100)
        ref_status, entries, ref_pairs = reference.buchberger(gens, max_pairs=100)
        assert (status, pairs) == (ref_status, ref_pairs)
        assert basis == [poly for poly, _ in entries]
        for k, (_, rep) in enumerate(entries):
            assert trace.representation(k) == rep


@pytest.mark.parametrize("p, m", FIELDS)
def test_reduce_poly_matches_reference(p, m):
    # divisors are not monic, and their leading monomials may divide
    # one another
    fld = FF(p, m)
    rng = random.Random(f"reduce:{p}^{m}")
    for _ in range(20):
        n = rng.choice((2, 3, 4))
        divisors = [_random_poly(fld, n, rng, rng.randrange(1, 4), 3)
                    for _ in range(rng.randrange(1, 4))]
        divisors = [d for d in divisors if not d.is_zero()]
        f = _random_poly(fld, n, rng, 8, 6)
        assert groebner.reduce_poly(f, divisors) == \
            reference.reduce_poly(f, divisors)


def test_other_element_domains_match_reference():
    # the element kernel also serves k(t) and primes beyond the residue table
    k_t = RatFuncField(FF(3))
    t = MultiPoly.const(k_t, 2, k_t.elem(RatFunc(UPoly.x(FF(3)))))
    x, y = MultiPoly.variables(k_t, 2)
    u, v = MultiPoly.variables(FF(70001), 2)
    ideals = [[x * y - t, x * x - 1, y * y - t * t - 1],
              [t * x * x + y, x * y + t, y * y - 1],
              [x * x - t, x * y - 1, t * y * y - 1],
              [u * u - 3, u * v - 1, v - 5]]
    for gens in ideals:
        _same_result(groebner.groebner_membership_one(gens),
                     reference.groebner_membership_one(gens))


def test_closure_shaped_ideals_match_reference():
    # (f_x, f_y, det Hess f) of dense degree-5 plane sections over F_7, the
    # ideals the closure verdicts decide: about one in seven completes a
    # basis without a unit, the others end early in a certificate
    fld = FF(7)
    rng = random.Random("closure")
    monomials = [e for d in range(6) for e in monomials_of_degree(2, d)]
    seen = {"certificate": 0, "not_in_ideal": 0}
    for _ in range(60):
        f = MultiPoly(fld, 2, {e: fld.elem(rng.randrange(1, 7))
                               for e in monomials})
        gens = f.gradient() + [covers.symbolic_hessian_det(f)]
        new = groebner.groebner_membership_one(gens, max_pairs=4000)
        _same_result(new, reference.groebner_membership_one(gens, 4000))
        seen[new.status] += 1
        if seen["certificate"] >= 4 and seen["not_in_ideal"] >= 2:
            break
    assert seen["certificate"] >= 4 and seen["not_in_ideal"] >= 2, seen
