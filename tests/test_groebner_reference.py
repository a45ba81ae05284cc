"""The packed Buchberger engine against the frozen product-criterion one.

The packed engine prunes pairs by the chain criterion as well, so its pair
count, its basis and its cofactors differ from the reference's
(`tests_support_groebner_reference`); what the ideal determines may not.  On
seeded ideals in 2-4 variables over F_3, F_5, F_7, F_{3^2}, F_{5^2},
F_{3^3} and F_{7^2}, over F_3(t) and F_70001, and on closure-shaped
ideals: equal statuses, equal reduced Groebner bases (each basis minimalised,
interreduced with the reference's `reduce_poly` and made monic) where 1 is
not in the ideal, and certificates that expand to 1.  A run under a budget
either ends "exhausted" after exactly that many pairs or agrees with the
reference's unbudgeted run.  Every S-polynomial of a completed basis must
reduce to 0 under the reference's `reduce_poly` (Buchberger's criterion),
every trace replay must expand to its basis element, and `reduce_poly` must
give the reference's quotients and remainder.
"""

import itertools
import random

import pytest

from charpgeom.algebra import groebner
from charpgeom.algebra.groebner import grevlex_key, leading_term
from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.linalg import cofactor_det
from charpgeom.algebra.multipoly import MultiPoly, hessian_matrix, monomials_of_degree
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


def _expand(cofactors, generators):
    acc = MultiPoly(generators[0].domain, generators[0].n)
    for c, g in zip(cofactors, generators):
        acc = acc + c * g
    return acc


def _reduced_basis(basis):
    """The reduced Groebner basis of the ideal a Groebner basis generates:
    unique for the ideal and the order."""
    leads = [leading_term(b)[0] for b in basis]
    # minimal: no other lead divides this one (of equal leads, keep the first)
    minimal = [b for k, b in enumerate(basis)
               if not any(reference._divides(lm, leads[k])
                          and (lm != leads[k] or i < k)
                          for i, lm in enumerate(leads) if i != k)]
    reduced = []
    for k, b in enumerate(minimal):
        _, rem = reference.reduce_poly(b, minimal[:k] + minimal[k + 1:])
        reduced.append(rem * leading_term(rem)[1].inverse())
    return sorted(reduced, key=lambda g: grevlex_key(leading_term(g)[0]))


def _same_result(new, ref):
    """What the ideal determines: status, reduced basis, a certificate."""
    assert new.status == ref.status
    if ref.status == "not_in_ideal":
        assert _reduced_basis(new.basis) == _reduced_basis(ref.basis)
    if ref.certificate is None:
        assert new.certificate is None
    else:
        cert = new.certificate
        assert cert.generators == ref.certificate.generators
        assert cert.verify()
        one = MultiPoly.const(cert.generators[0].domain, cert.generators[0].n, 1)
        assert _expand(cert.cofactors, cert.generators) == one


def _spolys_reduce_to_zero(basis):
    """Buchberger's criterion, on monic MultiPolys, by the reference."""
    leads = [leading_term(b)[0] for b in basis]
    domain, n = basis[0].domain, basis[0].n
    for (i, a), (j, b) in itertools.combinations(enumerate(leads), 2):
        lcm = tuple(map(max, a, b))
        s = (MultiPoly.monomial(domain, n, reference._quotient_monomial(lcm, a))
             * basis[i]
             - MultiPoly.monomial(domain, n, reference._quotient_monomial(lcm, b))
             * basis[j])
        if not reference.reduce_poly(s, basis)[1].is_zero():
            return False
    return True


@pytest.mark.parametrize("p, m", FIELDS)
def test_membership_matches_reference(p, m):
    fld = FF(p, m)
    rng = random.Random(f"membership:{p}^{m}")
    statuses = set()
    for _ in range(40):
        gens = _random_ideal(fld, rng)
        max_pairs = rng.choice((1, 3, 50000))
        new = groebner.groebner_membership_one(gens, max_pairs=max_pairs)
        if new.status == "exhausted":
            assert new.pairs_processed == max_pairs
        else:
            _same_result(new, reference.groebner_membership_one(gens))
        statuses.add(new.status)
    assert statuses == {"certificate", "not_in_ideal", "exhausted"}


@pytest.mark.parametrize("p, m", FIELDS)
def test_trace_replays_reference_representations(p, m):
    fld = FF(p, m)
    rng = random.Random(f"trace:{p}^{m}")
    for _ in range(15):
        gens = _random_ideal(fld, rng)
        status, basis, pairs, trace = groebner.buchberger(gens, max_pairs=100)
        for k, poly in enumerate(basis):
            assert _expand(trace.representation(k), gens) == poly
        if status == "exhausted":
            assert pairs == 100
        else:
            ref_status, entries, _ = reference.buchberger(gens)
            assert status == ref_status == "done"
            assert _reduced_basis(basis) == \
                _reduced_basis([poly for poly, _ in entries])


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
        gens = f.gradient() + [cofactor_det(hessian_matrix(f))]
        new = groebner.groebner_membership_one(gens, max_pairs=4000)
        ref = reference.groebner_membership_one(gens, 4000)
        _same_result(new, ref)
        if new.status == "not_in_ideal":
            # the chain criterion must prune some pair of every completion
            assert new.pairs_processed < ref.pairs_processed
        seen[new.status] += 1
        if seen["certificate"] >= 4 and seen["not_in_ideal"] >= 2:
            break
    assert seen["certificate"] >= 4 and seen["not_in_ideal"] >= 2, seen


def _random_coeff(fld, rng):
    if isinstance(fld, RatFuncField):         # a + b t, not both 0
        a, b = rng.choice([(a, b) for a in range(3) for b in range(3) if a or b])
        return fld.elem(UPoly(fld.base, [fld.base.elem(a), fld.base.elem(b)]))
    return fld.from_index(rng.randrange(1, fld.order))


@pytest.mark.parametrize("fld", [FF(3), FF(7), FF(3, 2), FF(3, 3),
                                 RatFuncField(FF(3)), FF(70001)],
                         ids=["3", "7", "9", "27", "3(t)", "70001"])
def test_completed_bases_pass_buchbergers_criterion(fld):
    # over-pruning would leave an S-polynomial with a nonzero remainder;
    # a second run must take the same pairs to the same basis
    rng = random.Random(f"criterion:{fld!r}")
    proper = 0
    for _ in range(12):
        n = rng.choice((2, 3))
        gens = []
        for _ in range(rng.randrange(2, 4)):
            terms = {}
            for _ in range(rng.randrange(2, 5)):
                exps = [0] * n
                for _ in range(rng.randrange(4)):
                    exps[rng.randrange(n)] += 1
                terms[tuple(exps)] = _random_coeff(fld, rng)
            gens.append(MultiPoly(fld, n, terms))
        status, basis, pairs, _ = groebner.buchberger(gens)
        assert status == "done"
        assert _spolys_reduce_to_zero(basis)
        assert groebner.buchberger(gens)[:3] == (status, basis, pairs)
        proper += not any(b.is_constant() for b in basis)
    assert proper >= 3, proper
