"""Membership verdicts against sympy's Groebner bases over F_p.

On seeded small ideals, `groebner_membership_one` must find a certificate
exactly when sympy's reduced grevlex basis is [1].  Where sympy finds a
proper ideal zero-dimensional, `standard_monomial_count` on the completed
basis must equal the count read off sympy's leading monomials, and it must
be None where sympy finds the ideal positive-dimensional.  Skipped without
sympy.
"""

import itertools
import random

import pytest

from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.groebner import (
    groebner_membership_one, standard_monomial_count,
)
from charpgeom.algebra.multipoly import MultiPoly

sympy = pytest.importorskip("sympy")


def _random_ideal(fld, rng):
    n = rng.choice((2, 3))
    gens = []
    for _ in range(rng.choice((n - 1, n, n + 1))):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            exps = [0] * n
            for _ in range(rng.randrange(4)):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = fld.elem(rng.randrange(1, fld.p))
        gens.append(MultiPoly(fld, n, terms))
    return gens


def _sympy_basis(gens, p):
    syms = sympy.symbols(f"x1:{gens[0].n + 1}")
    exprs = [sympy.Poly.from_dict({e: c.coeffs[0] for e, c in g.terms.items()},
                                  *syms, modulus=p).as_expr() for g in gens]
    return sympy.groebner(exprs, *syms, modulus=p, order="grevlex"), syms


def _standard_monomials(basis, syms):
    """dim of the quotient ring, from the leading monomials of a basis."""
    leads = [sympy.Poly(g, *syms).monoms(order="grevlex")[0] for g in basis.exprs]
    bounds = [min(lm[i] for lm in leads
                  if lm[i] and not any(lm[:i] + lm[i + 1:]))
              for i in range(len(syms))]
    return sum(1 for exps in itertools.product(*map(range, bounds))
               if not any(all(a <= b for a, b in zip(lm, exps)) for lm in leads))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_membership_verdicts_match_sympy(p):
    fld = FF(p)
    rng = random.Random(f"oracle:{p}")
    seen = {"certificate": 0, "not_in_ideal": 0, "zero_dimensional": 0}
    for _ in range(40):
        gens = [g for g in _random_ideal(fld, rng) if not g.is_zero()]
        if not gens:
            continue
        res = groebner_membership_one(gens)
        basis, syms = _sympy_basis(gens, p)
        assert res.status == ("certificate" if list(basis.exprs) == [1]
                              else "not_in_ideal")
        seen[res.status] += 1
        if res.status == "not_in_ideal":
            count = standard_monomial_count(res.basis)
            if basis.is_zero_dimensional:
                assert count == _standard_monomials(basis, syms)
                seen["zero_dimensional"] += 1
            else:
                assert count is None
    assert all(seen.values()), seen
