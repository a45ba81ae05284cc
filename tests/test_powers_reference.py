"""Nested-Horner `substitute` against the frozen term-by-term loop.

`tests_support_powers_reference` keeps the substitution that summed each
term's cached powers times its coefficient.  These tests compare the two on
seeded term dicts over F_5, F_9 and F_3(t), with field-element, `MultiPoly`,
`UPoly` and `RatFunc` values: empty dicts, constant-only dicts (whose sum
must have `zero`'s type, not be a bare coefficient), variables present only
at exponent 0, and sparse exponent gaps.
"""

import random

import pytest

import tests_support_powers_reference as reference
from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.multipoly import MultiPoly
from charpgeom.algebra.powers import substitute
from charpgeom.algebra.unipoly import RatFunc, RatFuncField, UPoly

# exponents with gaps of 1 to 6 between the ones present
EXPONENTS = (0, 1, 2, 3, 5, 9, 10)


def upoly(fld, rng, length=3):
    return UPoly(fld, [fld.from_index(rng.randrange(fld.order))
                       for _ in range(length)])


def ratfunc(fld, rng):
    den = UPoly(fld, [fld.from_index(rng.randrange(fld.order)), fld.one])
    return RatFunc(upoly(fld, rng), den)


def kinds(name):
    """(coefficient maker, value maker, zero) per value type on a domain."""
    if name == "F3(t)":
        fld = FF(3)
        dom = RatFuncField(fld)
        coeff = lambda rng: ratfunc(fld, rng)
        return {
            "ratfunc": (coeff, coeff, dom.zero),
            "multipoly": (coeff, lambda rng: MultiPoly(dom, 2, {
                (rng.randrange(3), rng.randrange(3)): coeff(rng)
                for _ in range(2)}), MultiPoly(dom, 2)),
            # the shape of `lift_point`'s numerator sums
            "upoly": (lambda rng: upoly(fld, rng), lambda rng: upoly(fld, rng),
                      UPoly(fld)),
        }
    fld = FF(5) if name == "F5" else FF(3, 2)
    coeff = lambda rng: fld.from_index(rng.randrange(fld.order))
    return {
        "element": (coeff, coeff, fld.zero),
        "multipoly": (coeff, lambda rng: MultiPoly(fld, 2, {
            (rng.randrange(3), rng.randrange(3)): coeff(rng) for _ in range(2)}),
            MultiPoly(fld, 2)),
        "upoly": (coeff, lambda rng: upoly(fld, rng), UPoly(fld)),
        "ratfunc": (coeff, lambda rng: ratfunc(fld, rng), RatFunc(UPoly(fld))),
    }


CASES = [(dom, kind) for dom in ("F5", "F9", "F3(t)") for kind in kinds(dom)]


def term_dicts(rng, n, coeff):
    """Seeded dicts in n variables: the last variable only at exponent 0,
    then random sparse exponents, constants included or not."""
    yield {}
    yield {(0,) * n: coeff(rng)}
    yield {(EXPONENTS[rng.randrange(1, 7)],) + (0,) * (n - 1): coeff(rng),
           (0,) * n: coeff(rng)}
    for _ in range(8):
        yield {tuple(rng.choice(EXPONENTS) for _ in range(n - 1)) + (0,):
               coeff(rng) for _ in range(rng.randrange(1, 6))}
        yield {tuple(rng.choice(EXPONENTS) for _ in range(n)): coeff(rng)
               for _ in range(rng.randrange(1, 9))}


@pytest.mark.parametrize("dom,kind", CASES, ids=[f"{d}-{k}" for d, k in CASES])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_substitute_matches_the_termwise_loop(dom, kind, n):
    coeff, value, zero = kinds(dom)[kind]
    rng = random.Random(f"{dom}:{kind}:{n}")
    for terms in term_dicts(rng, n, coeff):
        values = [value(rng) for _ in range(n)]
        got = substitute(terms, values, zero)
        assert got == reference.substitute(terms, values, zero), terms
        # a constant-only sum is `zero + c`, never the bare coefficient
        assert type(got) is type(zero)
