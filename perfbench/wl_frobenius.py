"""frobenius-batch: fixed-shape Frobenius certificates over k(t).

One unit is one `covers.frobenius_factorization` call on a MultiPoly h over
F_p(t).  The acceptance #4 mix has a heavy tail (a few units take most of
the time, a p = 5 three-variable unit takes ~16 s), so the unit shapes are
frozen templates: the exponent set, the numerator degrees and the number of
distinct linear denominator factors are fixed, and the seed draws only the
coefficients and the denominator roots.  Time goes to the certificate
expansion (sum b_I T^I)^p, i.e. MultiPoly products over a prime field.
"""

from random import Random

import perunit

NAME = "frobenius-batch"

# (p, exponent tuples, numerator degree per term, linear factors per term)
TEMPLATES = (
    (3, ((0, 0), (1, 2), (3, 1), (2, 4), (4, 2)), (2, 1, 2, 1, 2),
     (1, 0, 1, 1, 0)),
    (3, ((0, 1, 0), (2, 0, 1), (1, 1, 3), (0, 2, 2)), (2, 2, 1, 2),
     (1, 1, 1, 0)),
    (5, ((0,), (1,), (3,)), (2, 1, 1), (1, 0, 1)),
    (5, ((1, 0), (0, 2), (2, 1)), (1, 1, 1), (1, 1, 0)),
)
PER_TEMPLATE = 24
UNITS_PER_ROUND = PER_TEMPLATE * len(TEMPLATES)


def build(seed):
    """The round's inputs: PER_TEMPLATE seeded instances of each template."""
    from charpgeom.algebra.finitefield import FF
    from charpgeom.algebra.unipoly import UPoly, RatFunc, RatFuncField
    from charpgeom.algebra.multipoly import MultiPoly

    rng = Random(f"{NAME}:{seed}")
    units = []
    for _ in range(PER_TEMPLATE):
        for p, exps, numdegs, nfactors in TEMPLATES:
            fld = FF(p)
            tdom = RatFuncField(fld, "t")
            roots = rng.sample(range(p), sum(nfactors))
            terms = {}
            for e, nd, nf in zip(exps, numdegs, nfactors):
                mine, roots = roots[:nf], roots[nf:]
                den = UPoly.const(fld, 1)
                for r in mine:
                    den = den * UPoly(fld, [fld.elem(-r), fld.one])
                while True:
                    coeffs = [rng.randrange(1, p) for _ in range(nd)]
                    coeffs.append(rng.randrange(1, p))
                    if all(_eval_mod(coeffs, r, p) for r in mine):
                        break
                terms[e] = RatFunc(UPoly.from_ints(fld, coeffs), den)
            units.append(MultiPoly(tdom, len(exps[0]), terms))
    return units


def _eval_mod(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _unit(h):
    from charpgeom import covers
    return covers.frobenius_factorization(h)


def _summary(fact):
    return sorted((e, repr(c)) for e, c in fact.b.items())


def _ints(upoly):
    return [c.coeffs[0] for c in upoly.coeffs]


def _check(h, fact):
    """Over F_p Frobenius fixes every constant, so the p-th root of
    a_I(s^p) is a_I(s): b_I must be a_I with t renamed s, coefficient for
    coefficient."""
    if fact.p != h.domain.p:
        return "wrong characteristic"
    if set(fact.b) != set(h.terms):
        return "exponent sets of b and h differ"
    for e, a in h.terms.items():
        b = fact.b[e]
        if _ints(b.num) != _ints(a.num) or _ints(b.den) != _ints(a.den):
            return f"b_{e} = {b!r} but a_{e} = {a!r}"
    return None


run_round, summary, check = perunit.protocol(_unit, _summary, _check)
