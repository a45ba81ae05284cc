"""Chart sections and monomial substitution on packed keys against the
frozen versions on exponent tuples (`tests_support_covers_reference`).

`covers.dehomogenize_charts` drops a variable from each packed key, and
`RatExpr.subs` sums coefficient codes into keys with signed fields.  On
seeded forms and fractions on P^1, P^2 and P^3 over F_3, F_9 and F_3(t),
both must return the same polynomials as the reference, exponent tuple by
exponent tuple, and raise where it raises.
"""

import itertools
import random

import pytest

from charpgeom import covers
from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.multipoly import MultiPoly, RatExpr, monomials_of_degree
from charpgeom.algebra.unipoly import RatFunc, RatFuncField, UPoly

import tests_support_covers_reference as reference

DOMAINS = {"F_3": lambda: FF(3), "F_9": lambda: FF(3, 2),
           "F_3(t)": lambda: RatFuncField(FF(3))}


def _element(domain, rng, nonzero=False):
    if isinstance(domain, RatFuncField):
        base = domain.base
        num = UPoly(base, [base.from_index(rng.randrange(nonzero, 3)),
                           base.from_index(rng.randrange(3))])
        den = UPoly(base, [base.from_index(rng.randrange(1, 3)),
                           base.from_index(rng.randrange(2))])
        return domain.elem(RatFunc(num, den))
    return domain.from_index(rng.randrange(nonzero, domain.order))


def _form(domain, nvars, deg, rng, absent=None):
    """A seeded homogeneous form, zero coefficients dropped; with `absent`,
    that variable is missing from every term."""
    terms = {e: _element(domain, rng) for e in monomials_of_degree(nvars, deg)
             if (absent is None or not e[absent]) and rng.random() < 0.6}
    if not any(terms.values()):
        terms[next(e for e in monomials_of_degree(nvars, deg)
                   if absent is None or not e[absent])] = domain.one
    return MultiPoly(domain, nvars, terms)


def _same(new, ref):
    assert (new.n, new.domain, new.terms) == (ref.n, ref.domain, ref.terms)


@pytest.mark.parametrize("name", sorted(DOMAINS))
@pytest.mark.parametrize("N", [1, 2, 3])
def test_chart_sections_match_the_reference(name, N):
    domain, rng = DOMAINS[name](), random.Random(f"charts:{name}:{N}")
    forms = [_form(domain, N + 1, deg, rng) for deg in (1, 2, 5)]
    forms += [_form(domain, N + 1, 4, rng, absent=i) for i in (0, N)]
    forms.append(MultiPoly.const(domain, N + 1, 2))
    for form in forms:
        new, ref = covers.dehomogenize_charts(form, N), reference.dehomogenize_charts(form, N)
        assert len(new) == len(ref) == N + 1
        for a, b in zip(new, ref):
            _same(a, b)
            assert a == b
    bad = forms[0] + MultiPoly.const(domain, N + 1, 1)
    for charts in (covers.dehomogenize_charts, reference.dehomogenize_charts):
        with pytest.raises(ValueError, match="homogeneous"):
            charts(bad, N)


def _transitions(domain, N):
    """Every chart transition of P^N: chart j's coordinates on chart i."""
    for i, j in itertools.permutations(range(N + 1), 2):
        x = [covers._chart_ratio(domain, N, i, l) for l in range(N + 1)]
        yield [RatExpr(x[l], x[j]) for l in range(N + 1) if l != j]


def _monomial_fractions(domain, n, m, rng):
    """n fractions c x^u / (c' x^v) in m variables, some of the ratios 1."""
    def mono():
        return MultiPoly.monomial(domain, m, [rng.randrange(3) for _ in range(m)],
                                  _element(domain, rng, nonzero=True))
    out = []
    for _ in range(n):
        num = mono()
        out.append(RatExpr(num, num if rng.random() < 0.3 else mono()))
    return out


def _check_subs(expr, maps):
    try:
        want = reference.ratexpr_subs(expr, maps)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            expr.subs(maps)
        return False
    got = expr.subs(maps)
    _same(got.num, want.num)
    _same(got.den, want.den)
    return True


@pytest.mark.parametrize("name", sorted(DOMAINS))
@pytest.mark.parametrize("N", [1, 2, 3])
def test_substitution_matches_the_reference(name, N):
    domain, rng = DOMAINS[name](), random.Random(f"subs:{name}:{N}")
    deg = 6 if N < 3 else 3
    charts = covers.dehomogenize_charts(_form(domain, N + 1, deg, rng), N)
    absent = covers.dehomogenize_charts(_form(domain, N + 1, deg, rng, absent=1), N)
    done = 0
    # the cover's transitions on its chart sections, as `verify_cocycle`
    # and `differential_of_section` use them
    for maps in _transitions(domain, N):
        for f in charts + absent + [charts[0].derivative(0)]:
            done += _check_subs(RatExpr(f), maps)
    # seeded fractions, into as many variables or one more, with
    # coefficients other than 1 and denominators that are not constant
    for m in (N, N + 1):
        for _ in range(6):
            maps = _monomial_fractions(domain, N, m, rng)
            num, den = charts[rng.randrange(N + 1)], charts[rng.randrange(N + 1)]
            done += _check_subs(RatExpr(num, den), maps)
            done += _check_subs(RatExpr(num - num), maps)
    assert done >= 12


def test_merging_and_cancelling_terms_match_the_reference():
    fld = FF(3)
    x, y = MultiPoly.variables(fld, 2)
    # x -> y, y -> y: x + 2y cancels to zero, and x^2 y + y^3 merges
    same = [RatExpr(y), RatExpr(y)]
    assert _check_subs(RatExpr(x + y * 2), same)
    assert _check_subs(RatExpr(x * x * y + y ** 3, x + y), same)
    assert not _check_subs(RatExpr(x, x + y * 2), same)
    # x y + 2 y^2 cancels, and its y^2 still counts towards the least
    # exponent: y^3 / y^4 comes out as y / y^2
    got = RatExpr(x * y + y * y * 2 + x ** 3, x ** 4).subs(same)
    assert (got.num.terms, got.den.terms) == ({(0, 1): fld.one}, {(0, 2): fld.one})
    assert _check_subs(RatExpr(x * y + y * y * 2 + x ** 3, x ** 4), same)


def test_entries_that_are_not_monomial_fractions_raise_alike():
    fld = FF(3)
    x, y = MultiPoly.variables(fld, 2)
    expr = RatExpr(x * y + 1)
    for bad in (RatExpr(x + 1), RatExpr(x, x + y)):
        for subs in (expr.subs, lambda maps: reference.ratexpr_subs(expr, maps)):
            with pytest.raises(ValueError, match="quotients of monomials"):
                subs([RatExpr(x), bad])
    with pytest.raises(ValueError, match="one expression per variable"):
        expr.subs([RatExpr(x)])


def test_degrees_past_the_key_bound_raise():
    fld = FF(3)
    x = MultiPoly.var(fld, 1, 0)
    maps = [RatExpr(x ** 2)]
    for subs in (lambda e: e.subs(maps), lambda e: reference.ratexpr_subs(e, maps)):
        with pytest.raises(ValueError, match="MAX_DEGREE"):
            subs(RatExpr(x ** 20000))
