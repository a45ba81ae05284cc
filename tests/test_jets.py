"""Jet truncation and composition against naive substitute-then-truncate."""

import random

import pytest

from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.multipoly import MultiPoly
from charpgeom.algebra.jets import Jet, jet_compose


def rand_mpoly(fld, n, rng, max_deg=4, max_terms=6, no_const=False):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        e = tuple(rng.randrange(0, max_deg) for _ in range(n))
        if no_const and sum(e) == 0:
            continue
        c = rng.randrange(fld.order)
        if c:
            terms[e] = fld.from_index(c)
    return MultiPoly(fld, n, terms)


def naive_compose(f, phi_polys, order):
    # oracle: full polynomial substitution, then truncation
    full = f.subs(phi_polys)
    return Jet.from_poly(full, order)


def test_identity_plus_perturbation():
    # f = x, phi = (x + y^2), r = 3 -> x + y^2
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    phi = [Jet.from_poly(x + y ** 2, 3), Jet.from_poly(y, 3)]
    res = jet_compose(x, phi, 3)
    assert res == Jet.from_poly(x + y ** 2, 3)


def test_square_composition_drops_high_degree():
    # f = x^2, phi = (x + y^2), r = 4 -> x^2 + 2xy^2 (y^4 dropped)
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    phi = [Jet.from_poly(x + y ** 2, 4), Jet.from_poly(y, 4)]
    res = jet_compose(x ** 2, phi, 4)
    assert res == Jet.from_poly(x ** 2 + x * y ** 2 * 2, 4)
    # sanity against the naive oracle
    assert res == naive_compose(x ** 2, [x + y ** 2, y], 4)


def test_identity_substitution_truncates():
    fld = FF(7)
    rng = random.Random(1)
    f = rand_mpoly(fld, 2, rng, max_deg=6)
    ident = [Jet.from_poly(MultiPoly.var(fld, 2, i), 4) for i in range(2)]
    assert jet_compose(f, ident, 4) == Jet.from_poly(f, 4)


def test_all_stored_degrees_below_order():
    fld = FF(3)
    rng = random.Random(2)
    f = rand_mpoly(fld, 3, rng, max_deg=5)
    jet = Jet.from_poly(f, 4)
    assert all(sum(e) < 4 for e in jet.to_poly().terms)


def test_composition_depends_only_on_truncations():
    # trunc(f o g, r) is unchanged by altering g above degree r
    fld = FF(5)
    rng = random.Random(3)
    x, y = MultiPoly.variables(fld, 2)
    for _ in range(20):
        f = rand_mpoly(fld, 2, rng, max_deg=4)
        g1 = rand_mpoly(fld, 2, rng, max_deg=3, no_const=True)
        tail = rand_mpoly(fld, 2, rng, max_deg=3) * x ** 3 * y ** 3  # degree >= 6
        r = 5
        a = jet_compose(f, [Jet.from_poly(g1, r), Jet.from_poly(y, r)], r)
        b = jet_compose(f, [Jet.from_poly(g1 + tail, r),
                            Jet.from_poly(y, r)], r)
        assert a == b


def test_composition_matches_naive_oracle_random():
    for p in (3, 5):
        fld = FF(p)
        rng = random.Random(p)
        for _ in range(25):
            r = rng.randrange(3, 7)
            f = rand_mpoly(fld, 2, rng, max_deg=r)
            g1 = rand_mpoly(fld, 2, rng, max_deg=r - 1, no_const=True)
            g2 = rand_mpoly(fld, 2, rng, max_deg=r - 1, no_const=True)
            if g1.constant_term() != fld.zero or g2.constant_term() != fld.zero:
                continue
            phis = [Jet.from_poly(g1, r), Jet.from_poly(g2, r)]
            assert jet_compose(f, phis, r) == naive_compose(f, [g1, g2], r)


def test_associativity_up_to_truncation():
    # trunc((f o g) o h, r) = trunc(f o (g o h), r) on zero-constant triples
    fld = FF(7)
    rng = random.Random(9)
    for _ in range(25):
        r = rng.randrange(3, 6)
        f = rand_mpoly(fld, 2, rng, max_deg=r)
        gs = [rand_mpoly(fld, 2, rng, max_deg=r - 1, no_const=True)
              for _ in range(2)]
        hs = [rand_mpoly(fld, 2, rng, max_deg=r - 1, no_const=True)
              for _ in range(2)]
        g_jets = [Jet.from_poly(g, r) for g in gs]
        h_jets = [Jet.from_poly(h, r) for h in hs]
        fg = jet_compose(f, g_jets, r)
        left = jet_compose(fg, h_jets, r)
        gh = [jet_compose(g, h_jets, r) for g in gs]
        right = jet_compose(f, gh, r)
        assert left == right


def _random_map(fld, n, r, rng):
    """n order-r jets with zero constant term: a random linear part, not
    only a near-identity one, plus a few random terms of degree 2..r-1."""
    jets = []
    for _ in range(n):
        terms = {tuple(int(k == j) for k in range(n)):
                 fld.from_index(rng.randrange(fld.order)) for j in range(n)}
        for _ in range(rng.randrange(1, 4)):
            e = [0] * n
            for _ in range(rng.randrange(2, r)):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = fld.from_index(rng.randrange(1, fld.order))
        jets.append(Jet(fld, n, r, terms))
    return jets


def _compose_maps(a, b, r):
    return [jet_compose(ai, b, r) for ai in a]


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2), (5, 2), (65537, 1)])
def test_map_composition_is_associative(p, m):
    # (a o b) o c == a o (b o c) on order-r maps with zero constant term, the
    # identity that lets normal_form compose its steps in either order;
    # F_3 and F_5 run on residues, F_9 and F_25 on Zech logs, F_65537 on
    # elements
    fld = FF(p, m)
    rng = random.Random(100 * p + m)
    for n in range(1, 4):
        for r in range(3, 9):
            a, b, c = (_random_map(fld, n, r, rng) for _ in range(3))
            left = _compose_maps(_compose_maps(a, b, r), c, r)
            right = _compose_maps(a, _compose_maps(b, c, r), r)
            assert [j.packed for j in left] == [j.packed for j in right]


def test_constant_term_violation_rejected():
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    bad = Jet.from_poly(x + 1, 4)
    with pytest.raises(ValueError):
        jet_compose(x, [bad, Jet.from_poly(y, 4)], 4)


def test_substitution_below_the_target_order_rejected():
    # [x, y] and [x + x^2, y] agree to order 2 but compose x*y differently
    # at order 4, so order-2 jets cannot give an order-4 composite
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    low = [Jet.from_poly(MultiPoly.var(fld, 2, i), 2) for i in range(2)]
    with pytest.raises(ValueError, match="order"):
        jet_compose(x * y, low, 4)
    bent = [Jet.from_poly(x + x ** 2, 4), Jet.from_poly(y, 4)]
    assert jet_compose(x * y, bent, 4).to_poly() == x ** 2 * y + x * y
    # higher-order jets are truncated to the target order
    high = [Jet.from_poly(x + x ** 2, 6), Jet.from_poly(y, 6)]
    assert jet_compose(x * y, high, 2) == Jet(fld, 2, 2)
    assert jet_compose(x * y, high, 4) == jet_compose(x * y, bent, 4)
    assert jet_compose(x * y, low, 2) == Jet.from_poly(x * y, 2)


def test_jet_arithmetic_over_extension_field():
    fld = FF(3, 2)
    g = fld.generator()
    x, y = MultiPoly.variables(fld, 2)
    a = Jet.from_poly(x * MultiPoly.const(fld, 2, g) + y ** 2, 5)
    b = Jet.from_poly(y * 2, 5)
    assert (a + b) - b == a
    assert (a * b).to_poly() == ((x * MultiPoly.const(fld, 2, g) + y ** 2) * (y * 2))


def test_arithmetic_across_fields_raises():
    # over F_p the residues of one field used to be reduced mod the other's
    # p, and over F_{p^m} one field's Zech-log codes would read as the
    # other's
    x5 = MultiPoly.var(FF(5), 2, 0)
    jet7 = Jet.from_poly(MultiPoly.var(FF(7), 2, 0), 4)
    with pytest.raises(ValueError, match="mismatch"):
        jet7 + 4 * x5
    with pytest.raises(ValueError, match="mismatch"):
        jet7 * Jet.from_poly(MultiPoly.var(FF(5), 2, 1), 4)
    with pytest.raises(ValueError):
        jet7.scale(FF(5).elem(3))
    with pytest.raises(ValueError):
        jet7 + FF(5).elem(3)
    jet9, jet25 = (Jet.from_poly(MultiPoly.var(FF(q, 2), 1, 0), 4)
                   for q in (3, 5))
    with pytest.raises(ValueError, match="mismatch"):
        jet9 * jet25
    with pytest.raises(ValueError, match="mismatch"):
        jet9 - jet25
    with pytest.raises(ValueError, match="mismatch"):
        jet7 + Jet.from_poly(MultiPoly.var(FF(7), 3, 0), 4)


def test_compose_with_phis_over_another_field_raises():
    x, y = MultiPoly.variables(FF(3, 2), 2)
    phis25 = [Jet.from_poly(MultiPoly.var(FF(5, 2), 2, i), 4)
              for i in range(2)]
    with pytest.raises(ValueError, match="domain"):
        jet_compose(x * y + x, phis25, 4)
    with pytest.raises(ValueError, match="domain"):
        jet_compose(Jet.from_poly(x * y, 4), phis25, 4)
    # the phis must also share one number of variables
    mixed = [Jet.from_poly(MultiPoly.var(FF(3, 2), n, 0), 4) for n in (2, 3)]
    with pytest.raises(ValueError, match="number of variables"):
        jet_compose(x * y, mixed, 4)


def test_malformed_exponent_tuples_raise_at_any_degree():
    # the degree filter used to run before the tuple check, so a 3-entry
    # tuple of degree >= order in 2 variables was dropped in silence
    fld = FF(5)
    with pytest.raises(ValueError, match="exponents"):
        Jet(fld, 2, 3, {(0, 0, 9): 1})
    with pytest.raises(ValueError, match="exponents"):
        Jet(fld, 2, 3).coefficient((0, 0, 9))
    with pytest.raises(ValueError, match="exponents"):
        Jet(fld, 2, 3).coefficient((-1, 5))
    # well-formed terms of degree >= order are still dropped, and read as 0
    jet = Jet(fld, 2, 3, {(0, 4): 1, (1, 1): 2})
    assert jet == Jet(fld, 2, 3, {(1, 1): 2})
    assert jet.coefficient((0, 4)) == fld.zero


def test_truncation_checks_the_order():
    jet = Jet.from_poly(MultiPoly.var(FF(5), 2, 0), 4)
    assert jet.truncate(1).is_zero() and jet.truncate(1).order == 1
    for order in (0, 33):
        with pytest.raises(ValueError, match="order"):
            jet.truncate(order)
