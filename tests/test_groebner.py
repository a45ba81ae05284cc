"""Membership-of-1 engine: certificates, negative proofs, budget honesty."""

import ast
import inspect
import random

import pytest

from charpgeom.algebra import groebner, monomials
from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.multipoly import MultiPoly
from charpgeom.algebra.unipoly import RatFunc, RatFuncField, UPoly
from charpgeom.algebra.groebner import (
    IdealCertificate, groebner_membership_one, buchberger, grevlex_key,
    leading_term, reduce_poly, standard_monomial_count,
)


def test_grevlex_order_basics():
    # degree dominates; ties broken by the reversed-exponent rule
    assert grevlex_key((2, 0)) > grevlex_key((1, 0))
    assert grevlex_key((1, 1)) > grevlex_key((0, 2))   # x*y > y^2
    assert grevlex_key((2, 0)) > grevlex_key((1, 1))   # x^2 > x*y
    # standard grevlex in 3 vars: x*z < y^2
    assert grevlex_key((0, 2, 0)) > grevlex_key((1, 0, 1))


def test_unit_from_x_and_1_plus_x():
    fld = FF(5)
    x = MultiPoly.var(fld, 1, 0)
    res = groebner_membership_one([x, 1 + x])
    assert res.status == "certificate"
    assert res.certificate.verify()
    # the cofactors witness 1*(1+x) - 1*(x) = 1 up to scaling
    gens = res.certificate.generators
    cof = res.certificate.cofactors
    acc = MultiPoly(fld, 1)
    for c, g in zip(cof, gens):
        acc = acc + c * g
    assert acc == MultiPoly.const(fld, 1, 1)


def test_x2_y2_not_unit_ideal():
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    res = groebner_membership_one([x ** 2, y ** 2])
    assert res.status == "not_in_ideal"
    leads = sorted(leading_term(b)[0] for b in res.basis)
    assert leads == [(0, 2), (2, 0)]
    assert standard_monomial_count(res.basis) == 4


def test_literal_spec_generator_set_has_common_zero():
    # {2u1, 2u2, 1 + u1^2 + u2^2 - v*w} vanishes at (0, 0, 1, 1): 1 is NOT
    # in the ideal, so no certificate can exist for the literal set
    fld = FF(5)
    u1, u2, v, w = MultiPoly.variables(fld, 4)
    gens = [u1 * 2, u2 * 2, 1 + u1 ** 2 + u2 ** 2 - v * w]
    pt = (fld.zero, fld.zero, fld.one, fld.one)
    assert all(g.evaluate(pt) == fld.zero for g in gens)
    res = groebner_membership_one(gens)
    assert res.status == "not_in_ideal"


def test_first_blowup_chart_jacobian_has_certificate():
    # the intended object behind the spec's example: the full Jacobian ideal
    # of the first blow-up x-chart, v^p x^(p-2) = 1 + u1^2 + u2^2, p >= 3
    for p in (3, 5):
        fld = FF(p)
        v, u1, u2, x = MultiPoly.variables(fld, 4)
        eq = v ** p * x ** (p - 2) - 1 - u1 ** 2 - u2 ** 2
        gens = [eq] + eq.gradient()
        res = groebner_membership_one(gens)
        assert res.status == "certificate"
        assert res.certificate.verify()


def test_certificate_reverifies_independently_of_engine():
    # V(x^2, xy - 1) is empty: x = 0 forces xy = 0 != 1
    fld = FF(7)
    x, y = MultiPoly.variables(fld, 2)
    res = groebner_membership_one([x ** 2, x * y - 1])
    assert res.status == "certificate"
    cert = res.certificate
    assert cert.verify()
    # tampering with a cofactor must break re-verification
    cert.cofactors[0] = cert.cofactors[0] + 1
    assert not cert.verify()


def test_exhaustion_reported_distinctly():
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    res = groebner_membership_one([x ** 2, x * y - 1], max_pairs=0)
    assert res.status == "exhausted"
    assert res.status not in ("certificate", "not_in_ideal")


def test_reduce_poly_identity():
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    basis = [x ** 2 - y, y ** 2 - 1]
    rng = random.Random(0)
    for _ in range(20):
        terms = {}
        for _ in range(5):
            e = (rng.randrange(5), rng.randrange(5))
            c = rng.randrange(1, 5)
            terms[e] = fld.elem(c)
        f = MultiPoly(fld, 2, terms)
        qs, rem = reduce_poly(f, basis)
        acc = rem
        for q, b in zip(qs, basis):
            acc = acc + q * b
        assert acc == f


def test_buchberger_spolys_reduce_to_zero():
    # completed bases pass the Buchberger criterion (spot check)
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    status, basis, _, trace = buchberger([x ** 2 + y, x * y + 1])
    assert status == "done"
    # the trace replay: every entry equals its stated combination
    gens = [x ** 2 + y, x * y + 1]
    for k, poly in enumerate(basis):
        rep = trace.representation(k)
        acc = MultiPoly(fld, 2)
        for c, g in zip(rep, gens):
            acc = acc + c * g
        assert acc == poly


def test_zero_dimensional_count_matches_solutions():
    # V(x^2 - 1, y - x): two simple solutions over F_7
    fld = FF(7)
    x, y = MultiPoly.variables(fld, 2)
    res = groebner_membership_one([x ** 2 - 1, y - x])
    assert res.status == "not_in_ideal"
    assert standard_monomial_count(res.basis) == 2


def test_not_zero_dimensional_returns_none():
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    res = groebner_membership_one([x * y])
    assert standard_monomial_count(res.basis) is None


def test_packed_degree_bound_raises_instead_of_wrapping():
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    bound = monomials.MAX_DEGREE
    too_big = f"degree {bound + 1} exceeds .* MAX_DEGREE = {bound}"
    # an input monomial
    with pytest.raises(ValueError, match=too_big):
        groebner_membership_one([x ** (bound + 1) + 1, y])
    with pytest.raises(ValueError, match=too_big):
        reduce_poly(x ** (bound + 1), [x])
    # an exponent that would carry into the next field: x^(2^16) is not y
    with pytest.raises(ValueError, match="degree 65536 exceeds"):
        groebner_membership_one([x ** (1 << 16), y - 1])
    # an lcm of two leading monomials that are within the bound (the small
    # budget makes a wrapped lcm fail here rather than run away)
    with pytest.raises(ValueError, match="degree 40000 exceeds"):
        groebner_membership_one([x ** 20000 * y + 1, x * y ** 20000 + 1],
                                max_pairs=5)


def test_just_under_the_degree_bound_certifies():
    # x^B and x^(B-1) - 1: the S-polynomial is x, and the cofactors reach
    # degree B - 1
    fld = FF(5)
    x = MultiPoly.var(fld, 1, 0)
    bound = monomials.MAX_DEGREE
    res = groebner_membership_one([x ** bound, x ** (bound - 1) - 1])
    assert res.status == "certificate"
    assert res.certificate.verify()
    assert max(c.total_degree() for c in res.certificate.cofactors) == bound - 1


def test_cofactor_replay_checks_the_degree_bound(monkeypatch):
    # 1 = (1 + xy + ... + (xy)^(d-1)) (1 - xy) + (xy)^d: the basis and every
    # lcm stay at degree <= d + 1 while the cofactor of 1 - xy reaches
    # 2(d - 1); with 7-bit exponents (B = 127), d = 64 fits and d = 65 not.
    # A ring reads FIELD_BITS when it is built and rings are memoised: the
    # cache is emptied before (8-bit rings) and after (16-bit ones again).
    monomials.ring.cache_clear()
    monkeypatch.setattr(monomials, "FIELD_BITS", 8)
    monkeypatch.setattr(monomials, "MAX_DEGREE", 127)
    try:
        fld = FF(5)
        x, y = MultiPoly.variables(fld, 2)
        res = groebner_membership_one([x ** 64, 1 - x * y])
        assert res.status == "certificate"
        assert res.certificate.verify()
        assert max(c.total_degree() for c in res.certificate.cofactors) == 126
        with pytest.raises(ValueError, match="degree 128 exceeds .* = 127"):
            groebner_membership_one([x ** 65, 1 - x * y])
    finally:
        monomials.ring.cache_clear()


def test_certificate_needs_one_cofactor_per_generator_in_one_ring():
    fld = FF(5)
    one = MultiPoly.const(fld, 1, 1)
    x = MultiPoly.var(fld, 1, 0)
    # zip used to drop the unmatched generator or cofactor
    assert IdealCertificate([one, x], [one]).verify() is False
    assert IdealCertificate([one], [one, x]).verify() is False
    # and to truncate x3 (3 variables) to the constant 1 (2 variables)
    with pytest.raises(ValueError):
        IdealCertificate([MultiPoly.const(fld, 2, 1)],
                         [MultiPoly.var(fld, 3, 2)]).verify()


def test_generators_from_other_rings_raise():
    # residues mod 5 used to be reduced mod 7 (and codes of F_25 would read
    # as codes of F_9): every generator must share the first one's ring
    x7, y7 = MultiPoly.variables(FF(7), 2)
    x5, y5 = MultiPoly.variables(FF(5), 2)
    z = MultiPoly.var(FF(7), 3, 2)
    with pytest.raises(ValueError, match="used in a ring over"):
        groebner_membership_one([x7 + 1, y5])
    with pytest.raises(ValueError, match="used in a ring over"):
        groebner_membership_one([x7, z + 1])
    with pytest.raises(ValueError, match="used in a ring over"):
        reduce_poly(x7 * y7, [x5])
    u9 = MultiPoly.var(FF(3, 2), 1, 0)
    u25 = MultiPoly.var(FF(5, 2), 1, 0)
    with pytest.raises(ValueError, match="used in a ring over"):
        groebner_membership_one([u9, u25 + 1])
    with pytest.raises(ValueError, match="used in a ring over"):
        reduce_poly(u9, [u25])


def test_budget_reached_with_only_pruned_pairs_pending_is_done():
    # the lead xy of the third generator divides lcm(x^2 y, x y^2) = x^2 y^2
    # and differs from both other lcms, so the chain criterion drops that
    # pair: two pairs are processed, and the dropped one is not pending
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    gens = [x ** 2 * y, x * y ** 2, x * y]
    res = groebner_membership_one(gens, max_pairs=2)
    assert (res.status, res.pairs_processed) == ("not_in_ideal", 2)
    assert buchberger(gens, max_pairs=2)[:3] == ("done", gens, 2)
    res = groebner_membership_one(gens, max_pairs=1)
    assert (res.status, res.pairs_processed) == ("exhausted", 1)


def test_reduce_poly_skips_zero_basis_elements():
    # a zero element gets a zero quotient, as buchberger drops zero
    # generators; it used to raise "max() arg is an empty sequence"
    fld = FF(5)
    x, y = MultiPoly.variables(fld, 2)
    zero = MultiPoly.zero(fld, 2)
    f = x ** 3 * y + 2 * y ** 2 + x
    qs, rem = reduce_poly(f, [zero, x ** 2 - y, zero, y ** 2 - 1])
    assert len(qs) == 4 and qs[0].is_zero() and qs[2].is_zero()
    (q1, q3), r = reduce_poly(f, [x ** 2 - y, y ** 2 - 1])
    assert (qs[1], qs[3], rem) == (q1, q3, r)
    assert q1 * (x ** 2 - y) + q3 * (y ** 2 - 1) + r == f
    assert reduce_poly(f, [zero]) == ([zero], f)


def test_pairs_pop_by_sugar():
    # the S-polynomial of the first two gives x2^2 + x1 (element 3) at sugar
    # 4, two above its degree; its one new pair, with x1*x2^2, has the least
    # lcm (degree 3), which the normal strategy pops next, but sugar 3 + 2 =
    # 5, so the pair (1, 2), lcm x1^3*x2 and sugar 4, goes first
    fld = FF(7)
    x, y = MultiPoly.variables(fld, 2)
    gens = [x * y ** 2 + 1, x ** 2 * y - y, x ** 3 + 1]
    status, basis, pairs, trace = buchberger(gens)
    assert (status, pairs) == ("done", 8)
    assert [st.submuls[0][0] for st in trace.steps[3:]] == [0, 1, 0, 3]
    assert [st.submuls[1][0] for st in trace.steps[3:]] == [1, 2, 3, 4]
    assert basis[3:5] == [y ** 2 + x, x * y + y]
    assert trace.sugars == [3, 3, 3, 4, 4, 5, 5]


def _full_reduction_fields():
    f7, f9, k_t, t = FF(7), FF(3, 2), RatFuncField(FF(3)), UPoly.x(FF(3))
    return [(f7, [f7.elem(c) for c in range(1, 7)]),
            (f9, [c for c in f9.elements() if c]),             # Zech codes
            (k_t, [k_t.elem(c) for c in (1, 2, t, t + 1, RatFunc(t, t + 2))])]


@pytest.mark.parametrize("fld, pool", _full_reduction_fields(),
                         ids=["F_7", "F_9", "F_3(t)"])
def test_reduce_poly_is_a_full_reduction(fld, pool):
    # the engine reduces S-polynomials by their leading terms only; the
    # public reduce_poly runs the same loop down to a remainder no term of
    # which any lead divides
    rng = random.Random(f"full-reduction:{fld!r}")
    deeper = 0
    for _ in range(15):
        n = rng.choice((2, 3))
        basis = _seeded_ideal(fld, n, rng, pool)
        f = MultiPoly(fld, n, {tuple(rng.randrange(5) for _ in range(n)):
                               rng.choice(pool) for _ in range(8)})
        qs, rem = reduce_poly(f, basis)
        assert sum((q * b for q, b in zip(qs, basis)), rem) == f
        leads = [leading_term(b)[0] for b in basis]
        assert not any(all(a <= b for a, b in zip(lead, e))
                       for e in rem.terms for lead in leads)
        # a division step below the remainder's leading term: one that a
        # reduction of the leading terms only would not have made
        top = max(map(grevlex_key, rem.terms), default=None)
        deeper += top is not None and any(
            grevlex_key(tuple(map(sum, zip(e, lead)))) < top
            for q, lead in zip(qs, leads) for e in q.terms)
    assert deeper >= 3, deeper


def _seeded_ideal(fld, n, rng, pool=None):
    """n + 1 random polynomials of degree <= 3 in n variables (mostly the
    unit ideal); the first has every coefficient -1, the slot edge, and the
    others draw theirs from `pool`, by default the nonzero residues."""
    gens = []
    for g in range(n + 1):
        terms = {}
        for _ in range(rng.randrange(2, 7)):
            exps = [0] * n
            for _ in range(rng.randrange(4)):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = fld.elem(-1) if g == 0 else \
                rng.choice(pool) if pool else fld.elem(rng.randrange(1, fld.p))
        gens.append(MultiPoly(fld, n, terms))
    return gens


def _spy_slot_replays(monkeypatch):
    """A list that gets one entry per call of the byte-slot replay."""
    calls, replay = [], groebner._Basis._replay_slots

    def spy(self, todo, radix):
        calls.append(radix)
        return replay(self, todo, radix)
    monkeypatch.setattr(groebner._Basis, "_replay_slots", spy)
    return calls


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_slot_replay_matches_dict_replay(monkeypatch, p, n):
    # the byte-slot replay against the dict replay on the same traces, term
    # for term; over F_13 a slot takes one submul between reductions
    assert groebner._slot_cadence(p) == {3: 63, 5: 15, 7: 6, 11: 2, 13: 1}[p]
    fld = FF(p)
    rng = random.Random(f"slots:{p}:{n}")
    calls = _spy_slot_replays(monkeypatch)
    for _ in range(4):
        gens = _seeded_ideal(fld, n, rng)
        _, basis, _, trace = buchberger(gens)
        slots = [trace.representation(k) for k in range(len(basis))]
        assert len(calls) == len(basis)        # every replay ran on slots
        with monkeypatch.context() as patch:   # no slot fits: dicts
            patch.setattr(groebner, "SLOT_CAP", 0)
            dicts = [trace.representation(k) for k in range(len(basis))]
        assert len(calls) == len(basis)
        calls.clear()
        for a, b in zip(slots, dicts):
            assert [c.terms for c in a] == [c.terms for c in b]


def test_slot_replay_scope(monkeypatch):
    # F_{p^m} (Zech codes), k(t), p > 13 and slot counts above SLOT_CAP take
    # the dict replay; their certificates still verify
    calls = _spy_slot_replays(monkeypatch)
    k_t = RatFuncField(FF(3))
    t = k_t.elem(UPoly(FF(3), [FF(3).zero, FF(3).one]))
    cases = []
    for fld in (FF(3, 2), k_t, FF(17), FF(70001)):
        x, y = MultiPoly.variables(fld, 2)
        c = t if fld is k_t else fld.elem(2)
        cases.append([x ** 3 - y * c, x * y - 1, y ** 2 + x])
    fld = FF(3)
    x, y, z = MultiPoly.variables(fld, 3)
    d = round(groebner.SLOT_CAP ** (1 / 3))     # cofactor degree 2(d - 1)
    cases.append([x ** d, 1 - x * y, z])
    assert (2 * d - 1) ** 3 > groebner.SLOT_CAP
    for gens in cases:
        status, basis, _, trace = buchberger(gens, stop_at_unit=True)
        assert status == "unit"
        cert = IdealCertificate(gens, trace.representation(len(basis) - 1))
        assert cert.verify()
        assert not calls                       # the dict replay ran


def _trace_fields():
    """Each field with a pool of nonzero coefficients to draw from."""
    f3, f9, f70001 = FF(3), FF(3, 2), FF(70001)
    k_t = RatFuncField(f3)
    t = UPoly.x(f3)
    return [
        (FF(5), [FF(5).elem(c) for c in range(1, 5)]),
        (f9, [c for c in f9.elements() if c]),                   # Zech codes
        (k_t, [k_t.elem(c) for c in (1, 2, t, t + 1, RatFunc(t, t + 2))]),
        (f70001, [f70001.elem(c) for c in (1, 2, 35000, 70000, 12345)]),
    ]


@pytest.mark.parametrize("fld, pool", _trace_fields(),
                         ids=["F_5", "F_9", "F_3(t)", "F_70001"])
def test_trace_steps_rebuild_their_elements(fld, pool):
    # an element from an S-pair is inv * -(sum c * x^shift * basis_x) over
    # its submuls, the S-polynomial's two multipliers first; a generator's
    # step has no submuls.  On the packed dicts the engine keeps.
    rng = random.Random(f"trace-format:{fld!r}")
    built = 0
    for _ in range(5):
        gens = _seeded_ideal(fld, rng.choice((2, 3)), rng, pool)
        _, _, _, trace = buchberger(gens, max_pairs=60)
        ring = trace.ring
        for poly, st in zip(trace.polys, trace.steps):
            if st.gen is not None:
                assert st.submuls == ()
                assert ring.scale(gens[st.gen].packed, st.inv) == poly
                continue
            (i, _, minus_one), (j, _, one) = st.submuls[:2]
            assert (minus_one, one) == (ring.minus_one, ring.one) and i < j
            reductions = [(x, shift) for x, shift, _ in st.submuls[2:]]
            assert len(set(reductions)) == len(reductions)
            acc = {}
            for x, shift, c in st.submuls:
                ring.submul(acc, trace.polys[x], shift, c)
            assert ring.scale(acc, st.inv) == poly
            built += 1
    assert built


def test_replay_refers_to_nothing_from_kronecker():
    # the engine's replay and the verifier share no code: `_Basis`, and the
    # module functions it calls, name neither `kronecker` nor what it holds
    tree = ast.parse(inspect.getsource(groebner))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    kronecker = groebner.kronecker
    forbidden = {"kronecker"} | {name for name, v in vars(kronecker).items()
                                 if getattr(v, "__module__", None) == kronecker.__name__}
    todo, seen = ["_Basis"], set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(defs[name]):
            ref = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            assert ref not in forbidden, f"{name} refers to {ref}"
            if ref in defs and ref not in seen:
                todo.append(ref)
    assert {"_Basis", "_slot_cadence", "_slot_tables"} <= seen
