"""Certificate verification in `algebra/kronecker.py`, against expansion.

`IdealCertificate.verify()` calls `kronecker.sum_is_one` and
`FrobeniusFactorization.verify()` calls `kronecker.power_is`.  Each decides
its identity on Kronecker ints over F_p (`packed_sum`) when the layout has
no more slots than expansion has term products, and by term-by-term
expansion (`expanded_sum`) otherwise.  These tests compare both with
`MultiPoly` expansion on seeded inputs, check the slot-width bounds at their
edge, pin which certificates take which route by spying on the two product
functions, and keep the Kronecker verifier and the engine's Kronecker
product (`finitefield._pmul`, under `UPoly`) free of each other's modules.
"""

import ast
import dataclasses
import itertools
import pathlib
import random

import pytest

from charpgeom import covers
from charpgeom.algebra import finitefield, kronecker, unipoly
from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.groebner import IdealCertificate, groebner_membership_one
from charpgeom.algebra.jets import Jet
from charpgeom.algebra.linalg import cofactor_det
from charpgeom.algebra.multipoly import MultiPoly, hessian_matrix
from charpgeom.algebra.unipoly import RatFunc, RatFuncField, UPoly
from charpgeom.desing import desingularize


def expand_is_one(cert):
    """The reference verdict: sum c_i g_i expanded as MultiPolys."""
    domain, n = cert.generators[0].domain, cert.generators[0].n
    acc = MultiPoly(domain, n)
    for c, g in zip(cert.cofactors, cert.generators):
        acc = acc + c * g
    return acc == MultiPoly.const(domain, n, 1)


def term_pairs(cert):
    return [(c.terms, g.terms) for c, g in zip(cert.cofactors, cert.generators)]


def dense_poly(fld, n, rng, degs, fill=0.7):
    terms = {}
    for e in itertools.product(*[range(d + 1) for d in degs]):
        if rng.random() < fill:
            terms[e] = fld.elem(rng.randrange(1, fld.p))
    return MultiPoly(fld, n, terms)


def seeded_certificate(fld, n, rng, k=3):
    """k random pairs (c_i, g_i) plus (1, 1 - sum c_i g_i): sums to 1."""
    cofs, gens = [], []
    for _ in range(k):
        cofs.append(dense_poly(fld, n, rng, [rng.randrange(1, 4) for _ in range(n)]))
        gens.append(dense_poly(fld, n, rng, [rng.randrange(1, 4) for _ in range(n)]))
    acc = MultiPoly(fld, n)
    for c, g in zip(cofs, gens):
        acc = acc + c * g
    return IdealCertificate(generators=gens + [1 - acc],
                            cofactors=cofs + [MultiPoly.const(fld, n, 1)])


CASES = [(p, n) for p in (3, 5, 7, 70001) for n in (1, 2, 3, 4)
         if not (p == 70001 and n == 4)]


@pytest.mark.parametrize("p,n", CASES)
def test_kronecker_agrees_with_expansion(p, n, monkeypatch):
    rng = random.Random(f"kronecker:{p}:{n}")
    fld = FF(p)
    routes = spy_routes(monkeypatch)
    for trial in range(4):
        cert = seeded_certificate(fld, n, rng)
        routes.clear()
        dense = kronecker.sum_is_one(term_pairs(cert), n, fld)
        assert dense is True and routes == ["packed_sum"]
        assert cert.verify() is True and expand_is_one(cert)

        # a tampered cofactor: one coefficient moved
        cofs = list(cert.cofactors)
        i = rng.randrange(len(cofs))
        e = tuple(rng.randrange(3) for _ in range(n))
        cofs[i] = cofs[i] + MultiPoly.monomial(fld, n, e, rng.randrange(1, p))
        bad = IdealCertificate(cert.generators, cofs)
        assert bad.verify() is False and not expand_is_one(bad)

        # a zero cofactor against an extra generator changes nothing
        extra = dense_poly(fld, n, rng, [2] * n)
        padded = IdealCertificate(cert.generators + [extra],
                                  cert.cofactors + [MultiPoly.zero(fld, n)])
        assert padded.verify() is True and expand_is_one(padded)

        # all cofactors zero: the sum is 0
        zero = IdealCertificate(cert.generators,
                                [MultiPoly.zero(fld, n)] * len(cert.generators))
        assert zero.verify() is False and not expand_is_one(zero)


def edge_certificate(p, n, t):
    """p copies of (a, a), a = (p-1) * sum of the t^n monomials x^e with
    every e_j < t, plus the pair (p-1, p-1): all coefficients are p-1, the
    middle monomial of each a*a collects t^n products, and the sum is
    p * a^2 + (p-1)^2 = 1 over F_p."""
    fld = FF(p)
    a = MultiPoly(fld, n, {e: fld.elem(p - 1)
                           for e in itertools.product(range(t), repeat=n)})
    c = MultiPoly.const(fld, n, p - 1)
    return IdealCertificate(generators=[a] * p + [c], cofactors=[a] * p + [c])


@pytest.mark.parametrize("p,n,t", [(3, 1, 22), (5, 2, 4), (7, 1, 2),
                                   (3, 2, 10), (3, 3, 3)])
def test_slot_width_at_its_edge(p, n, t, monkeypatch):
    cert = edge_certificate(p, n, t)
    bound = (p * t ** n + 1) * (p - 1) ** 2
    width = kronecker.slot_bytes(bound)
    assert bound < 256 ** width
    # the middle slot really holds p * t^n * (p-1)^2: it needs every byte
    assert p * t ** n * (p - 1) ** 2 >= 256 ** (width - 1)
    assert kronecker.sum_is_one(term_pairs(cert), n, FF(p)) is True
    assert cert.verify() is True and expand_is_one(cert)

    narrow = kronecker.slot_bytes
    monkeypatch.setattr(kronecker, "slot_bytes", lambda b: narrow(b) - 1)
    with pytest.raises(OverflowError):
        cert.verify()


def test_residue_outside_its_slot_raises():
    # a cell that is not a residue cannot spill into its neighbour
    with pytest.raises(OverflowError):
        kronecker.packed_sum([({0: 1, 1: 1}, {0: 1000, 1: 1})], 3)


def test_slots_hold_every_residue_when_a_side_is_empty():
    # no product term: the product bound is 0, but the slot must still
    # hold the residue p - 1 of the other side
    assert kronecker.packed_sum([({0: 70000}, {})], 70001) == {}
    assert kronecker.packed_sum([({0: 70000}, {}), ({0: 1}, {0: 70000})],
                                70001) == {0: 70000}


POWER_CASES = [(p, n, e) for p in (3, 5, 7) for n in (1, 2, 3)
               for e in sorted({2, 4, p}) if n < 3 or e < 4]


@pytest.mark.parametrize("p,n,e", POWER_CASES)
def test_power_agrees_with_expansion(p, n, e):
    # full boxes of degree d >= e - 2: (d + 1)^2 >= e*d + 1, so the
    # Kronecker route is always taken
    rng = random.Random(f"power:{p}:{n}:{e}")
    fld = FF(p)
    for _ in range(2):
        z = dense_poly(fld, n, rng, [max(1, e - 2)] * n, fill=1)
        zz = z.terms
        power = z ** e
        assert kronecker.power_is(zz, e, power.terms, n, fld) is True
        # one coefficient of z^e moved, one dropped, one term added
        k = rng.choice(sorted(power.terms))
        moved = dict(power.terms)
        moved[k] = moved[k] + rng.randrange(1, p)
        assert kronecker.power_is(zz, e, moved, n, fld) is False
        dropped = dict(power.terms)
        del dropped[k]
        assert kronecker.power_is(zz, e, dropped, n, fld) is False
        extra = (power + MultiPoly.monomial(
            fld, n, tuple(rng.randrange(e + 1) for _ in range(n)), 1)).terms
        assert kronecker.power_is(zz, e, extra, n, fld) is False


@pytest.mark.parametrize("p,n,t", [(3, 1, 16), (5, 2, 4), (7, 1, 8), (3, 3, 4)])
def test_power_slot_width_at_its_edge(p, n, t, monkeypatch):
    # z = (p-1) * the t^n monomials with every e_j < t: the middle slot of
    # z * z collects t^n products (p-1)^2, the most a slot can hold
    fld = FF(p)
    z = MultiPoly(fld, n, {e: fld.elem(p - 1)
                           for e in itertools.product(range(t), repeat=n)})
    bound = t ** n * (p - 1) ** 2
    width = kronecker.slot_bytes(bound)
    assert 256 ** (width - 1) <= bound < 256 ** width
    h = (z ** p).terms
    assert kronecker.power_is(z.terms, p, h, n, fld) is True

    narrow = kronecker.slot_bytes
    monkeypatch.setattr(kronecker, "slot_bytes", lambda b: narrow(b) - 1)
    with pytest.raises(OverflowError):
        kronecker.power_is(z.terms, p, h, n, fld)


def spy_routes(monkeypatch):
    """The names of the product functions the re-checks run, in order."""
    routes = []
    for name in ("packed_sum", "expanded_sum"):
        real = getattr(kronecker, name)
        monkeypatch.setattr(kronecker, name, lambda *args, real=real, name=name:
                            routes.append(name) or real(*args))
    return routes


def test_power_routes_sparse_inputs_to_the_expansion(monkeypatch):
    routes = spy_routes(monkeypatch)
    f3 = FF(3)
    one = f3.one
    # z = 1 + x^9 + y^9 over F_3: 3 terms, z^3 has 28^2 slots > 3^2
    z = {(0, 0): one, (9, 0): one, (0, 9): one}
    h = {(0, 0): one, (27, 0): one, (0, 27): one}
    assert kronecker.power_is(z, 3, h, 2, f3) is True
    assert set(routes) == {"expanded_sum"}
    routes.clear()
    # z = 1 + x + x^2: 3 * 2 + 1 = 7 slots <= 9
    z = {(0,): one, (1,): one, (2,): one}
    assert kronecker.power_is(z, 3, {(0,): one, (3,): one, (6,): one}, 1, f3) is True
    assert set(routes) == {"packed_sum"}


COEFFICIENTS = {
    "F9": (FF(3, 2), lambda fld, rng: fld.from_index(rng.randrange(1, 9))),
    "F3(t)": (RatFuncField(FF(3)), lambda dom, rng: dom.elem(
        UPoly.from_ints(dom.base, [rng.randrange(3), rng.randrange(1, 3)]))),
    "F5 sparse": (FF(5), lambda fld, rng: fld.elem(rng.randrange(1, 5))),
}


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_expansion_agrees_with_multipoly(name, monkeypatch):
    # sparse operands, so even F_5 expands: every product is `expanded_sum`
    domain, coefficient = COEFFICIENTS[name]
    monkeypatch.setattr(kronecker, "packed_sum", _no_kronecker)
    rng = random.Random(f"expansion:{name}")
    for _ in range(3):
        z = MultiPoly(domain, 2, {(rng.randrange(9), rng.randrange(9)):
                                  coefficient(domain, rng) for _ in range(4)})
        for e in (2, 3, 5):
            power = (z ** e).terms
            assert kronecker.power_is(z.terms, e, power, 2, domain) is True
            k = min(power)
            assert kronecker.power_is(z.terms, e, {**power, k: power[k] + 1},
                                      2, domain) is False
        g = 1 - z * z
        pairs = [(z.terms, z.terms), ({(0, 0): domain.one}, g.terms)]
        assert kronecker.sum_is_one(pairs, 2, domain) is True
        assert kronecker.sum_is_one(pairs[1:], 2, domain) is False


def test_power_rejects_a_term_outside_the_layout():
    # (1 + x)^3 = 1 + x^3 over F_3; x^7 would land on slot 0 of the next
    # variable, so it must be refused before packing, not aliased
    fld = FF(3)
    z = MultiPoly(fld, 2, {e: fld.one for e in [(0, 0), (1, 0), (0, 1), (1, 1)]})
    h = (z ** 3).terms
    assert kronecker.power_is(z.terms, 3, h, 2, fld) is True
    assert kronecker.power_is(z.terms, 3, {**h, (4, 0): fld.one}, 2, fld) is False
    assert kronecker.power_is(z.terms, 3, {**h, (0, 4): fld.elem(2)}, 2, fld) is False


def _no_kronecker(*args):
    raise AssertionError("the Kronecker path was taken")


def test_desing_certificates_take_the_expansion_path(monkeypatch):
    report = desingularize(5, 2)
    certs = [ch.smooth_certificate for step in report.steps for ch in step
             if ch.smooth_certificate is not None]
    assert certs
    monkeypatch.setattr(kronecker, "packed_sum", _no_kronecker)
    for cert in certs:
        assert cert.verify() is True and expand_is_one(cert)


@pytest.mark.parametrize("domain", [FF(3, 2), RatFuncField(FF(3))],
                         ids=["F9", "F3(t)"])
def test_other_domains_take_the_expansion_path(domain, monkeypatch):
    monkeypatch.setattr(kronecker, "packed_sum", _no_kronecker)
    x, y = MultiPoly.variables(domain, 2)
    gens = [x, 1 + x * y + y * y, y]
    cofs = [-y, MultiPoly.const(domain, 2, 1), -y]
    assert IdealCertificate(gens, cofs).verify() is True
    assert IdealCertificate(gens, [cofs[0], cofs[1], x]).verify() is False


def imported_names(path):
    """Every module and name an import statement of the file mentions."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (alias.name for alias in node.names)


def test_kronecker_module_imports_no_engine_module():
    # nor the dense F_p product and its helpers in finitefield, which the
    # UPoly engine runs on
    path = pathlib.Path(kronecker.__file__)
    forbidden = {"monomials", "groebner", "multipoly", "unipoly", "finitefield"}
    for name in imported_names(path):
        assert not forbidden & set(name.split(".")), f"kronecker.py imports {name}"
        assert not name.startswith("_p"), f"kronecker.py imports {name}"


def test_engine_modules_import_nothing_from_kronecker():
    for module in (finitefield, unipoly):
        path = pathlib.Path(module.__file__)
        for name in imported_names(path):
            assert "kronecker" not in name.split("."), f"{path.name} imports {name}"
            assert name not in {"sum_is_one", "power_is", "slot_bytes"}, \
                f"{path.name} imports {name}"


# -- every route, with no polynomial arithmetic ----------------------------------


def frobenius_inputs():
    """A dense F_3 chart (Kronecker ints); over F_3 a sparse h with linear
    denominators, shaped like frobenius-batch's units, and over F_9 a chart
    (both expanded)."""
    fld = FF(3)
    tdom = RatFuncField(fld, "t")
    rng = random.Random("every route")
    dense = MultiPoly(tdom, 2, {e: tdom.elem(rng.randrange(1, 3))
                                for e in itertools.product(range(5), repeat=2)})
    t = UPoly.x(fld)
    dens = {(0, 0): t + 1, (1, 2): UPoly.const(fld, 1), (3, 1): t + 2,
            (2, 0): (t + 1) * (t + 2)}
    fracs = MultiPoly(tdom, 2, {e: RatFunc(UPoly.from_ints(fld, [2, 1, 1]), d)
                                for e, d in dens.items()})
    f9 = FF(3, 2)
    t9 = RatFuncField(f9, "t")
    chart = MultiPoly(t9, 2, {(i, j): t9.elem(f9.from_index(1 + i + j))
                              for i in range(5) for j in range(5 - i)})
    return {name: (covers.frobenius_factorization(h), route) for name, h, route in
            [("dense F_3 chart", dense, "packed_sum"),
             ("sparse F_3 fracs", fracs, "expanded_sum"),
             ("F_9 chart", chart, "expanded_sum")]}


def closure_certificate(fld, rng):
    """The unit certificate of (grad f, det Hess f) for the first seeded
    degree-5 f in two variables that has one."""
    while True:
        f = MultiPoly(fld, 2, {e: fld.elem(rng.randrange(fld.p))
                               for e in itertools.product(range(6), repeat=2)
                               if sum(e) <= 5})
        gens = [g for g in f.gradient() + [cofactor_det(hessian_matrix(f))] if g]
        res = groebner_membership_one(gens, max_pairs=covers.MAX_PAIRS)
        if res.status == "certificate":
            return res.certificate


def ideal_inputs():
    """A closure certificate over F_7 and a seeded one over F_70001
    (Kronecker ints); desing's sparse certificates over F_5 and a small
    ideal over F_9 and over F_3(t) (expanded)."""
    out = {"F_7 closure": (closure_certificate(FF(7), random.Random(7)), "packed_sum"),
           "F_70001 seeded": (seeded_certificate(FF(70001), 2, random.Random(1)),
                              "packed_sum")}
    report = desingularize(5, 2)
    for k, cert in enumerate(ch.smooth_certificate for step in report.steps
                             for ch in step if ch.smooth_certificate is not None):
        out[f"F_5 desing {k}"] = (cert, "expanded_sum")
    for name, domain in [("F_9", FF(3, 2)), ("F_3(t)", RatFuncField(FF(3)))]:
        x, y = MultiPoly.variables(domain, 2)
        cofs = [-y, MultiPoly.const(domain, 2, 1), -y]
        out[f"{name} ideal"] = (IdealCertificate([x, 1 + x * y + y * y, y], cofs),
                                "expanded_sum")
    return out


def tampered(cert):
    """The certificate with one coefficient of one cofactor or root moved by 1."""
    if isinstance(cert, IdealCertificate):
        i, c = next((i, c) for i, c in enumerate(cert.cofactors) if c.terms)
        e = min(c.terms)
        cofactors = list(cert.cofactors)
        cofactors[i] = MultiPoly(c.domain, c.n, {**c.terms, e: c.terms[e] + 1})
        return IdealCertificate(cert.generators, cofactors)
    e = min(cert.b)
    return dataclasses.replace(cert, b={**cert.b, e: cert.b[e] + 1})


ARITHMETIC = {MultiPoly: ["__add__", "__radd__", "__sub__", "__rsub__",
                          "__neg__", "__mul__", "__rmul__", "__pow__"],
              Jet: ["__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale"]}


def test_every_route_verifies_with_no_polynomial_arithmetic(monkeypatch):
    inputs = {**frobenius_inputs(), **ideal_inputs()}
    assert {route for _, route in inputs.values()} == {"packed_sum", "expanded_sum"}
    routes = spy_routes(monkeypatch)

    def forbidden(*args):
        raise AssertionError("a verifier ran polynomial arithmetic")
    for cls, names in ARITHMETIC.items():
        for name in names:
            monkeypatch.setattr(cls, name, forbidden)
    for name, (cert, route) in inputs.items():
        routes.clear()
        assert cert.verify() is True, name
        assert set(routes) == {route}, name
        routes.clear()
        assert tampered(cert).verify() is False, name
        assert set(routes) == {route}, name
