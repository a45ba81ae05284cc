"""Certificate verification by Kronecker substitution, against expansion.

`IdealCertificate.verify()` decides sum c_i g_i = 1 over F_p with one
big-int product (`algebra/kronecker.py`) and expands term by term
elsewhere; `kronecker.power_is`, which `FrobeniusFactorization.verify()`
calls over F_p, decides z^e = h by square-and-multiply on big ints.  These
tests compare both with expansion on seeded inputs, check the slot-width
bounds at their edge, pin which certificates take which path, and keep the
Kronecker verifier and the engine's Kronecker product (`finitefield._pmul`,
under `UPoly`) free of each other's modules.
"""

import ast
import itertools
import pathlib
import random

import pytest

from charpgeom.algebra import finitefield, groebner, kronecker, unipoly
from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.groebner import IdealCertificate
from charpgeom.algebra.multipoly import MultiPoly
from charpgeom.algebra.unipoly import RatFuncField
from charpgeom.desing import desingularize


def expand_is_one(cert):
    """The reference verdict: sum c_i g_i expanded as MultiPolys."""
    domain, n = cert.generators[0].domain, cert.generators[0].n
    acc = MultiPoly(domain, n)
    for c, g in zip(cert.cofactors, cert.generators):
        acc = acc + c * g
    return acc == MultiPoly.const(domain, n, 1)


def residue_pairs(cert):
    return [tuple({e: c.coeffs[0] for e, c in f.terms.items()} for f in pair)
            for pair in zip(cert.cofactors, cert.generators)]


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
def test_kronecker_agrees_with_expansion(p, n):
    rng = random.Random(f"kronecker:{p}:{n}")
    fld = FF(p)
    for trial in range(4):
        cert = seeded_certificate(fld, n, rng)
        dense = kronecker.sum_is_one(residue_pairs(cert), n, p)
        assert dense is True
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
    assert kronecker.sum_is_one(residue_pairs(cert), n, p) is True
    assert cert.verify() is True and expand_is_one(cert)

    narrow = kronecker.slot_bytes
    monkeypatch.setattr(kronecker, "slot_bytes", lambda b: narrow(b) - 1)
    with pytest.raises(OverflowError):
        cert.verify()


def test_residue_outside_its_slot_raises():
    # a coefficient that is not a residue cannot spill into its neighbour
    with pytest.raises(OverflowError):
        kronecker.sum_is_one([({(0,): 1, (1,): 1}, {(0,): 1000, (1,): 1})], 1, 3)


def residues(f):
    return {e: c.coeffs[0] for e, c in f.terms.items()}


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
        zz = residues(z)
        power = z ** e
        assert kronecker.power_is(zz, e, residues(power), n, p) is True
        # one coefficient of z^e moved, one dropped, one term added
        k = rng.choice(sorted(power.terms))
        moved = residues(power)
        moved[k] = (moved[k] + rng.randrange(1, p)) % p
        assert kronecker.power_is(zz, e, moved, n, p) is False
        dropped = residues(power)
        del dropped[k]
        assert kronecker.power_is(zz, e, dropped, n, p) is False
        extra = residues(power + MultiPoly.monomial(
            fld, n, tuple(rng.randrange(e + 1) for _ in range(n)), 1))
        assert kronecker.power_is(zz, e, extra, n, p) is False


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
    h = residues(z ** p)
    assert kronecker.power_is(residues(z), p, h, n, p) is True

    narrow = kronecker.slot_bytes
    monkeypatch.setattr(kronecker, "slot_bytes", lambda b: narrow(b) - 1)
    with pytest.raises(OverflowError):
        kronecker.power_is(residues(z), p, h, n, p)


def test_power_routes_sparse_inputs_to_the_expansion():
    # z = 1 + x^9 + y^9 over F_3: 3 terms, z^3 has 28^2 slots > 3^2
    z = {(0, 0): 1, (9, 0): 1, (0, 9): 1}
    h = {(0, 0): 1, (27, 0): 1, (0, 27): 1}
    assert kronecker.power_is(z, 3, h, 2, 3) is None
    # z = 1 + x + x^2: 3 * 2 + 1 = 7 slots <= 9
    assert kronecker.power_is({(0,): 1, (1,): 1, (2,): 1}, 3,
                              {(0,): 1, (3,): 1, (6,): 1}, 1, 3) is True


def test_power_rejects_a_term_outside_the_layout():
    # (1 + x)^3 = 1 + x^3 over F_3; x^7 would land on slot 0 of the next
    # variable, so it must be refused before packing, not aliased
    z = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    h = residues(MultiPoly(FF(3), 2, {e: FF(3).elem(c) for e, c in z.items()}) ** 3)
    assert kronecker.power_is(z, 3, h, 2, 3) is True
    assert kronecker.power_is(z, 3, {**h, (4, 0): 1}, 2, 3) is False
    assert kronecker.power_is(z, 3, {**h, (0, 4): 2}, 2, 3) is False


def _no_kronecker(*args):
    raise AssertionError("the Kronecker path was taken")


def test_desing_certificates_take_the_expansion_path():
    report = desingularize(5, 2)
    certs = [ch.smooth_certificate for step in report.steps for ch in step
             if ch.smooth_certificate is not None]
    assert certs
    for cert in certs:
        n, p = cert.generators[0].n, cert.generators[0].domain.p
        assert kronecker.sum_is_one(residue_pairs(cert), n, p) is None
        assert cert.verify() is True and expand_is_one(cert)


@pytest.mark.parametrize("domain", [FF(3, 2), RatFuncField(FF(3))],
                         ids=["F9", "F3(t)"])
def test_other_domains_take_the_expansion_path(domain, monkeypatch):
    monkeypatch.setattr(groebner.kronecker, "sum_is_one", _no_kronecker)
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
