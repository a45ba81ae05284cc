"""UPoly's dense ops in the code kernels against the generic element Ring.

`monomials.ring(field, 1)` gives UPoly its kernel: `Residues` over F_p,
whose dense ops are `finitefield`'s Kronecker products and byte tables, and
`ZechLogs` over F_{p^m}, which runs the generic ops of `Ring` on log codes.
Each op is compared, after decoding, with `monomials.Ring` on the same
field's elements, on seeded cases and on the edges: zero, units, all-(-1)
operands, a divisor longer than the dividend, sums that cancel to zero and
gcds with zero.  Every result is also checked by evaluation at points of
the field, with Horner on elements, so the check does not rest on the
generic product that both sides of an extension field share.  The kernels'
`root` is compared with `finitefield.pth_root`.  No sympy.
"""

import random

import pytest

from charpgeom.algebra import monomials
from charpgeom.algebra.finitefield import FF, FiniteField, pth_root
from charpgeom.algebra.unipoly import RatFunc, UPoly, ratfunc_pth_root

FIELDS = [(3, 1), (5, 1), (7, 1), (257, 1), (65521, 1), (3, 2), (5, 2), (3, 3)]


def value(elems, x):
    acc = x.field.zero
    for c in reversed(elems):
        acc = acc * x + c
    return acc


def cases(fld, rng):
    """(a, b) element lists, no trailing zero: the edges, then random."""
    def rand(n):
        return [fld.from_index(rng.randrange(fld.order)) for _ in range(n - 1)] \
            + [fld.from_index(rng.randrange(1, fld.order))] if n else []
    one, minus = fld.one, fld.elem(-1)
    tops = [minus] * 9
    f = rand(6)
    out = [([], []), ([], f), (f, []), ([one], f), (f, [one]), ([minus], f),
           (tops, tops), (tops, [minus] * 4), (rand(3), rand(8)), (f, f),
           (f, [-c for c in f]), ([minus] * 70, [minus] * 75)]
    out += [(rand(rng.randrange(0, 25)), rand(rng.randrange(0, 12)))
            for _ in range(25)]
    return out


@pytest.mark.parametrize("p, m", FIELDS, ids=[str(p ** m) for p, m in FIELDS])
def test_dense_ops_match_the_generic_ring(p, m):
    fld = FF(p, m)
    codes, ref = monomials.ring(fld, 1), monomials.Ring(fld, 1)
    assert type(codes) is (monomials.Residues if m == 1 else monomials.ZechLogs)
    enc = lambda a: [codes.coeff(c) for c in a]
    dec = lambda a: [codes.element(c) for c in a]
    rng = random.Random(f"dense:{p}^{m}")
    points = [fld.zero, fld.one, fld.elem(-1)] + [
        fld.from_index(rng.randrange(fld.order)) for _ in range(3)]

    for a, b in cases(fld, rng):
        ca, cb = enc(a), enc(b)
        for name, want in (("dense_add", lambda x: value(a, x) + value(b, x)),
                           ("dense_sub", lambda x: value(a, x) - value(b, x)),
                           ("dense_mul", lambda x: value(a, x) * value(b, x))):
            got = dec(getattr(codes, name)(ca, cb))
            assert got == getattr(ref, name)(a, b), name
            assert not got or got[-1], name          # trimmed
            assert all(value(got, x) == want(x) for x in points), name
        if b:
            q, r = codes.dense_divmod(ca, cb)
            q, r = dec(q), dec(r)
            assert (q, r) == tuple(ref.dense_divmod(a, b))
            assert len(r) < len(b) and (not r or r[-1]) and (not q or q[-1])
            assert all(value(a, x) == value(q, x) * value(b, x) + value(r, x)
                       for x in points)
        g = dec(codes.dense_gcd(ca, cb))
        assert g == ref.dense_gcd(a, b)
        assert (g[-1] == fld.one) if a or b else g == []
        for x in points:
            assert codes.element(codes.horner(ca, codes.coeff(x))) \
                == ref.horner(a, x) == value(a, x)

    # column linear combinations: units, -1, zero weights, ragged widths
    polys = [a for a, _ in cases(fld, rng)][:8]
    weights = [fld.one, fld.elem(-1), fld.zero] + [
        fld.from_index(rng.randrange(fld.order)) for _ in polys[3:]]
    got = dec(codes.dense_lincomb(enc(weights), [enc(f) for f in polys]))
    assert got == ref.dense_lincomb(weights, polys)
    assert not got or got[-1]
    assert all(value(got, x) == sum((w * value(f, x) for w, f in zip(weights, polys)),
                                    fld.zero) for x in points)
    tops = [fld.elem(-1)] * 7
    assert codes.dense_lincomb(enc([fld.one, fld.one]), [enc(tops), enc([fld.one] * 7)]) == []
    assert codes.dense_lincomb([], []) == ref.dense_lincomb([], []) == []


ROOT_FIELDS = [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4),
               (3, 11), (65537, 1)]


@pytest.mark.parametrize("p, m", ROOT_FIELDS, ids=[f"{p}^{m}" for p, m in ROOT_FIELDS])
def test_kernel_root_is_pth_root(p, m):
    fld = FF(p, m)
    ring = monomials.ring(fld, 1)
    tabled = fld.order <= monomials.PRIME_TABLE_MAX
    kinds = {1: monomials.Residues, 2: monomials.ZechLogs}
    assert type(ring) is (kinds[min(m, 2)] if tabled else monomials.Ring)
    rng = random.Random(f"root:{p}^{m}")
    elems = [fld.zero, fld.one] + [fld.from_index(rng.randrange(fld.order))
                                   for _ in range(200)]
    for a in elems:
        assert ring.element(ring.root(ring.coeff(a))) == pth_root(a)


def test_ratfunc_pth_root_makes_no_element_products(monkeypatch):
    fld = FF(3, 2)
    rng = random.Random("ratfunc-root")
    rand = lambda n: UPoly(fld, [fld.from_index(rng.randrange(9))
                                 for _ in range(n)] + [fld.one])
    a = RatFunc(rand(39), rand(10))
    calls = []
    original = FiniteField._mul
    monkeypatch.setattr(FiniteField, "_mul",
                        lambda self, x, y: calls.append(1) or original(self, x, y))
    root = ratfunc_pth_root(a)
    assert not calls
    monkeypatch.undo()
    assert root ** 3 == a.inflate(3)
