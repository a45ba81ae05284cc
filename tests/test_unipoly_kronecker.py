"""The dense F_p routines of `finitefield` against the frozen schoolbook.

`_pmul` is one Kronecker big-int product on w-byte slots, and `_padd` /
`_psub` run on byte tables for p < 128.  These tests compare them with the
schoolbook routines they replaced (`tests_support_unipoly_reference`) on
seeded inputs, check the slot widths at their edges with every coefficient
p-1 (the first edge, and the 2-, 4- and 8-byte `array` slots), and pin the
residue storage of `UPoly` over tabled prime fields: the `coeffs` view, the
constructors, equality and hashing.
"""

import random

import pytest

import tests_support_unipoly_reference as reference
from charpgeom.algebra import finitefield
from charpgeom.algebra.finitefield import FF, FiniteField
from charpgeom.algebra.unipoly import UPoly

PRIMES = (3, 5, 7, 13, 251, 257, 65521)


def residues(rng, p, length):
    """length residues mod p with a nonzero top (no trailing zero)."""
    if length == 0:
        return []
    return [rng.randrange(p) for _ in range(length - 1)] + [rng.randrange(1, p)]


def shapes(rng):
    """(#a, #b): every short pair, then random lengths up to ~300 and
    lopsided ones."""
    out = [(i, j) for i in range(0, 5) for j in range(0, 5)]
    out += [(rng.randrange(1, 301), rng.randrange(1, 301)) for _ in range(12)]
    out += [(8, 600), (600, 8), (1, 300), (300, 1), (2, 257)]
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_product_matches_schoolbook(p):
    rng = random.Random(f"pmul:{p}")
    for la, lb in shapes(rng):
        a, b = residues(rng, p, la), residues(rng, p, lb)
        assert finitefield._pmul(a, b, p) == reference.pmul(a, b, p), (la, lb)
        # the unit and its multiples, on either side
        for c in (1, p - 1):
            assert finitefield._pmul([c], b, p) == reference.pmul([c], b, p)
            assert finitefield._pmul(b, [c], p) == reference.pmul(b, [c], p)


@pytest.mark.parametrize("p", PRIMES)
def test_sum_and_difference_match_schoolbook(p):
    rng = random.Random(f"padd:{p}")
    for la, lb in shapes(rng):
        a, b = residues(rng, p, la), residues(rng, p, lb)
        assert finitefield._padd(a, b, p) == reference.padd(a, b, p)
        assert finitefield._psub(a, b, p) == reference.psub(a, b, p)
        assert finitefield._psub(a, a, p) == []
        top = [p - 1] * la
        assert finitefield._padd(top, top, p) == reference.padd(top, top, p)


def edge_lengths(p):
    """The shorter lengths on either side of the first width edge: with all
    coefficients p-1, min(#a, #b) * (p-1)^2 is the largest bound that fits
    w bytes, then the first that needs w + 1."""
    sq = (p - 1) ** 2
    w = finitefield._slot_bytes(sq)
    fits = (256 ** w - 1) // sq
    return fits, fits + 1


@pytest.mark.parametrize("p", PRIMES)
def test_slot_width_at_its_edge(p, monkeypatch):
    fits, over = edge_lengths(p)
    if p == 3:
        assert (fits, over) == (63, 64)       # bounds 252 and 256
    sq = (p - 1) ** 2
    w = finitefield._slot_bytes(fits * sq)
    assert fits * sq < 256 ** w <= over * sq
    assert finitefield._slot_bytes(over * sq) == w + 1
    cases = []
    for short in (fits, over):
        a = [p - 1] * short
        b = [p - 1] * (short + 5)
        # the middle coefficients really collect `short` products of
        # (p-1)^2: the slot needs every byte of its width
        assert finitefield._pmul(a, b, p) == reference.pmul(a, b, p)
        assert finitefield._pmul(b, a, p) == reference.pmul(b, a, p)
        cases.append((a, b))

    # one byte narrower: the product raises instead of wrapping
    narrow = finitefield._slot_bytes
    monkeypatch.setattr(finitefield, "_slot_bytes", lambda bound: narrow(bound) - 1)
    for a, b in cases:
        with pytest.raises(OverflowError):
            finitefield._pmul(a, b, p)


def array_edges():
    """(p, bytes, short length) for p in 3, 257, 65521: the largest
    shorter length whose all-(p-1) bound fits slots of that many bytes,
    then the first that needs wider ones, where both are small enough to
    build.  Between them they reach the 2-, 4- and 8-byte arrays."""
    out = []
    for p in (3, 257, 65521):
        sq = (p - 1) ** 2
        for below in (1, 2, 4):
            fits = (256 ** below - 1) // sq
            if 1 <= fits < 70000:
                out += [(p, below, fits), (p, below, fits + 1)]
    return out


@pytest.mark.parametrize("p,below,short", array_edges())
def test_array_slots_at_their_edges(p, below, short, monkeypatch):
    """With every coefficient p-1 = -1, coefficient k of the product is
    the number of index pairs summing to k, mod p."""
    sq = (p - 1) ** 2
    need = finitefield._slot_bytes(short * sq)
    assert (need <= below) == (short == (256 ** below - 1) // sq)
    widths = []
    real = finitefield.array

    def array(code, init=()):
        widths.append(real(code).itemsize)
        return real(code, init)
    monkeypatch.setattr(finitefield, "array", array)
    la, lb = short, short + 3
    expected = [min(k + 1, la, lb, la + lb - 1 - k) % p for k in range(la + lb - 1)]
    a, b = [p - 1] * la, [p - 1] * lb
    assert finitefield._pmul(a, b, p) == expected
    assert finitefield._pmul(b, a, p) == expected
    # one width per product, the least of 2, 4, 8 that holds the slot
    assert set(widths) == ({min(k for k in (2, 4, 8) if k >= need)}
                           if need > 1 else set())


def test_slots_above_eight_bytes_take_the_byte_path():
    """p = 2^31 - 1: four all-(p-1) terms fit 8-byte slots, five need 9."""
    p = 2 ** 31 - 1
    assert finitefield._slot_bytes(4 * (p - 1) ** 2) == 8
    assert finitefield._slot_bytes(5 * (p - 1) ** 2) == 9
    rng = random.Random("wide")
    for short in (4, 5):
        for a in ([p - 1] * short, residues(rng, p, short)):
            b = [p - 1] * (short + 2)
            assert finitefield._pmul(a, b, p) == reference.pmul(a, b, p)
            assert finitefield._pmul(b, a, p) == reference.pmul(b, a, p)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (13, 2)])
def test_modulus_search_is_unchanged(p, m, monkeypatch):
    """The search for the default modulus multiplies with `_pmul`; it
    finds the same first irreducible with the schoolbook product."""
    found = finitefield._find_modulus(p, m)
    monkeypatch.setattr(finitefield, "_pmul", reference.pmul)
    assert finitefield._find_modulus(p, m) == found


# -- UPoly on stored residues ---------------------------------------------------

FIELDS = (3, 5, 65521)


@pytest.mark.parametrize("p", FIELDS)
def test_coeffs_view_holds_the_table_objects(p):
    fld = FF(p)
    rng = random.Random(f"view:{p}")
    for length in (0, 1, 2, 17, 90):
        ints = residues(rng, p, length)
        f = UPoly.from_ints(fld, ints)
        assert len(f.coeffs) == length
        for c, r in zip(f.coeffs, ints):
            assert c is fld.prime_elements[r]
        products = (f * f).coeffs + (f + f).coeffs + f.monic().coeffs
        assert all(c is fld.prime_elements[c.coeffs[0]] for c in products)
        with pytest.raises(AttributeError):
            f.coeffs = ()


@pytest.mark.parametrize("p", FIELDS)
def test_constructors_equality_and_hash_agree(p):
    fld = FF(p)
    rng = random.Random(f"ctor:{p}")
    for length in (0, 1, 5, 40):
        ints = residues(rng, p, length)
        by_ints = UPoly.from_ints(fld, ints + [0, 0])
        by_elems = UPoly(fld, [fld.elem(c) for c in ints] + [fld.zero])
        shifted = UPoly.from_ints(fld, [c + p for c in ints])
        assert by_ints == by_elems == shifted
        assert hash(by_ints) == hash(by_elems) == hash(shifted)
        # a second copy of the field: equal, with its own element table
        twin = FiniteField(p)
        copy = UPoly(twin, [twin.elem(c) for c in ints])
        assert copy == by_ints and hash(copy) == hash(by_ints)
        assert all(c is twin.prime_elements[c.coeffs[0]] for c in copy.coeffs)
        assert by_ints.degree() == length - 1
        if length:
            assert by_ints != by_ints + 1
            assert by_ints.leading() is fld.prime_elements[ints[-1]]


@pytest.mark.parametrize("p", FIELDS)
def test_mixed_fields_still_raise(p):
    fld, other = FF(p), FF(7)
    a = UPoly.from_ints(fld, [1, 2, 1])
    b = UPoly.from_ints(other, [1, 1])
    with pytest.raises(ValueError):
        UPoly(fld, [fld.one, other.one])
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
               lambda x, y: x.divmod(y), lambda x, y: x.gcd(y)):
        with pytest.raises(ValueError):
            op(a, b)
        with pytest.raises(ValueError):
            op(b, a)


@pytest.mark.parametrize("p", FIELDS)
def test_residue_operations_match_element_arithmetic(p):
    fld = FF(p)
    rng = random.Random(f"ops:{p}")
    f = UPoly.from_ints(fld, residues(rng, p, 12))
    x = fld.elem(rng.randrange(p))
    want = fld.zero
    for c in reversed(f.coeffs):
        want = want * x + c
    assert f.evaluate(x) == want
    assert f.evaluate(int(x.coeffs[0])) == want
    c = fld.elem(rng.randrange(1, p))
    assert f.scale(c).coeffs == tuple(c * a for a in f.coeffs)
    assert f.scale(0).is_zero()
    assert -f == UPoly(fld) - f and (-f + f).is_zero()
    assert f.derivative().coeffs == UPoly(
        fld, [a * (i % p) for i, a in enumerate(f.coeffs)][1:]).coeffs
    g = f.inflate(3)
    assert g.degree() == 3 * f.degree()
    assert [g[3 * i] for i in range(f.degree() + 1)] == list(f.coeffs)
    assert f.inflate(p).pth_root_poly() == f
    assert f.format() == UPoly(fld, f.coeffs).format()
