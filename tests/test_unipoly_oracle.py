"""UPoly over prime fields against sympy's dense GF(p) arithmetic.

The prime-field path of UPoly computes on residue lists; these tests check
its product, divmod, gcd and squarefree decomposition against
`sympy.Poly(..., modulus=p)` on seeded polynomials up to degree ~60.
Extension fields have no sympy counterpart here; test_unipoly_kernels.py
compares every kernel's dense ops with the generic element Ring, and the
F_9 tests in test_unipoly.py cover UPoly over them.
"""

import random

import pytest

from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.unipoly import UPoly

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x")
PRIMES = (3, 5, 7)


def to_sympy(f, p):
    return sympy.Poly([c.coeffs[0] for c in reversed(f.coeffs)] or [0], X,
                      modulus=p)


def from_sympy(g, fld):
    return UPoly.from_ints(fld, [int(c) % fld.p for c in reversed(g.all_coeffs())])


def rand_poly(fld, deg, rng):
    """Degree exactly deg (deg = -1 gives 0)."""
    if deg < 0:
        return UPoly(fld)
    return UPoly.from_ints(fld, [rng.randrange(fld.p) for _ in range(deg)]
                           + [rng.randrange(1, fld.p)])


def pairs(p, seed, count=30):
    """Seeded (a, b) pairs: the zero and constant edge cases first, then
    random degrees up to 60 with a planted common factor in every third."""
    fld = FF(p)
    rng = random.Random(f"unipoly-oracle:{p}:{seed}")
    zero, one, c = UPoly(fld), UPoly.const(fld, 1), UPoly.const(fld, p - 1)
    f = rand_poly(fld, 7, rng)
    out = [(zero, zero), (zero, c), (c, zero), (zero, f), (f, zero),
           (one, f), (f, c), (c, one), (f, f)]
    for k in range(count):
        a = rand_poly(fld, rng.randrange(0, 61), rng)
        b = rand_poly(fld, rng.randrange(0, 41), rng)
        if k % 3 == 0:
            g = rand_poly(fld, rng.randrange(1, 11), rng)
            a, b = a * g, b * g
        out.append((a, b))
    return fld, out


@pytest.mark.parametrize("p", PRIMES)
def test_product_sum_difference_match_sympy(p):
    fld, cases = pairs(p, "ring")
    for a, b in cases:
        sa, sb = to_sympy(a, p), to_sympy(b, p)
        assert a * b == from_sympy(sa * sb, fld)
        assert a + b == from_sympy(sa + sb, fld)
        assert a - b == from_sympy(sa - sb, fld)


@pytest.mark.parametrize("p", PRIMES)
def test_divmod_matches_sympy(p):
    fld, cases = pairs(p, "divmod")
    for a, b in cases:
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.divmod(b)
            continue
        q, r = a.divmod(b)
        sq, sr = to_sympy(a, p).div(to_sympy(b, p))
        assert (q, r) == (from_sympy(sq, fld), from_sympy(sr, fld))


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_matches_sympy(p):
    fld, cases = pairs(p, "gcd")
    for a, b in cases:
        g = a.gcd(b)
        want = to_sympy(a, p).gcd(to_sympy(b, p))
        if not want.is_zero:
            want = want.monic()
        assert g == from_sympy(want, fld), (a, b)
        assert g.is_zero() or g.leading() == fld.one


@pytest.mark.parametrize("p", PRIMES)
def test_squarefree_decomposition_matches_sympy(p):
    fld = FF(p)
    rng = random.Random(f"unipoly-oracle:{p}:sqf")
    cases = [UPoly.const(fld, 2)]
    for _ in range(12):
        f = rand_poly(fld, 0, rng)
        for mult in rng.sample((1, 2, p, p + 1, 2 * p), 3):
            f = f * rand_poly(fld, rng.randrange(1, 5), rng) ** mult
        cases.append(f)
    cases += [rand_poly(fld, rng.randrange(20, 61), rng) for _ in range(6)]
    for f in cases:
        lc, parts = f.squarefree_decomposition()
        slc, sparts = to_sympy(f, p).sqf_list()
        assert lc == fld.elem(int(slc))
        assert parts == {m: from_sympy(g, fld) for g, m in sparts}
