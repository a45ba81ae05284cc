"""Laws of F_{p^m} and of UPoly over it, as property tests.

Skipped without hypothesis.  Over F_9, F_25 and F_27: the field axioms,
Frobenius additive and multiplicative with `pth_root` its inverse, UPoly
division a = q*b + r with deg r < deg b, and a gcd that divides both inputs.
"""

import pytest

from charpgeom.algebra.finitefield import FF, pth_root
from charpgeom.algebra.unipoly import UPoly

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FIELDS = [FF(3, 2), FF(5, 2), FF(3, 3)]
IDS = ["F9", "F25", "F27"]


def elements(fld):
    return st.integers(0, fld.order - 1).map(fld.from_index)


def upolys(fld, max_deg=12):
    return st.lists(elements(fld), max_size=max_deg + 1).map(
        lambda cs: UPoly(fld, cs))


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_field_axioms(fld):
    @settings(max_examples=150, deadline=None)
    @given(elements(fld), elements(fld), elements(fld))
    def check(a, b, c):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + fld.zero == a and a * fld.one == a
        assert a + (-a) == fld.zero and a - b == a + (-b)
        if a:
            assert a * a.inverse() == fld.one and (b / a) * a == b
    check()


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_frobenius_and_pth_root(fld):
    @settings(max_examples=150, deadline=None)
    @given(elements(fld), elements(fld))
    def check(a, b):
        frob = fld.frobenius
        assert frob(a + b) == frob(a) + frob(b)
        assert frob(a * b) == frob(a) * frob(b)
        assert pth_root(frob(a)) == a and frob(pth_root(a)) == a
    check()


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_divmod_identity(fld):
    @settings(max_examples=100, deadline=None)
    @given(upolys(fld), upolys(fld))
    def check(a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.divmod(b)
            return
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree() < b.degree()
    check()


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_gcd_divides_both(fld):
    @settings(max_examples=100, deadline=None)
    @given(upolys(fld, 8), upolys(fld, 8), upolys(fld, 4))
    def check(a, b, common):
        # a shared factor makes nontrivial gcds common
        a, b = a * common, b * common
        g = a.gcd(b)
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            return
        assert g.leading() == fld.one
        assert (a % g).is_zero() and (b % g).is_zero()
        if not common.is_zero():
            assert (g % common.monic()).is_zero()
    check()
