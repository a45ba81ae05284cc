"""Finite field arithmetic: axioms, Frobenius roots, square roots, towers."""

import operator
import random

import pytest

from charpgeom.algebra import finitefield
from charpgeom.algebra.finitefield import (FF, FiniteField, _find_modulus,
                                            _prime_factors, pth_root)
from charpgeom.algebra.jets import Jet
from charpgeom.algebra.multipoly import MultiPoly
from charpgeom.algebra.unipoly import UPoly, RatFunc


SMALL_FIELDS = [(3, 1), (3, 2), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2),
                (11, 1), (13, 1), (13, 2)]


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_field_axioms_random(p, m):
    fld = FF(p, m)
    rng = random.Random(p * 100 + m)
    for _ in range(50):
        a = fld.from_index(rng.randrange(fld.order))
        b = fld.from_index(rng.randrange(fld.order))
        c = fld.from_index(rng.randrange(fld.order))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + fld.zero == a
        assert a * fld.one == a
        assert a - a == fld.zero
        if a != fld.zero:
            assert a * a.inverse() == fld.one


def test_p2_rejected():
    with pytest.raises(ValueError):
        FiniteField(2)
    with pytest.raises(ValueError):
        FiniteField(9)   # not prime


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_pth_root_exhaustive_or_random(p, m):
    # exhaustive for p^m <= 81, randomized beyond
    fld = FF(p, m)
    if fld.order <= 81:
        sample = list(fld.elements())
    else:
        rng = random.Random(1)
        sample = [fld.from_index(rng.randrange(fld.order)) for _ in range(60)]
    for a in sample:
        assert pth_root(a) ** p == a


def test_pth_root_prime_field_is_identity():
    fld = FF(7)
    for a in fld.elements():
        assert pth_root(a) == a


def test_pth_root_f9_is_cube():
    fld = FF(3, 2)
    for a in fld.elements():
        r = pth_root(a)
        assert r == a ** 3
        assert r ** 3 == a
    assert pth_root(fld.zero) == fld.zero
    assert pth_root(fld.one) == fld.one


def test_frobenius_is_field_automorphism():
    fld = FF(5, 2)
    rng = random.Random(3)
    for _ in range(40):
        a = fld.from_index(rng.randrange(fld.order))
        b = fld.from_index(rng.randrange(fld.order))
        assert (a + b) ** 5 == a ** 5 + b ** 5
        assert (a * b) ** 5 == a ** 5 * b ** 5
    # x^(p^m) = x
    for a in fld.elements():
        assert a ** 25 == a


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1),
                                 (13, 1), (13, 2)])
def test_sqrt_exhaustive(p, m):
    fld = FF(p, m)
    n_residues = 0
    for a in fld.elements():
        r = fld.sqrt(a)
        if r is None:
            assert not fld.is_square(a)
        else:
            assert r * r == a
            n_residues += 1
    # 0 plus (q-1)/2 nonzero squares
    assert n_residues == (fld.order - 1) // 2 + 1


def test_generator_order():
    for (p, m) in [(3, 2), (5, 1), (7, 1), (5, 2)]:
        fld = FF(p, m)
        g = fld.generator()
        seen = set()
        x = fld.one
        for _ in range(fld.order - 1):
            x = x * g
            seen.add(x.coeffs)
        assert len(seen) == fld.order - 1


def test_extension_embedding_is_homomorphism():
    for (p, m) in [(3, 1), (5, 1), (3, 2), (5, 2)]:
        fld = FF(p, m)
        big, embed = fld.extension(2)
        assert big.order == fld.order ** 2
        rng = random.Random(p + m)
        for _ in range(30):
            a = fld.from_index(rng.randrange(fld.order))
            b = fld.from_index(rng.randrange(fld.order))
            assert embed(a + b) == embed(a) + embed(b)
            assert embed(a * b) == embed(a) * embed(b)
        assert embed(fld.one) == big.one
        assert embed(fld.zero) == big.zero


@pytest.mark.parametrize("m", [1, 2, 3])
def test_extension_of_degree_one_is_the_field_itself(m):
    fld = FF(3, m)
    big, embed = fld.extension(1)
    assert big is fld
    assert all(embed(a) is a for a in fld.elements())


# the default moduli, as found by the scan that also tried a zero constant term
DEFAULT_MODULI = {
    (3, 2): (1, 0, 1), (3, 3): (1, 0, 2, 1), (3, 4): (1, 0, 1, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1), (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (5, 2): (1, 1, 1), (5, 3): (1, 0, 1, 1), (5, 4): (1, 0, 1, 1, 1),
    (5, 5): (1, 0, 0, 0, 4, 1), (5, 6): (1, 0, 0, 0, 1, 1, 1),
    (7, 2): (1, 0, 1), (7, 3): (1, 0, 1, 1), (7, 4): (1, 0, 0, 1, 1),
    (7, 5): (1, 0, 0, 0, 3, 1), (7, 6): (1, 0, 0, 0, 1, 0, 1),
    (11, 2): (1, 0, 1), (11, 3): (1, 0, 4, 1), (11, 4): (1, 0, 0, 4, 1),
    (11, 5): (1, 0, 0, 0, 2, 1), (11, 6): (1, 0, 0, 0, 1, 1, 1),
    (13, 2): (1, 3, 1), (13, 3): (1, 0, 4, 1), (13, 4): (1, 0, 0, 1, 1),
    (13, 5): (1, 0, 0, 0, 8, 1), (13, 6): (1, 0, 0, 0, 0, 1, 1),
    (257, 2): (1, 1, 1), (257, 3): (1, 0, 1, 1), (65537, 2): (1, 1, 1),
}


@pytest.mark.parametrize("p,m", sorted(DEFAULT_MODULI))
def test_default_moduli_are_pinned(p, m):
    assert _find_modulus(p, m) == DEFAULT_MODULI[p, m]


def test_large_extension_fields_build():
    # the scan starts at constant term 1, not after the p^(m-1) tails that
    # x divides, so these take milliseconds
    assert FF(65537, 3).modulus == (1, 0, 7, 1)
    assert FF(65537, 4).modulus == (1, 0, 0, 6, 1)


def test_too_large_extension_raises_before_building_it(monkeypatch):
    fld = FF(65537, 2)

    def refuse(p, m=1):
        raise AssertionError(f"FF({p}, {m}) was built")
    monkeypatch.setattr(finitefield, "FF", refuse)
    with pytest.raises(ValueError, match="too large to embed by scanning"):
        fld.extension(2)


def test_every_base_element_square_in_quadratic_extension():
    fld = FF(7)
    big, embed = fld.extension(2)
    for a in fld.elements():
        assert big.sqrt(embed(a)) is not None


def test_text_encoding_round_trip():
    fld = FF(5, 2)
    for a in fld.elements():
        text = fld.format_element(a)
        assert fld.parse_element(text) == a
    assert FF(7).format_element(FF(7).elem(4)) == "4"


def test_mixed_field_arithmetic_raises():
    a, b = FF(3).elem(2), FF(5).elem(4)
    for op in (lambda x, y: x + y, lambda x, y: x - y,
               lambda x, y: x * y, lambda x, y: x / y):
        with pytest.raises(ValueError):
            op(a, b)
        with pytest.raises(ValueError):
            op(b, a)
    with pytest.raises(ValueError):
        FF(3, 2).one + FF(3).one
    assert a != b and FF(3).one != FF(3, 2).one


def test_equal_fields_mix_freely():
    # a field built directly equals the cached one; their elements combine
    other = FiniteField(5)
    assert other is not FF(5) and other == FF(5)
    assert other.elem(3) + FF(5).elem(4) == FF(5).elem(2)
    assert other.elem(3) * FF(5).elem(4) == other.elem(2)


def test_prime_field_element_table():
    for p in (3, 7, 13):
        fld = FF(p)
        assert [c.coeffs for c in fld.prime_elements] == [(c,) for c in range(p)]
        assert fld.zero is fld.prime_elements[0] and fld.one is fld.prime_elements[1]
        assert fld.elem(-1) is fld.prime_elements[p - 1]
    assert FF(3, 2).prime_elements is None


@pytest.mark.parametrize("p,m", [(5, 1), (3, 2)])
def test_elements_defer_to_polynomial_operands(p, m):
    # c op f falls back to f's reflected method, as 2 op f does
    fld = FF(p, m)
    c = fld.elem(2) if m == 1 else fld.generator()
    u = UPoly(fld, [fld.one, c, fld.elem(3)])
    x, y = MultiPoly.variables(fld, 2)
    for f in (u, RatFunc(u, UPoly(fld, [c, fld.one])),
              x * y + MultiPoly.const(fld, 2, c) * x ** 2 + 1):
        assert c * f == f * c
        assert c + f == f + c
        assert c - f == -(f - c)
    assert c / RatFunc(u) == RatFunc(UPoly.const(fld, c), u)
    with pytest.raises(TypeError):
        c * Jet.from_poly(MultiPoly.var(fld, 2, 0), 3)
    with pytest.raises(TypeError):
        c + "1"


@pytest.mark.parametrize("p,m", [(5, 1), (3, 2)])
def test_reflected_operators_take_only_ints(p, m):
    # "x" - c and "x" / c used to reach field.elem and raise ValueError
    fld = FF(p, m)
    c = fld.elem(2) if m == 1 else fld.generator()
    for other in ("x", 1.5):
        for op in (operator.sub, operator.truediv):
            with pytest.raises(TypeError):
                op(other, c)
    assert 3 - c == fld.elem(3) - c and 3 - c + c == fld.elem(3)
    assert 3 / c == fld.elem(3) * c.inverse() and 3 / c * c == fld.elem(3)


def _first(fld, start, accept):
    """The first element from index `start` on that `accept` takes."""
    return next(c for c in map(fld.from_index, range(start, fld.order))
                if accept(c))


def _counting(monkeypatch, name, limit):
    """Record the arguments of each FiniteField.<name> call, and raise after
    `limit` calls, so a scan over a whole large field fails fast."""
    calls, original = [], getattr(FiniteField, name)

    def wrapper(self, *args):
        calls.append(args)
        if len(calls) > limit:
            raise RuntimeError(f"FiniteField.{name} called over {limit} times")
        return original(self, *args)
    monkeypatch.setattr(FiniteField, name, wrapper)
    return calls


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3), (5, 3), (3, 4),
                                 (257, 2)])
def test_scans_find_what_a_scan_from_one_finds(p, m):
    # generator() and the non-residue scan skip F_p when nothing in it can
    # qualify; the elements found are those of a scan of the whole field
    fld = FiniteField(p, m)
    n = fld.order - 1
    primes = set(_prime_factors(n))
    assert fld.generator() == _first(
        fld, 1, lambda g: all(g ** (n // l) != fld.one for l in primes))
    if fld.order % 4 == 1:          # only then does sqrt need a non-residue
        assert fld.sqrt(fld.one) ** 2 == fld.one
        assert fld._nonresidue == _first(fld, 1, lambda c: not fld.is_square(c))


def test_scans_of_a_large_quadratic_field_skip_the_prime_field(monkeypatch):
    fld = FiniteField(70001, 2)
    indices = _counting(monkeypatch, "from_index", 1000)
    g = fld.generator()
    assert min(k for k, in indices) >= fld.p
    squares = _counting(monkeypatch, "is_square", 1000)
    a = g ** 3
    assert fld.sqrt(a * a) ** 2 == a * a
    assert len(squares) < 10


def test_untabled_extension_elements_format_as_coefficient_vectors(monkeypatch):
    # an element of F_{70001^2} outside F_p used to start a log table of
    # 4.9e9 entries; the product count makes that fail fast
    from random import Random
    from charpgeom.cli import _random_nondegenerate
    from charpgeom.normalform import normal_form
    res = normal_form(_random_nondegenerate(FF(70001), 2, 4, Random(1)), 4)
    assert res.fld.order == 70001 ** 2
    fld = FiniteField(70001, 2)
    _counting(monkeypatch, "_mul", 100_000)
    assert fld.format_element(fld.elem((3, 5))) == "[3,5]"
    assert fld.format_element(fld.elem(7)) == "7"
    x = MultiPoly.var(fld, 2, 0)
    assert (x * fld.elem((0, 1)) + 7).format() == "[0,1]*x1 + 7"
    assert "[60235,50469]*x1" in repr(res.change.total)
    with pytest.raises(ValueError):
        fld.log_tables()
