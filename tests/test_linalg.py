"""Exact linear algebra over F_5, F_{3^2} and k(t) = F_3(t).

Gauss-Jordan `det` is checked against the division-free `cofactor_det`,
`inverse` and `solve` against matrix products, and `rank_and_nullvector`
against the null-vector identity and, over F_p, sympy's rank over GF(p)
(skipped without sympy).
"""

import random

import pytest

from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.unipoly import UPoly, RatFunc, RatFuncField
from charpgeom.algebra.linalg import (
    det, solve, inverse, rank_and_nullvector, cofactor_det)


def _ff_entry(fld):
    return lambda rng: fld.from_index(rng.randrange(fld.order))


def _ratfunc_entry(fld):
    def entry(rng):
        num = UPoly(fld, [fld.from_index(rng.randrange(3)) for _ in range(2)])
        den = UPoly(fld, [fld.from_index(rng.randrange(3)), fld.one])
        return RatFunc(num, den)
    return entry


DOMAINS = {
    "F_5": (FF(5), _ff_entry(FF(5))),
    "F_3^2": (FF(3, 2), _ff_entry(FF(3, 2))),
    "F_3(t)": (RatFuncField(FF(3)), _ratfunc_entry(FF(3))),
}


def _matrix(rng, entry, nrows, ncols):
    rows = [[entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:
        # force a dependent row
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    return rows


def _mat_mul(a, b, domain):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), domain.zero)
             for j in range(len(b[0]))] for i in range(len(a))]


def _mat_vec(a, v, domain):
    return [sum((x * y for x, y in zip(row, v)), domain.zero) for row in a]


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_det_inverse_solve(name):
    domain, entry = DOMAINS[name]
    rng = random.Random(11)
    singular = regular = 0
    for _ in range(40):
        n = rng.randrange(1, 5)
        mat = _matrix(rng, entry, n, n)
        d = det(mat, domain)
        assert d == cofactor_det(mat)
        rhs = [entry(rng) for _ in range(n)]
        inv = inverse(mat, domain)
        x = solve(mat, rhs, domain)
        if not d:
            singular += 1
            assert inv is None and x is None
            continue
        regular += 1
        identity = [[domain.one if i == j else domain.zero for j in range(n)]
                    for i in range(n)]
        assert _mat_mul(mat, inv, domain) == identity
        assert _mat_vec(mat, x, domain) == rhs
    assert singular and regular


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_rank_and_nullvector(name):
    domain, entry = DOMAINS[name]
    rng = random.Random(12)
    deficient = 0
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = _matrix(rng, entry, nrows, ncols)
        rank, vec = rank_and_nullvector(rows, ncols, domain)
        assert rank <= min(nrows, ncols)
        if rank == ncols:
            assert vec is None
            continue
        deficient += 1
        assert any(vec)
        assert all(not v for v in _mat_vec(rows, vec, domain))
    assert deficient


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rank_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    fld = FF(p)
    gf = sympy.GF(p)
    rng = random.Random(p)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = _matrix(rng, _ff_entry(fld), nrows, ncols)
        rank, _ = rank_and_nullvector(rows, ncols, fld)
        dm = DomainMatrix([[gf(c.coeffs[0]) for c in row] for row in rows],
                          (nrows, ncols), gf)
        assert rank == dm.rank()
