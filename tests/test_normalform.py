"""Quadratic diagonalization and the formal normal-form certificate."""

import random

import pytest

from charpgeom.algebra import monomials
from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.multipoly import MultiPoly, det
from charpgeom.algebra.jets import Jet, jet_compose
from charpgeom.cli import _random_nondegenerate
from charpgeom.normalform import diagonalize_quadratic, normal_form


class TestDiagonalize:
    def test_identity_matrix(self):
        fld = FF(5)
        q = [[fld.one, fld.zero], [fld.zero, fld.one]]
        res = diagonalize_quadratic(q, fld)
        assert res.extension_degree == 1
        assert res.verify(q)

    def test_hyperbolic_plane_needs_f25(self):
        # Q = [[0,1],[1,0]] over F_5: diagonal entries 2, -2 are non-residues
        fld = FF(5)
        q = [[fld.zero, fld.one], [fld.one, fld.zero]]
        res = diagonalize_quadratic(q, fld)
        assert res.extension_degree == 2
        assert res.fld.order == 25
        assert res.verify(q)

    def test_diag_4_9_over_f11_no_extension(self):
        fld = FF(11)
        q = [[fld.elem(4), fld.zero], [fld.zero, fld.elem(9)]]
        res = diagonalize_quadratic(q, fld)
        assert res.extension_degree == 1
        assert res.verify(q)

    def test_singular_rejected(self):
        fld = FF(5)
        q = [[fld.one, fld.one], [fld.one, fld.one]]
        with pytest.raises(ValueError):
            diagonalize_quadratic(q, fld)

    def test_random_symmetric_nonsingular(self):
        for p in (3, 5, 7):
            fld = FF(p)
            rng = random.Random(p)
            for _ in range(20):
                n = rng.randrange(2, 4)
                mat = [[fld.from_index(rng.randrange(p)) for _ in range(n)]
                       for _ in range(n)]
                for i in range(n):
                    for j in range(i):
                        mat[i][j] = mat[j][i]
                if not det(mat, fld):
                    continue
                res = diagonalize_quadratic(mat, fld)
                assert res.verify(mat)
                assert res.extension_degree in (1, 2)


def _recompose_at_order(f, result, order):
    """Recompose with the returned change at a higher truncation order."""
    fld = result.fld
    n = f.n
    work = f if result.extension_degree == 1 else f.map_coefficients(
        fld, result.embed)
    total = [t.truncate(order) if order <= t.order else
             _extend_jet(t, order) for t in result.change.total]
    shifted = work - MultiPoly.const(fld, n, result.a0)
    return jet_compose(shifted, total, order)


def _extend_jet(jet, order):
    return Jet.from_poly(jet.to_poly(), order)


class TestNormalForm:
    def test_already_normal(self):
        fld = FF(5)
        x, y = MultiPoly.variables(fld, 2)
        res = normal_form(x ** 2 + y ** 2, 5)
        assert res.certificate == res.target
        assert res.a0 == fld.zero
        assert len([s for s in res.change.steps if s.kind == "correction"]) == 0

    def test_spec_cubic_correction(self):
        # f = x^2 + y^2 + x^2 y, r = 4: the step is y -> y - x^2/2 and the
        # residual at order 5 is -1/4 x^4
        fld = FF(5)
        x, y = MultiPoly.variables(fld, 2)
        f = x ** 2 + y ** 2 + x ** 2 * y
        res = normal_form(f, 4)
        corr = [s for s in res.change.steps if s.kind == "correction"]
        assert len(corr) == 1 and corr[0].degree == 3
        half = fld.elem(2).inverse()
        assert corr[0].jets == [
            Jet.from_poly(MultiPoly.var(fld, 2, 0), 4),
            Jet.from_poly(y + MultiPoly.monomial(fld, 2, (2, 0), -half), 4)]
        # recompose at order 5: residual is -1/4 x^4
        re5 = _recompose_at_order(f, res, 5)
        target5 = Jet.from_poly(x ** 2 + y ** 2, 5)
        quarter_neg = -(fld.elem(4).inverse())
        assert re5 - target5 == Jet.from_poly(
            MultiPoly.monomial(fld, 2, (4, 0), quarter_neg), 5)

    def test_constant_term_recorded(self):
        fld = FF(5)
        x, y = MultiPoly.variables(fld, 2)
        res = normal_form(x ** 2 + y ** 2 + 3, 4)
        assert res.a0 == fld.elem(3)
        assert res.certificate == res.target

    def test_rejects_degenerate_and_noncritical(self):
        fld = FF(5)
        x, y = MultiPoly.variables(fld, 2)
        with pytest.raises(ValueError):
            normal_form(x ** 3 + y ** 2, 4)          # degenerate Hessian
        with pytest.raises(ValueError):
            normal_form(x + x ** 2 + y ** 2, 4)      # not critical at 0

    def test_unipotence_of_correction_steps(self):
        # each degree-r' step leaves all jets of degree < r' unchanged
        fld = FF(7)
        rng = random.Random(1)
        f = _random_nondeg(fld, 2, 7, rng)
        res = normal_form(f, 7)
        for step in res.change.steps:
            if step.kind != "correction":
                continue
            for i, jet in enumerate(step.jets):
                low = jet.truncate(step.degree - 1)
                ident = Jet.from_poly(MultiPoly.var(res.fld, 2, i),
                                      step.degree - 1)
                assert low == ident

    def test_linear_part_is_diagonalization_matrix(self):
        fld = FF(3)
        rng = random.Random(5)
        f = _random_nondeg(fld, 3, 6, rng)
        res = normal_form(f, 6)
        assert res.change.linear_part() == res.change.steps[0].matrix

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_random_certificates_with_independent_recomposition(self, p):
        fld = FF(p)
        rng = random.Random(p * 13)
        for _ in range(12):
            n = rng.choice([2, 3])
            r = rng.randrange(4, 9)
            f = _random_nondeg(fld, n, r, rng)
            res = normal_form(f, r)
            work = f if res.extension_degree == 1 else f.map_coefficients(
                res.fld, res.embed)
            assert res.verify(work)
            assert res.certificate == res.target
            # naive oracle: full polynomial substitution then truncation
            total_polys = [t.to_poly() for t in res.change.total]
            shifted = work - MultiPoly.const(res.fld, n, res.a0)
            naive = Jet.from_poly(shifted.subs(total_polys), r)
            assert naive == res.target


def _random_nondeg(fld, n, r, rng):
    half = fld.elem(2).inverse()
    while True:
        mat = [[fld.from_index(rng.randrange(fld.order)) for _ in range(n)]
               for _ in range(n)]
        for i in range(n):
            for j in range(i):
                mat[i][j] = mat[j][i]
        if det(mat, fld):
            break
    f = MultiPoly(fld, n)
    for i in range(n):
        e = [0] * n
        e[i] = 2
        f = f + MultiPoly.monomial(fld, n, tuple(e), mat[i][i] * half)
    for i in range(n):
        for j in range(i + 1, n):
            e = [0] * n
            e[i] = 1
            e[j] = 1
            f = f + MultiPoly.monomial(fld, n, tuple(e), mat[i][j])
    for _ in range(rng.randrange(2, 10)):
        exps = tuple(rng.randrange(0, r) for _ in range(n))
        if 2 < sum(exps) < r:
            f = f + MultiPoly.monomial(fld, n, exps,
                                       rng.randrange(1, fld.p))
    return f


@pytest.mark.parametrize("p,r,seed,limit", [
    (7, 7, 1, 70),      # over F_7, four correction steps; 96 when the total
                        # was composed left to right
    (5, 6, 0, 54),      # over F_25; 72 left to right
])
def test_kernel_products_of_the_golden_normal_forms(p, r, seed, limit,
                                                    monkeypatch):
    # the inputs of the normalform-p7-r7 and normalform-p5-r6 goldens: the
    # composed map is substituted into the sparse correction steps, not each
    # step into the dense map
    calls = []
    for cls in (monomials.Ring, monomials.Residues, monomials.ZechLogs):
        def counted(self, a, b, bound, _mul=cls.__dict__["mul"]):
            calls.append(None)
            return _mul(self, a, b, bound)
        monkeypatch.setattr(cls, "mul", counted)
    f = _random_nondegenerate(FF(p), 2, r, random.Random(seed))
    calls.clear()
    normal_form(f, r)
    assert 0 < len(calls) <= limit
