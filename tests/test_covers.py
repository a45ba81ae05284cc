"""Covering data: gluing, differentials, singular loci, Frobenius, lifting."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest

import tests_support_powers_reference as reference
from charpgeom.algebra.finitefield import FF, FFElement, pth_root
from charpgeom.algebra.unipoly import UPoly, RatFunc, RatFuncField
from charpgeom.algebra.linalg import cofactor_det, det
from charpgeom.algebra.multipoly import MultiPoly, hessian_matrix
from charpgeom import covers, heights


class TestBuildCover:
    def test_affine_chart_sum_of_squares(self):
        fld = FF(3)
        x, y = MultiPoly.variables(fld, 2)
        cov = covers.build_cover(
            [covers.CoverChart(0, ("x", "y"), x ** 2 + y ** 2)], 3)
        assert cov.p == 3 and len(cov.charts) == 1

    def test_p1_cover_with_cocycle(self):
        # s = x0^(p-1) x1 on P^1 with L = O(1): f0 = u, f1 = v^(p-1),
        # glued by g01 = (x1/x0)^1 with f0 = g01^p f1 on the overlap
        for p in (3, 5):
            fld = FF(p)
            form = MultiPoly.monomial(fld, 2, (p - 1, 1), 1)
            cov = covers.cover_of_projective_space(1, 1, 1, p, form)
            assert cov.charts[0].f == MultiPoly.var(fld, 1, 0)
            assert cov.charts[1].f == MultiPoly.var(fld, 1, 0, p - 1)
            assert covers.verify_cocycle(cov) == []

    def test_pth_power_rejected_with_witness(self):
        fld = FF(5)
        x = MultiPoly.var(fld, 2, 0)
        with pytest.raises(covers.NonReducedCover) as exc:
            covers.build_cover([covers.CoverChart(0, ("x", "y"), x ** 5)], 5)
        assert exc.value.root == x

    def test_pth_power_with_coefficients_rejected(self):
        fld = FF(3, 2)
        a = fld.generator()
        x = MultiPoly.var(fld, 1, 0)
        f = MultiPoly.const(fld, 1, a) * x ** 3     # (a^(1/3) x)^3
        with pytest.raises(covers.NonReducedCover):
            covers.build_cover([covers.CoverChart(0, ("x",), f)], 3)

    def test_char_mismatch_rejected(self):
        fld = FF(7)
        x = MultiPoly.var(fld, 1, 0)
        with pytest.raises(ValueError):
            covers.build_cover([covers.CoverChart(0, ("x",), x)], 3)

    def test_bad_cocycle_detected(self):
        fld = FF(3)
        form = MultiPoly.monomial(fld, 2, (2, 1), 1)
        cov = covers.cover_of_projective_space(1, 1, 1, 3, form)
        # corrupt one transition's cocycle entry
        g, cmap = cov.charts[0].transitions[1]
        from charpgeom.algebra.multipoly import RatExpr
        cov.charts[0].transitions[1] = (g * RatExpr(MultiPoly.var(fld, 1, 0)),
                                        cmap)
        assert covers.verify_cocycle(cov) == [(0, 1)]


class TestDifferential:
    def test_simple_gradients(self):
        fld = FF(3)
        x, y = MultiPoly.variables(fld, 2)
        cov = covers.build_cover(
            [covers.CoverChart(0, ("x", "y"), x ** 2 + y ** 2)], 3)
        rep = covers.differential_of_section(cov)
        assert rep["differentials"][0] == [x * 2, y * 2]

    def test_pth_power_part_differentiates_away(self):
        fld = FF(3)
        x = MultiPoly.var(fld, 2, 0)
        f = x ** 3 + x
        assert f.gradient()[0] == MultiPoly.const(fld, 2, 1)

    def test_p1_overlap_transformation(self):
        # d(f0) = du transforms to -v^(-2) dv, and g01^p d(f1) equals it
        for p in (3, 5, 7):
            fld = FF(p)
            form = MultiPoly.monomial(fld, 2, (p - 1, 1), 1)
            cov = covers.cover_of_projective_space(1, 1, 1, p, form)
            rep = covers.differential_of_section(cov)
            assert rep["overlaps_checked"] == 2

    def test_p2_cover_differential_compatibility(self):
        fld = FF(3)
        rng = random.Random(4)
        for _ in range(3):
            form = covers.random_homogeneous_form(fld, 3, 3, rng)
            try:
                cov = covers.cover_of_projective_space(2, 1, 1, 3, form)
            except covers.NonReducedCover:
                continue
            rep = covers.differential_of_section(cov)
            assert rep["overlaps_checked"] == 6


class TestSingularPoints:
    def test_sum_of_squares_origin(self):
        fld = FF(3)
        x, y = MultiPoly.variables(fld, 2)
        cov = covers.build_cover(
            [covers.CoverChart(0, ("x", "y"), x ** 2 + y ** 2)], 3)
        recs = covers.singular_points(cov, ext=1)
        comp = covers.gradient_completeness(cov, recs)
        assert len(recs) == 1
        assert all(c == fld.zero for c in recs[0].point)
        assert not recs[0].degenerate
        assert comp[0]["status"] == "complete"

    def test_linear_section_no_singularities(self):
        fld = FF(3)
        x = MultiPoly.var(fld, 2, 0)
        cov = covers.build_cover([covers.CoverChart(0, ("x", "y"), x)], 3)
        recs = covers.singular_points(cov, ext=1)
        comp = covers.gradient_completeness(cov, recs)
        assert recs == []
        assert comp[0]["status"] == "empty"

    def test_cube_is_degenerate(self):
        fld = FF(5)
        cov = covers.build_cover(
            [covers.CoverChart(0, ("x",), MultiPoly.var(fld, 1, 0, 3))], 5)
        recs = covers.singular_points(cov, ext=1)
        assert len(recs) == 1 and recs[0].degenerate

    def test_brute_force_cross_check(self):
        # singular_points output = the exact zero set of the gradient over
        # the search field (independent loop, different code path)
        fld = FF(3)
        rng = random.Random(7)
        for ext in (1, 2):
            search, embed = fld.extension(ext)
            for _ in range(4):
                terms = {}
                for _ in range(6):
                    e = (rng.randrange(4), rng.randrange(4))
                    c = rng.randrange(1, 3)
                    terms[e] = fld.elem(c)
                f = MultiPoly(fld, 2, terms)
                if f.is_zero():
                    continue
                cov = covers.Cover(
                    charts=[covers.CoverChart(0, ("x", "y"), f)], p=3)
                recs = covers.singular_points(cov, ext=ext)
                got = {tuple(c.coeffs for c in r.point) for r in recs}
                grads = f.map_coefficients(search, embed).gradient()
                want = set()
                for ij in itertools.product(range(search.order), repeat=2):
                    pt = (search.from_index(ij[0]), search.from_index(ij[1]))
                    if all(g.evaluate(pt) == search.zero for g in grads):
                        want.add(tuple(c.coeffs for c in pt))
                assert got == want

    def test_incomplete_when_solutions_escape(self):
        # gradient zeros in F_9 but not F_3: x^2 = -1 has no F_3 root
        fld = FF(3)
        x, y = MultiPoly.variables(fld, 2)
        # f with f_x = x^3 + x (roots 0, +-i), f_y = y
        f = MultiPoly(fld, 2, {(4, 0): fld.elem(1), (2, 0): fld.elem(2),
                               (0, 2): fld.elem(2)})
        cov = covers.Cover(charts=[covers.CoverChart(0, ("x", "y"), f)], p=3)
        recs1 = covers.singular_points(cov, ext=1)
        recs2 = covers.singular_points(cov, ext=2)
        assert covers.gradient_completeness(cov, recs1)[0]["status"] == "incomplete"
        assert len(recs2) > len(recs1)
        assert covers.gradient_completeness(cov, recs2)[0]["status"] in (
            "complete", "incomplete")


class TestGenericity:
    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            covers.genericity_sample(1, 1, 1, 1, FF(3), trials=1)

    def test_square_section_good_cube_bad(self):
        fld = FF(7)
        x = MultiPoly.var(fld, 1, 0)
        assert covers.classify_section([x ** 2])[0] == "good"
        assert covers.classify_section([x ** 3])[0] == "bad"

    def test_five_derivatives_per_two_variable_chart(self, monkeypatch):
        # the Hessian's three second partials come from the gradient the
        # generators already hold, not from a second gradient
        fld = FF(7)
        x, y = MultiPoly.variables(fld, 2)
        charts = [x ** 2 + y ** 3 + 1, x * y + y ** 2 + 3 * x ** 3]
        expected = covers.classify_section(charts)
        calls = []
        derivative = MultiPoly.derivative
        monkeypatch.setattr(MultiPoly, "derivative",
                            lambda f, i: calls.append(i) or derivative(f, i))
        assert covers.classify_section(charts) == expected
        assert len(calls) == 5 * len(charts)

    def test_census_raises_on_an_exhausted_budget(self, monkeypatch):
        # an exhausted pair budget is the "unknown" verdict, neither good
        # nor bad, so the census cannot count it
        monkeypatch.setattr(covers, "MAX_PAIRS", 0)
        fld = FF(5)
        x = MultiPoly.var(fld, 1, 0)
        assert covers.classify_section([x ** 3 + x])[0] == "unknown"
        with pytest.raises(RuntimeError, match="pair budget"):
            covers.monic_univariate_census(fld)

    def test_fraction_exact_classification(self):
        fld = FF(7)
        rep = covers.genericity_sample(1, 1, 1, 3, fld, trials=30, seed=1)
        assert rep.good + rep.bad + rep.unknown == 30
        assert rep.unknown == 0
        # every reported failure re-verifies as bad by an independent
        # brute-force search over F_q, F_{q^2}, F_{q^3}
        for fail in rep.failures:
            assert _has_degenerate_point_somewhere(fail["form"], fld)

    @pytest.mark.parametrize("fld", [FF(3), FF(7), FF(3, 2), RatFuncField(FF(3)),
                                     FF(70001)],
                             ids=["F3", "F7", "F9", "F3(t)", "F70001"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symbolic_hessian_det_is_the_cofactor_det(self, fld, n):
        # classify_section's det Hess f, cofactor_det(hessian_matrix(f)), on
        # zero entries (f linear, or sum c_i x_i^(i+2)) and on a determinant
        # that is zero by cancellation: the Hessian of (sum x_i)^5 has rank 1
        rng = random.Random(f"hessian:{n}:{fld!r}")
        xs = MultiPoly.variables(fld, n)
        assert cofactor_det(hessian_matrix(xs[0] + 1)).is_zero()
        diagonal = sum((x ** (i + 2) * _random_coeff(fld, rng)
                        for i, x in enumerate(xs)), MultiPoly.zero(fld, n))
        hess = hessian_matrix(diagonal)
        want = MultiPoly.const(fld, n, 1)
        for i in range(n):
            want = want * hess[i][i]
        assert cofactor_det(hess) == want
        zero_det = sum(xs, MultiPoly.zero(fld, n)) ** 5
        if n > 1:
            assert cofactor_det(hessian_matrix(zero_det)).is_zero()
            assert any(h for row in hessian_matrix(zero_det) for h in row)


def _random_coeff(fld, rng):
    if isinstance(fld, RatFuncField):         # a + b t, not both 0
        a, b = rng.choice([(a, b) for a in range(3) for b in range(3) if a or b])
        return fld.elem(UPoly(fld.base, [fld.base.elem(a), fld.base.elem(b)]))
    return fld.from_index(rng.randrange(1, fld.order))


def _has_degenerate_point_somewhere(form, fld):
    charts = covers.dehomogenize_charts(form, 1)
    for ext in (1, 2, 3):
        search, embed = fld.extension(ext)
        for f in charts:
            fe = f.map_coefficients(search, embed)
            gr = fe.gradient()[0]
            hd = cofactor_det(hessian_matrix(fe))
            for k in range(search.order):
                pt = (search.from_index(k),)
                if gr.evaluate(pt) == search.zero and \
                        hd.evaluate(pt) == search.zero:
                    return True
    return False


class TestFrobenius:
    def test_t_times_x(self):
        fld = FF(3)
        tdom = RatFuncField(fld, "t")
        t = RatFunc(UPoly.x(fld))
        h = MultiPoly(tdom, 1, {(1,): t})
        fact = covers.frobenius_factorization(h)
        assert fact.b[(1,)] == RatFunc(UPoly.x(fld))   # b = s since s^3 = t
        assert fact.verify()

    def test_perfect_cube(self):
        fld = FF(3)
        tdom = RatFuncField(fld, "t")
        h = MultiPoly(tdom, 1, {(3,): tdom.one})
        fact = covers.frobenius_factorization(h)
        assert fact.verify()
        # z = T^3 satisfies z^3 = (T^3)^3 = h(T^3)
        assert fact.b[(3,)] == tdom.one

    def test_constant_coefficient_field(self):
        fld = FF(3, 2)
        tdom = RatFuncField(fld, "t")
        a = fld.from_index(7)
        h = MultiPoly(tdom, 2, {(0, 0): RatFunc(UPoly.const(fld, a))})
        fact = covers.frobenius_factorization(h)
        assert fact.b[(0, 0)] == RatFunc(UPoly.const(fld, pth_root(a)))
        assert fact.verify()

    def test_random_certificates(self):
        for p in (3, 5):
            fld = FF(p)
            tdom = RatFuncField(fld, "t")
            rng = random.Random(p)
            for _ in range(10):
                nvars = rng.randrange(1, 4)
                terms = {}
                for _ in range(rng.randrange(1, 8)):
                    e = tuple(rng.randrange(0, 7) for _ in range(nvars))
                    if sum(e) > 6:
                        continue
                    num = UPoly(fld, [fld.from_index(rng.randrange(fld.order))
                                      for _ in range(rng.randrange(1, 4))])
                    den = UPoly(fld, [fld.from_index(rng.randrange(fld.order))
                                      for _ in range(rng.randrange(0, 2))]
                                + [fld.one])
                    if num.is_zero():
                        continue
                    terms[e] = RatFunc(num, den)
                if not terms:
                    continue
                h = MultiPoly(tdom, nvars, terms)
                fact = covers.frobenius_factorization(h)
                assert fact.verify()


class TestFrobeniusRoutes:
    """`FrobeniusFactorization.verify` re-checks Z^p = H by Kronecker ints
    over F_p when Z is dense (a constant-coefficient chart) and by
    term-by-term expansion when it is sparse (the frobenius-batch-shaped
    `fracs`) or over F_{p^m}.  A tampered b_I or h fails on either route."""

    @staticmethod
    def dense_chart(p):
        fld = FF(p)
        tdom = RatFuncField(fld, "t")
        rng = random.Random(f"dense chart:{p}")
        h = MultiPoly(tdom, 2, {e: tdom.elem(rng.randrange(1, p))
                                for e in itertools.product(range(5), repeat=2)})
        return covers.frobenius_factorization(h)

    @staticmethod
    def shapes(p):
        return {"dense": TestFrobeniusRoutes.dense_chart(p),
                "fracs": TestLiftOnNumerators.factorizations(p)[1]}

    @staticmethod
    def spy(monkeypatch):
        """The names of the product functions `verify` runs."""
        routes = []
        for name in ("packed_sum", "expanded_sum"):
            real = getattr(covers.kronecker, name)
            monkeypatch.setattr(covers.kronecker, name,
                                lambda *args, real=real, name=name:
                                routes.append(name) or real(*args))
        return routes

    @pytest.mark.parametrize("p", [3, 5])
    def test_each_shape_takes_its_route(self, p, monkeypatch):
        shapes = self.shapes(p)
        routes = self.spy(monkeypatch)
        assert shapes["dense"].verify() is True and set(routes) == {"packed_sum"}
        routes.clear()
        assert shapes["fracs"].verify() is True and set(routes) == {"expanded_sum"}
        routes.clear()
        fld = FF(3, 2)
        tdom = RatFuncField(fld, "t")
        h = MultiPoly(tdom, 2, {(i, j): tdom.elem(fld.from_index(1 + i + j))
                                for i in range(5) for j in range(5 - i)})
        assert covers.frobenius_factorization(h).verify() is True
        assert set(routes) == {"expanded_sum"}

    @pytest.mark.parametrize("shape", ["dense", "fracs"])
    @pytest.mark.parametrize("p", [3, 5])
    def test_a_tampered_certificate_fails(self, p, shape, monkeypatch):
        fact = self.shapes(p)[shape]
        tdom = fact.h.domain
        routes = self.spy(monkeypatch)
        for e in sorted(fact.b):
            b = dict(fact.b)
            b[e] = b[e] + 1
            assert dataclasses.replace(fact, b=b).verify() is False
        for e in sorted(fact.h.terms):
            terms = dict(fact.h.terms)
            terms[e] = terms[e] + tdom.elem(1)
            h = MultiPoly(tdom, fact.h.n, terms)
            assert dataclasses.replace(fact, h=h).verify() is False
        # a term of h beyond z^p's degree in x_1
        far = fact.h + MultiPoly.monomial(tdom, 2, (fact.h.degree_in(0) + 1, 0), 1)
        assert dataclasses.replace(fact, h=far).verify() is False
        assert set(routes) == ({"packed_sum"} if shape == "dense"
                               else {"expanded_sum"})


class TestLifting:
    def setup_method(self):
        self.fld = FF(3)
        tdom = RatFuncField(self.fld, "t")
        t = RatFunc(UPoly.x(self.fld))
        # f = t*x + y
        self.fact = covers.frobenius_factorization(
            MultiPoly(tdom, 2, {(1, 0): t, (0, 1): tdom.one}))
        self.s = UPoly.x(self.fld)

    def test_unit_parameters(self):
        lp = covers.lift_point(self.fact, [1, 1])
        assert lp.z == RatFunc(self.s + 1)
        # (s+1)^3 = s^3 + 1 = t + 1 = f(1, 1)

    def test_constant_parameters_height_zero(self):
        lp = covers.lift_point(self.fact, [0, 2])
        assert lp.z == RatFunc(UPoly.const(self.fld, 2))
        fam = covers.lift_rational_points(self.fact, [[0, 2]])
        assert fam.heights == [0]

    def test_s_parameter(self):
        lp = covers.lift_point(self.fact, [RatFunc(self.s), 0])
        assert lp.base_coords[0] == RatFunc(self.s ** 3)   # x = s^3 = t
        assert lp.z == RatFunc(self.s ** 2)
        assert max(lp.z.num.degree(), lp.z.den.degree()) == 2
        fam = covers.lift_rational_points(self.fact, [[RatFunc(self.s), 0]])
        assert fam.heights == [3]      # base point (1 : s^3 : 0)

    def test_fractional_parameters_on_a_degree_seven_h(self):
        # the check z^p = h(x) takes powers of reduced fractions, which
        # must equal the fractions __init__ rebuilds from num^p and den^p
        fld, s = self.fld, self.s
        tdom = RatFuncField(fld, "t")
        rng = random.Random(7)
        h = MultiPoly(tdom, 2, {
            (i, j): tdom.elem(UPoly.from_ints(fld, [rng.randrange(3) for _ in range(3)]))
            for i in range(8) for j in range(8 - i) if rng.random() < 0.5})
        h = h + MultiPoly.monomial(tdom, 2, (4, 3), 1)
        fact = covers.frobenius_factorization(h)
        u = [RatFunc(s ** 5 + s ** 2 + 1, s ** 6 + s + 2),
             RatFunc(s + 1, s ** 4 + 2)]
        lp = covers.lift_point(fact, u)
        for r in [lp.z] + u:
            cube, rebuilt = r ** 3, RatFunc(r.num ** 3, r.den ** 3)
            assert (cube.num, cube.den) == (rebuilt.num, rebuilt.den)
        assert lp.base_coords == [RatFunc(r.num ** 3, r.den ** 3) for r in u]
        assert lp.z ** 3 == _eval_cover_h(h, lp.base_coords)

    def test_family_bound_reported(self):
        fam = covers.lift_rational_points(
            self.fact, [[1, 1], [2, 0], [0, 1]])
        assert fam.extras["constant_parameter_height_bound"] == 1   # deg_s(b)
        assert all(d.d_L == Fraction(-2) for d in fam.discriminants)
        assert fam.verify()


class TestLiftOnNumerators:
    """`lift_point` sums z and h(x) on cleared numerators, its constant
    slots folded in; the frozen RatFunc substitution it replaced must give
    the same point for fractional, constant and polynomial parameters and
    for b with denominators."""

    @staticmethod
    def factorizations(p):
        fld = FF(p)
        tdom = RatFuncField(fld, "t")
        t = UPoly.x(fld)
        rng = random.Random(f"lift:{p}")
        consts = MultiPoly(tdom, 2, {
            e: tdom.elem(rng.randrange(1, p)) for e in
            ((0, 0), (1, 0), (0, 2), (3, 1), (2, 2), (0, 4))})
        # frobenius-batch shaped: distinct linear denominators, so L != 1
        dens = {(0, 0): t + 1, (1, 2): UPoly.const(fld, 1), (3, 1): t + 2,
                (2, 0): (t + 1) * (t + 2)}
        fracs = MultiPoly(tdom, 2, {
            e: RatFunc(UPoly.from_ints(fld, [rng.randrange(1, p), 1, 1]), d)
            for e, d in dens.items()})
        return [covers.frobenius_factorization(h) for h in (consts, fracs)]

    @staticmethod
    def parameters(p):
        fld = FF(p)
        s = UPoly.x(fld)
        inv = RatFunc(UPoly.const(fld, 1), s + 1)              # 1/(s+1)
        quo = RatFunc(s * s + 1, s + 2)                        # (s^2+1)/(s+2)
        return [[inv, quo], [quo, 2], [2, inv], [inv, inv], [RatFunc(s), 0],
                [0, 1], [3, quo]]

    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_the_ratfunc_substitution(self, p):
        consts, fracs = self.factorizations(p)
        assert fracs.cleared[0][1].degree() > 0 and fracs.cleared[1][1].degree() > 0
        assert consts.cleared[0][1].degree() == 0
        fld = FF(p)
        for fact in (consts, fracs):
            for params in self.parameters(p):
                lp = covers.lift_point(fact, params)
                us = [u if isinstance(u, RatFunc) else RatFunc(UPoly.const(fld, u))
                      for u in params]
                z, xs, value = reference.lift(fact, us)
                assert lp.z == z and lp.base_coords == xs and z ** p == value
                assert list(lp.params) == us

    @pytest.mark.parametrize("tampered", [0, 1])
    def test_tampered_sum_fails_the_cover_equation(self, tampered, monkeypatch):
        real = covers.substitute
        calls = []

        def substitute(terms, values, zero):
            calls.append(terms)
            out = real(terms, values, zero)
            return out + 1 if len(calls) == tampered + 1 else out
        monkeypatch.setattr(covers, "substitute", substitute)
        fact = self.factorizations(3)[1]
        with pytest.raises(AssertionError, match="violates the cover equation"):
            covers.lift_point(fact, self.parameters(3)[0])
        assert len(calls) == 2

    # `lift_point` folds the constant slots a_j or d_j into the cleared
    # numerators before `substitute`.  A fault shared by z and h(x) passes
    # the check z^p = h(x), since Frobenius is a ring map, so each shape the
    # fold changes is compared with the frozen RatFunc lift.

    @staticmethod
    def fold_factorizations(fld):
        """Constant coefficients (the demo's shape) and fractional ones with
        L != 1, over F_q."""
        tdom = RatFuncField(fld, "t")
        t = UPoly.x(fld)
        rng = random.Random(f"fold:{fld.order}")
        elem = lambda: fld.from_index(rng.randrange(1, fld.order))
        consts = MultiPoly(tdom, 2, {
            e: tdom.elem(elem()) for e in
            ((0, 0), (1, 0), (0, 2), (3, 1), (2, 2), (0, 4), (5, 0), (1, 3))})
        dens = {(0, 0): t + 1, (1, 2): UPoly.const(fld, 1), (3, 1): t + 2,
                (2, 0): (t + 1) * (t + 2)}
        fracs = MultiPoly(tdom, 2, {
            e: RatFunc(UPoly(fld, [elem(), fld.one, elem()]), d)
            for e, d in dens.items()})
        return [covers.frobenius_factorization(h) for h in (consts, fracs)]

    @staticmethod
    def fold_shapes(fld):
        rng = random.Random(f"shapes:{fld.order}")
        s = UPoly.x(fld)
        c = fld.from_index(fld.order - 1)
        monic = [s ** m + UPoly(fld, [fld.from_index(rng.randrange(fld.order))
                                      for _ in range(m)]) for m in range(1, 9)]
        consts = [fld.from_index(k) for k in range(fld.order)]
        frac = RatFunc(s * s + 1, s + 2)
        return {
            "monic and constant": [[RatFunc(f), c] for f in monic] + [[c, RatFunc(monic[2])]],
            "all constant": [[a, b] for a in consts for b in consts[::2]],
            "zero and one": [[0, 1], [1, 0], [0, 0], [1, 1], [0, RatFunc(monic[1])],
                             [RatFunc(monic[1]), 1]],
            "constant and fractional": [[c, frac], [frac, 2], [1, frac],
                                        [0, RatFunc(UPoly.const(fld, 1), s + 1)]],
        }

    @pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2)])
    @pytest.mark.parametrize("shape", ["monic and constant", "all constant",
                                       "zero and one", "constant and fractional"])
    def test_folded_lift_matches_the_reference(self, p, m, shape):
        fld = FF(p, m)
        for fact in self.fold_factorizations(fld):
            for params in self.fold_shapes(fld)[shape]:
                lp = covers.lift_point(fact, params)
                us = [u if isinstance(u, RatFunc) else RatFunc(UPoly.const(fld, u))
                      for u in params]
                z, xs, value = reference.lift(fact, us)
                assert lp.z == z and lp.base_coords == xs and z ** p == value

    def test_lifts_over_f9_make_no_element_arithmetic(self, monkeypatch):
        """Over F_9, UPoly runs on Zech-log codes: the lifts, their folds
        and their z^p checks add and multiply no FFElement."""
        fld = FF(3, 2)
        facts, shapes = self.fold_factorizations(fld), self.fold_shapes(fld)
        calls = []
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            real = getattr(FFElement, name)
            monkeypatch.setattr(FFElement, name, lambda a, b, real=real, name=name:
                                calls.append(name) or real(a, b))
        for fact in facts:
            for params in shapes["monic and constant"] + shapes["constant and fractional"]:
                covers.lift_point(fact, params)
        assert calls == []

    def test_demo_family_matches_the_reference(self):
        bundle = _default_bundle()
        fld = bundle.fld
        rng = random.Random("demo family")
        for m in range(1, 9):
            u1 = RatFunc(UPoly.x(fld) ** m + UPoly(fld, [fld.elem(rng.randrange(3))
                                                        for _ in range(m)]))
            u2 = RatFunc.const(fld, rng.randrange(3))
            z, xs, value = reference.lift(bundle.fact, [u1, u2])
            assert bundle.lift([u1, u2]).z == z and z ** 3 == value

    @pytest.mark.parametrize("tampered", [0, 1])
    @pytest.mark.parametrize("params", ["polynomial", "constant"])
    def test_tampered_fold_fails_the_cover_equation(self, tampered, params, monkeypatch):
        real = covers._fold
        calls = []

        def fold(terms, values):
            folded, live = real(terms, values)
            calls.append(len(live))
            if len(calls) == tampered + 1:     # an empty sum folds to {}
                key = next(iter(folded), ())
                folded = {**folded, key: folded.get(key, UPoly(fld)) + 1}
            return folded, live
        monkeypatch.setattr(covers, "_fold", fold)
        fld = FF(3)
        fact = self.fold_factorizations(fld)[0]
        u = {"polynomial": [RatFunc(UPoly.from_ints(fld, [1, 2, 0, 1])), 2],
             "constant": [2, 1]}[params]
        with pytest.raises(AssertionError, match="violates the cover equation"):
            covers.lift_point(fact, u)
        assert calls == ([1, 1] if params == "polynomial" else [0, 0])

    def test_demo_lift_horner_takes_no_product_by_a_constant_power(self, monkeypatch):
        """A default-bundle lift with u1 of degree 8 and constant u2: each
        sum folds to one live value, so every Horner product multiplies a
        power of u1 (or x_1 = u1^3).  Only the top coefficient, a constant
        since b's are, is multiplied in: one product per sum.  Unfolded, the
        Horner took 444 products here, 416 of them of two constants."""
        bundle = _default_bundle()
        fld = bundle.fld
        u1 = RatFunc(UPoly.from_ints(fld, [2, 0, 1, 1, 0, 2, 0, 1, 1]))
        products = []
        real_mul, real_sub = UPoly.__mul__, covers.substitute

        def mul(a, b):
            products.append((a.degree(), b.degree()))
            return real_mul(a, b)

        def substitute(terms, values, zero):
            monkeypatch.setattr(UPoly, "__mul__", mul)
            try:
                return real_sub(terms, values, zero)
            finally:
                monkeypatch.setattr(UPoly, "__mul__", real_mul)
        monkeypatch.setattr(covers, "substitute", substitute)
        bundle.lift([u1, 2])
        assert len(products) == 24
        assert not [pr for pr in products if pr[0] <= 0]
        assert len([pr for pr in products if pr[1] <= 0]) == 2


@functools.cache
def _default_bundle():
    return covers.make_vojta_bundle(3, 1, 5, FF(3), seed=1)


def _pos(i, j):
    """Position of X_j/X_i among chart i's coordinates."""
    return j if j < i else j - 1


def _charts_by_substitution(form, N):
    """Chart i by substituting X_i -> 1 and X_j -> its chart variable."""
    dom = form.domain
    return [form.subs([MultiPoly.const(dom, N, 1) if j == i
                       else MultiPoly.var(dom, N, _pos(i, j))
                       for j in range(N + 1)])
            for i in range(N + 1)]


def _transition_by_hand(dom, N, i, j, nd):
    """(g_ij, chart j's coordinates) on chart i, written out by position."""
    uj = MultiPoly.var(dom, N, _pos(i, j))
    cmap = [(MultiPoly.const(dom, N, 1) if l == i
             else MultiPoly.var(dom, N, _pos(i, l)), uj)
            for l in range(N + 1) if l != j]
    return (uj ** nd, MultiPoly.const(dom, N, 1)), cmap


class TestChartConvention:
    @pytest.mark.parametrize("p,m", [(3, 1), (3, 2)])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_charts_read_off_the_form_match_substitution(self, p, m, N):
        fld = FF(p, m)
        rng = random.Random(10 * N + m)
        for deg in (1, 2, 3, 5):
            form = covers.random_homogeneous_form(fld, N + 1, deg, rng)
            assert (covers.dehomogenize_charts(form, N)
                    == _charts_by_substitution(form, N))

    def test_non_homogeneous_form_rejected(self):
        # x0*x1 + x1 would put two terms on x1 in chart 0
        x0, x1 = MultiPoly.variables(FF(3), 2)
        for form in (x0 * x1 + x1, x0 ** 2 + x1):
            with pytest.raises(ValueError, match="homogeneous"):
                covers.dehomogenize_charts(form, 1)

    @pytest.mark.parametrize("N,d,n", [(1, 1, 1), (1, 2, 1), (2, 1, 1),
                                       (2, 1, 2), (3, 1, 1)])
    def test_transitions_match_hand_built_maps(self, N, d, n):
        fld = FF(3)
        cover = next(covers.seeded_covers(fld, N, d, n, 3, seed=N + d + n))
        for ch in cover.charts:
            assert sorted(ch.transitions) == [j for j in range(N + 1)
                                              if j != ch.index]
            for j, (g, cmap) in ch.transitions.items():
                g_want, cmap_want = _transition_by_hand(fld, N, ch.index, j,
                                                        n * d)
                assert (g.num, g.den) == g_want
                assert [(r.num, r.den) for r in cmap] == cmap_want


def _chart0_by_hand(rec):
    """X_0-chart coordinates of an N = 2 record by position, None on
    X_0 = 0; the chart's own coordinate is the record field's one."""
    i = rec.chart_index
    if i == 0:
        return rec.point
    x0 = rec.point[0]
    if not x0:
        return None
    inv = x0.inverse()
    full = list(rec.point)
    full.insert(i, rec.fld.one)
    return (full[1] * inv, full[2] * inv)


class TestVojtaBundle:
    def test_chart0_reads_the_transitions(self):
        fld = FF(3)
        bundle = covers.make_vojta_bundle(3, 1, 5, fld, seed=1)
        recs = []
        for ext in (1, 2):
            search, _ = fld.extension(ext)
            found = covers.singular_points(bundle.cover, ext)
            assert any(r.chart_index and bundle._to_chart0(r) for r in found)
            # every point of charts 1 and 2, those on X_0 = 0 included
            recs += found + [
                covers.SingularPointRecord(i, pt, None, False, search)
                for i in (1, 2)
                for pt in itertools.product(search.elements(), repeat=2)]
        nones = 0
        for rec in recs:
            want = _chart0_by_hand(rec)
            assert bundle._to_chart0(rec) == want
            nones += want is None
        assert nones == 2 * (3 + 9)

    def test_bundle_and_avoidance(self):
        fld = FF(3)
        bundle = covers.make_vojta_bundle(3, 1, 5, fld, seed=1)
        assert bundle.f0.total_degree() <= 15
        assert bundle.fact.verify()
        assert all(not r.degenerate for r in bundle.singular_records)
        pairs = bundle.avoidance_pairs()
        # base-field singular points produce avoidance values
        assert len(pairs) >= 1
        # lifting through an avoiding section keeps the cover equation exact
        sec, _, _ = heights.sections_avoiding(pairs, 2, fld, seed=3)
        lp = bundle.lift([sec.as_ratfunc(), RatFunc(UPoly.const(fld, 1))])
        assert lp.z ** 3 == _eval_cover(bundle, lp)


def _clean_covers_verified_first(fld, p, d, n, seed):
    """The bundle search as it ran before screening: every drawn form's
    cover built and cocycle-verified, then swept; yields each clean one."""
    for cover in covers.seeded_covers(fld, 2, d, n, p, seed):
        recs1 = covers.singular_points(cover, ext=1)
        if any(r.degenerate for r in recs1):
            continue
        recs2 = covers.singular_points(cover, ext=2)
        if not any(r.degenerate for r in recs2):
            yield cover, recs1, recs2


def _record_tuples(records):
    return [(r.chart_index, r.point, r.hessian_det, r.degenerate, r.fld)
            for r in records]


def _count_cocycle_checks(monkeypatch, fail_first=0):
    """Count `verify_cocycle` calls; the first `fail_first` report a bad
    overlap."""
    calls, real = [], covers.verify_cocycle

    def verify_cocycle(cover):
        calls.append(cover)
        return [(0, 1)] if len(calls) <= fail_first else real(cover)
    monkeypatch.setattr(covers, "verify_cocycle", verify_cocycle)
    return calls


class TestScreenedSearch:
    """`make_vojta_bundle` sweeps a form's charts before it builds a cover;
    the accepted bundle is the one that verifying every cover first finds."""

    CASES = ([(3, 1, 5, s) for s in range(1, 7)]
             + [(5, 1, 3, 1), (7, 1, 2, 1), (3, 2, 5, 1)])

    @pytest.mark.parametrize("p,m,n,seed", CASES, ids=[
        f"{p}-{n}-{s}" if m == 1 else f"{p}^{m}-{n}-{s}" for p, m, n, s in CASES])
    def test_same_bundle_as_verifying_every_cover_first(self, p, m, n, seed):
        fld = FF(p, m)
        bundle = covers.make_vojta_bundle(p, 1, n, fld, seed=seed)
        cover, recs1, recs2 = next(
            _clean_covers_verified_first(fld, p, 1, n, seed))
        assert bundle.form == cover.params["form"]
        assert [ch.f for ch in bundle.cover.charts] == [ch.f for ch in cover.charts]
        assert _record_tuples(bundle.singular_records_base) == _record_tuples(recs1)
        assert _record_tuples(bundle.singular_records) == _record_tuples(recs2)

    def test_one_cocycle_check_per_bundle(self, monkeypatch):
        fld = FF(3)
        calls = _count_cocycle_checks(monkeypatch)
        bundle = covers.make_vojta_bundle(3, 1, 5, fld, seed=1)
        assert calls == [bundle.cover]
        # verifying first checks the cover of every drawn form
        del calls[:]
        next(_clean_covers_verified_first(fld, 3, 1, 5, 1))
        assert len(calls) == 4

    @pytest.mark.parametrize("search", ["make_vojta_bundle", "seeded_covers"])
    def test_one_dehomogenization_per_drawn_form(self, monkeypatch, search):
        # the cover is built from the chart sections the screen made, so
        # each drawn form is dehomogenized and checked once
        counts = dict.fromkeys(["random_homogeneous_form", "_form_sections",
                                "_check_sections"], 0)

        def counting(name, real):
            def counted(*args):
                counts[name] += 1
                return real(*args)
            return counted
        for name in counts:
            monkeypatch.setattr(covers, name, counting(name, getattr(covers, name)))
        fld = FF(3)
        if search == "make_vojta_bundle":
            covers.make_vojta_bundle(3, 1, 5, fld, seed=1)
        else:
            next(covers.seeded_covers(fld, 2, 1, 5, 3, seed=1))
        drawn = counts["random_homogeneous_form"]
        assert drawn >= 1 and counts == dict.fromkeys(counts, drawn)

    def test_a_rejected_form_builds_no_record_past_its_first_degenerate_one(
            self, monkeypatch):
        fld = FF(3)
        expected, packs, rejected = [], [], 0
        for _, sections in covers._seeded_sections(fld, 2, 1, 5, 3, 1):
            for ext in (1, 2):
                recs = covers.singular_points(sections, ext)
                bad = next((k for k, r in enumerate(recs) if r.degenerate), None)
                if bad is not None:
                    expected += recs[:bad + 1]
                    packs.append(recs[bad].chart_index + 1)
                    rejected += 1
                    break
                expected += recs
                packs.append(len(sections))
            else:
                break
        assert rejected == 3 and len(packs) == 5
        built, packed = [], []
        record, pack = covers.SingularPointRecord, covers._Sweep.pack

        def recording(*args, **kwargs):
            built.append(record(*args, **kwargs))
            return built[-1]

        def counted(sweep, poly, embed=None):
            packed.append(sweep)
            return pack(sweep, poly, embed)
        monkeypatch.setattr(covers, "SingularPointRecord", recording)
        monkeypatch.setattr(covers._Sweep, "pack", counted)
        bundle = covers.make_vojta_bundle(3, 1, 5, fld, seed=1)
        assert _record_tuples(built) == _record_tuples(expected)
        assert built[-len(bundle.singular_records):] == bundle.singular_records
        # one sweep per chart swept: charts past the first degenerate point
        # of a rejected form are never packed
        assert len(packed) == sum(packs)

    def test_a_failed_cocycle_check_is_never_returned(self, monkeypatch):
        fld = FF(3)
        clean = _clean_covers_verified_first(fld, 3, 1, 5, 1)
        first, second = next(clean)[0], next(clean)[0]
        calls = _count_cocycle_checks(monkeypatch, fail_first=1)
        bundle = covers.make_vojta_bundle(3, 1, 5, fld, seed=1)
        assert calls[0].params["form"] == first.params["form"]
        assert bundle.form == second.params["form"] != first.params["form"]
        assert calls[-1] is bundle.cover and len(calls) == 2
        # every check failing: the search gives up, with no bundle
        monkeypatch.setattr(covers, "SEARCH_TRIES", 12)
        _count_cocycle_checks(monkeypatch, fail_first=12)
        with pytest.raises(RuntimeError, match="no suitable section"):
            covers.make_vojta_bundle(3, 1, 5, fld, seed=1)


def _eval_cover(bundle, lp):
    fld = bundle.fld
    value = RatFunc(UPoly(fld))
    for e, c in bundle.fact.h.terms.items():
        term = c.inflate(3)
        for x, k in zip(lp.base_coords, e):
            if k:
                term = term * x ** k
        value = value + term
    return value


def _eval_cover_h(h, base_coords):
    """h(x) in k(s), term by term with t -> s^p, by products only."""
    p = h.domain.p
    value = RatFunc(UPoly(h.domain.base))
    for e, c in h.terms.items():
        term = c.inflate(p)
        for x, k in zip(base_coords, e):
            for _ in range(k):
                term = term * x
        value = value + term
    return value


def random_poly(fld, rng, max_deg=3, n=2):
    """Seeded polynomial in n variables of degree below max_deg in each."""
    return MultiPoly(fld, n, {
        e: fld.from_index(rng.randrange(fld.order))
        for e in itertools.product(range(max_deg), repeat=n)
        if rng.random() < 0.4})


class TestCommonZeros:
    @staticmethod
    def _seeded_polys(fld, n, count, rng):
        """`count` polynomials in n variables, most through one shared
        point, some zero or constant."""
        elems = list(fld.elements())
        through = [x - MultiPoly.const(fld, n, rng.choice(elems))
                   for x in MultiPoly.variables(fld, n)]
        max_deg = 3 if n < 3 else 2
        polys = []
        for _ in range(count):
            kind = rng.random()
            if kind < 0.1:
                polys.append(MultiPoly.zero(fld, n))
            elif kind < 0.15:
                polys.append(MultiPoly.const(fld, n, rng.choice(elems[1:])))
            else:
                f = sum((random_poly(fld, rng, max_deg, n) * lin
                         for lin in through), MultiPoly.zero(fld, n))
                if kind > 0.85:
                    f = f + random_poly(fld, rng, max_deg, n)
                polys.append(f)
        return polys

    def _check_sweep(self, fld, n, rng, cases):
        # the collapsed sweep against plain enumeration and evaluation: the
        # same points, in the same order
        elems = list(fld.elements())
        nonempty = 0
        for count in (2, 3):
            for _ in range(cases):
                polys = self._seeded_polys(fld, n, count, rng)
                want = [pt for pt in itertools.product(elems, repeat=n)
                        if all(g.evaluate(pt) == fld.zero for g in polys)]
                assert list(covers.common_zeros(polys)) == want
                nonempty += len(want) > 1
        assert nonempty

    @pytest.mark.parametrize("order", [(5, 1), (3, 2)])
    def test_two_variable_sweep_matches_product(self, order):
        self._check_sweep(FF(*order), 2, random.Random(sum(order)), 12)

    @pytest.mark.parametrize("order", [(3, 1), (3, 2)], ids=["F3", "F9"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sweep_matches_product_in_n_variables(self, order, n):
        # n = 1 sweeps the cover charts of P^1, n = 3 desing's witnesses
        self._check_sweep(FF(*order), n, random.Random(f"{order}:{n}"),
                          12 if n < 3 else 3)


def _brute_value(poly, point):
    """poly at point by element arithmetic only, term by term."""
    acc = poly.domain.zero
    for e, c in poly.terms.items():
        for x, k in zip(point, e):
            for _ in range(k):
                c = c * x
        acc = acc + c
    return acc


def _brute_records(sections, ext):
    """`singular_points` by enumeration and element evaluation."""
    search, embed = sections[0].domain.extension(ext)
    out = []
    for index, f in enumerate(sections):
        f = f.map_coefficients(search, embed)
        grads, hess = f.gradient(), hessian_matrix(f)
        for pt in itertools.product(list(search.elements()), repeat=f.n):
            if all(not _brute_value(g, pt) for g in grads):
                mat = [[_brute_value(h, pt) for h in row] for row in hess]
                out.append((index, pt, cofactor_det(mat),
                            not det(mat, search), search))
    return out


# 65537 is the least prime above PRIME_TABLE_MAX: its ring is on elements
SWEEP_FIELDS = [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]


class TestCodeSweep:
    """The sweep on residues, Zech-log codes and elements against
    enumeration with element arithmetic: the same points in the same order,
    and the same records."""

    @staticmethod
    def _polys(fld, n, rng):
        """Lists of polynomials in n variables: through a shared point,
        with a zero or a constant among them, and with no common zero;
        fewer and smaller ones where the oracle has many points."""
        big = fld.order ** n > 1000
        elems = list(fld.elements())
        shifted = [x - MultiPoly.const(fld, n, rng.choice(elems))
                   for x in MultiPoly.variables(fld, n)]

        def small():
            return MultiPoly(fld, n, {
                tuple(rng.randrange(2 if big else 4) for _ in range(n)):
                fld.from_index(rng.randrange(1, fld.order))
                for _ in range(2 if big else 3)})
        through = [sum((small() * lin for lin in shifted), MultiPoly.zero(fld, n))
                   for _ in range(2)]
        g = small() * shifted[0]
        if big:
            return [through, [g, g + 1]]
        return [through, through + [MultiPoly.zero(fld, n)],
                [through[0], MultiPoly.const(fld, n, 2)],
                [g, g + 1], [small(), small()]]

    @pytest.mark.parametrize("p,m", SWEEP_FIELDS,
                             ids=[f"F{p ** m}" for p, m in SWEEP_FIELDS])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_common_zeros_match_enumeration(self, p, m, n):
        fld = FF(p, m)
        rng = random.Random(f"sweep:{p}^{m}:{n}")
        elems = list(fld.elements())
        found = 0
        for polys in self._polys(fld, n, rng):
            want = [pt for pt in itertools.product(elems, repeat=n)
                    if all(not _brute_value(g, pt) for g in polys)]
            assert list(covers.common_zeros(polys)) == want
            found += bool(want)
        assert found

    def test_untabled_prime_in_one_variable(self):
        fld = FF(65537)
        assert type(covers.monomials.ring(fld, 1)) is covers.monomials.Ring
        x = MultiPoly.var(fld, 1, 0)
        f = (x - 5) * (x - 60000)
        polys = [f, f.derivative(0) * (x - 5)]
        want = [(a,) for a in fld.elements()
                if all(not _brute_value(g, (a,)) for g in polys)]
        assert list(covers.common_zeros(polys)) == want == [(fld.elem(5),)]
        # x^3 - 3x: critical at 1 and -1
        sections = [x ** 3 - x * 3]
        recs = covers.singular_points(sections, ext=1)
        assert _record_tuples(recs) == _brute_records(sections, 1)
        assert [r.point for r in recs] == [(fld.one,), (fld.elem(-1),)]

    @pytest.mark.parametrize("p,m,ext,n", [
        (p, m, ext, n) for p, m, ext in [(3, 1, 1), (3, 1, 2), (5, 1, 1),
                                         (5, 1, 2), (3, 2, 1), (3, 3, 1)]
        for n in (1, 2, 3) if p ** (m * ext * n) <= 1000])
    def test_singular_records_match_enumeration(self, p, m, ext, n):
        fld = FF(p, m)
        rng = random.Random(f"records:{p}^{m}:{ext}:{n}")
        elems = list(fld.elements())
        sections = []
        for k in range(3):
            # critical at a chosen point: nondegenerate there on chart 0,
            # degenerate on chart 1, either on chart 2
            shifted = [x - MultiPoly.const(fld, n, rng.choice(elems))
                       for x in MultiPoly.variables(fld, n)]
            exps = [2] * n if k == 0 else [3] + [2] * (n - 1) if k == 1 \
                else [rng.choice((2, 3)) for _ in range(n)]
            f = sum((lin ** e for lin, e in zip(shifted, exps)),
                    MultiPoly.zero(fld, n))
            sections.append(f + random_poly(fld, rng, 3, n) * shifted[0] ** 3)
        want = _brute_records(sections, ext)
        assert _record_tuples(covers.singular_points(sections, ext)) == want
        assert {(w[0], w[3]) for w in want} >= {(0, False), (1, True)}
