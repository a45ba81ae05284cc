"""Heights over k(t): normalization, functoriality, density, the three
bounded-height families, and section avoidance."""

import itertools
import random
from fractions import Fraction

import pytest

from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.unipoly import UPoly, RatFunc, RatFuncField
from charpgeom.algebra.multipoly import MultiPoly
from charpgeom import heights, picard


F5 = FF(5)
T5 = UPoly.x(F5)


def fmt(pt):
    return [c.format() for c in pt.coords]


class TestNormalize:
    def test_common_factor_cleared(self):
        assert fmt(heights.normalize(F5, [T5 * T5, T5])) == ["t", "1"]

    def test_denominators_cleared(self):
        pt = heights.normalize(F5, [RatFunc(UPoly.const(F5, 1), T5), 1])
        assert fmt(pt) == ["1", "t"]

    def test_leading_coordinate_monic(self):
        pt = heights.normalize(F5, [T5 * 2 + 2, 4])
        assert fmt(pt) == ["t + 1", "2"]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            heights.normalize(F5, [0, 0])

    def test_idempotent_and_projectively_invariant(self):
        rng = random.Random(1)
        for _ in range(40):
            coords = [UPoly(F5, [F5.from_index(rng.randrange(5))
                                 for _ in range(rng.randrange(1, 4))])
                      for _ in range(3)]
            if all(c.is_zero() for c in coords):
                continue
            pt = heights.normalize(F5, coords)
            assert heights.normalize(F5, pt.coords) == pt
            num = UPoly(F5, [F5.from_index(rng.randrange(1, 5)),
                             F5.from_index(rng.randrange(5))])
            scaled = [RatFunc(c) * RatFunc(num) for c in pt.coords]
            assert heights.normalize(F5, scaled) == pt


class TestWeilHeight:
    def test_constant_point_height_zero(self):
        assert heights.weil_height(heights.normalize(F5, [1, 2, 3])) == 0

    def test_t_colon_1(self):
        assert heights.weil_height(heights.normalize(F5, [T5, 1])) == 1

    def test_degree_two_point(self):
        # (t^2+1 : t(t-1) : 1): coprime coordinates, max degree 2
        pt = heights.normalize(F5, [T5 * T5 + 1, T5 * (T5 + 4), 1])
        assert heights.weil_height(pt) == 2

    def test_hyperplane_pullback_oracle(self):
        # max degree over unit-vector hyperplanes recovers the height, and
        # every hyperplane pullback degree is bounded by it
        rng = random.Random(2)
        for _ in range(25):
            coords = [UPoly(F5, [F5.from_index(rng.randrange(5))
                                 for _ in range(rng.randrange(1, 5))])
                      for _ in range(3)]
            if all(c.is_zero() for c in coords):
                continue
            pt = heights.normalize(F5, coords)
            h = heights.weil_height(pt)
            unit_degrees = [c.degree() for c in pt.coords if not c.is_zero()]
            assert max(unit_degrees) == h
            for _ in range(10):
                lam = [F5.from_index(rng.randrange(5)) for _ in range(3)]
                sectn = UPoly(F5)
                for l, c in zip(lam, pt.coords):
                    sectn = sectn + c.scale(l)
                if not sectn.is_zero():
                    assert sectn.degree() <= h

    def test_zero_height_iff_constant_exhaustive(self):
        fld = FF(3)
        t = UPoly.x(fld)
        # exhaustive over pairs of polynomials of degree <= 1 over F_3
        polys = [UPoly(fld, [fld.from_index(a), fld.from_index(b)])
                 for a in range(3) for b in range(3)]
        for c0, c1 in itertools.product(polys, repeat=2):
            if c0.is_zero() and c1.is_zero():
                continue
            pt = heights.normalize(fld, [c0, c1])
            assert (heights.weil_height(pt) == 0) == pt.is_constant()


class TestFunctoriality:
    def setup_method(self):
        self.dom = RatFuncField(F5)
        self.x, self.y = MultiPoly.variables(self.dom, 2)
        self.pt = heights.normalize(F5, [T5, 1])

    def test_identity_map(self):
        rep = heights.functoriality_check((self.x, self.y), self.pt)
        assert rep.difference == 0

    def test_squares_give_equality(self):
        rep = heights.functoriality_check((self.x ** 2, self.y ** 2), self.pt)
        assert rep.height_image == 2 == rep.degree_times_height

    def test_cancellation_gives_strict_inequality(self):
        rep = heights.functoriality_check((self.x ** 2, self.x * self.y), self.pt)
        assert rep.height_image == 1 and rep.degree_times_height == 2
        assert fmt(rep.image) == ["t", "1"]

    def test_gcd_cancellation_oracle(self):
        # the image height is max deg(value) - deg gcd(values); the full
        # drop from d*h(p) adds the common zero at infinity (degree
        # deficiency of the value tuple), so equality holds exactly when the
        # homogenized image coordinates are coprime
        rng = random.Random(3)
        x, y = self.x, self.y
        for _ in range(30):
            e = rng.randrange(1, 3)
            forms = (x ** e, y ** e) if rng.random() < 0.5 else \
                    (x ** e, x ** (e - 1) * y if e > 1 else y)
            coords = [UPoly(F5, [F5.from_index(rng.randrange(5))
                                 for _ in range(rng.randrange(2, 4))])
                      for _ in range(2)]
            if all(c.is_zero() for c in coords):
                continue
            pt = heights.normalize(F5, coords)
            values = [f.evaluate([RatFunc(c) for c in pt.coords]) for f in forms]
            if all(v.is_zero() for v in values):
                continue
            rep = heights.functoriality_check(forms, pt)
            nums = [v.num for v in values if not v.is_zero()]
            g = nums[0]
            for q in nums[1:]:
                g = g.gcd(q)
            max_deg = max(n.degree() for n in nums)
            assert rep.height_image == max_deg - g.degree()
            deficiency = rep.degree_times_height - max_deg
            assert rep.degree_times_height - rep.height_image == \
                deficiency + g.degree()
            if deficiency == 0 and g.degree() == 0:
                assert rep.height_image == rep.degree_times_height

    def test_all_forms_vanish_rejected(self):
        with pytest.raises(ValueError):
            heights.functoriality_check(
                (self.x - self.y * RatFunc(T5), MultiPoly.zero(self.dom, 2)),
                self.pt)


class TestDensity:
    def test_thirteen_points_no_conic(self):
        fld = FF(3)
        fam = heights.example1_constant_points(2, fld)
        verdict = fam.extras["density"]
        assert verdict.dense and verdict.rank == 6 == verdict.n_monomials

    def test_collinear_points_yield_vanishing_form(self):
        fld = FF(3)
        pts = [heights.normalize(fld, [0, 0, 1]),
               heights.normalize(fld, [0, 1, 1]),
               heights.normalize(fld, [0, 1, 0])]
        verdict = heights.density_check(pts, 2, 1)
        assert not verdict.dense
        form = verdict.vanishing_form
        assert form is not None and not form.is_zero()
        for pt in pts:
            value = form.evaluate([RatFunc(c) for c in pt.coords])
            assert value.is_zero()

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="empty family"):
            heights.density_check([], 2, 1)

    def test_points_of_another_projective_space_rejected(self):
        # five points of P^2 checked in P^1 would be judged by their
        # projection to the first two coordinates
        fld = FF(3)
        pts = [heights.normalize(fld, c) for c in
               ([0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1], [1, 2, 1])]
        with pytest.raises(ValueError, match="2 coordinates, got 3"):
            heights.density_check(pts, 1, 1)
        assert heights.density_check(pts, 2, 1).dense


class TestExample1:
    @pytest.mark.parametrize("N,q,count", [(1, 3, 4), (2, 3, 13), (2, 5, 31)])
    def test_counts_and_heights(self, N, q, count):
        fam = heights.example1_constant_points(N, FF(q))
        assert len(fam.points) == count
        assert all(h == 0 for h in fam.heights)
        assert fam.verify()
        assert all(d.d_L == Fraction(-2) and d.degree_over_K == 1
                   for d in fam.discriminants)


class TestExample2:
    def setup_method(self):
        self.fld = FF(7)
        t = UPoly.x(self.fld)
        one, zero = UPoly.const(self.fld, 1), UPoly(self.fld)
        self.maps = [(one, zero), (zero, one), (one, one),
                     (one, t), (one, t * t), (one, t + 1)]

    def test_spec_family_witnesses_non_isotriviality(self):
        rep = heights.example2_blowup_config(self.maps, self.fld)
        assert rep.non_isotrivial_witness

    def test_cross_ratio_oracle_at_t2_t3(self):
        # all six points are pairwise distinct at t = 2 and t = 3 over F_7,
        # and the cross-ratio of a 4-subset differs, so the fibers cannot be
        # PGL-equivalent; the pgl machinery must agree with the oracle
        fld = self.fld
        configs = {}
        for b_int in (2, 3):
            b = fld.elem(b_int)
            pts = [picard.normalize_proj_tuple(
                fld, (f[0].evaluate(b), f[1].evaluate(b))) for f in self.maps]
            assert len(set(pts)) == 6
            configs[b_int] = picard.PointConfig(fld, pts)
        cr2 = picard.cross_ratio(fld, *configs[2].points[2:6])
        cr3 = picard.cross_ratio(fld, *configs[3].points[2:6])
        assert cr2 != cr3
        res = picard.pgl_equivalence(configs[2], configs[3])
        assert not res.equivalent

    def test_constant_maps_equivalent_fibers(self):
        one, zero = UPoly.const(self.fld, 1), UPoly(self.fld)
        consts = [(one, zero), (zero, one), (one, one),
                  (one, one.scale(self.fld.elem(2))),
                  (one, one.scale(self.fld.elem(3))),
                  (one, one.scale(self.fld.elem(4)))]
        rep = heights.example2_blowup_config(consts, self.fld)
        assert not rep.non_isotrivial_witness

    def test_pgl_transport_preserves_fiber_comparison(self):
        # applying one fixed projective transform to every section leaves
        # the fiberwise comparison verdict unchanged (orbit invariance)
        mat = [[self.fld.elem(1), self.fld.elem(2)],
               [self.fld.elem(3), self.fld.elem(2)]]
        moved = [(f0.scale(mat[0][0]) + f1.scale(mat[0][1]),
                  f0.scale(mat[1][0]) + f1.scale(mat[1][1]))
                 for f0, f1 in self.maps]
        rep_orig = heights.example2_blowup_config(self.maps, self.fld)
        rep_moved = heights.example2_blowup_config(moved, self.fld)
        assert rep_orig.non_isotrivial_witness == rep_moved.non_isotrivial_witness

    def test_too_few_maps_rejected(self):
        with pytest.raises(ValueError):
            heights.example2_blowup_config(self.maps[:5], self.fld)


class TestExample3:
    def test_x_cubed_plus_t(self):
        # y^2 = t at x0 = 0: quadratic extension k(t^(1/2)), 2 branch
        # places, genus 0, height 1/2 bounded by A = 1
        fld = F5
        t = UPoly.x(fld)
        g = [RatFunc(t), RatFunc(UPoly(fld)), RatFunc(UPoly(fld)),
             RatFunc(UPoly.const(fld, 1))]
        fam = heights.example3_bounded_degree(g, [fld.zero])
        rec = fam.extras["records"][0]
        assert rec.degree_over_K == 2
        assert rec.d_L == Fraction(-1)          # genus 0: (2*0-2)/2
        assert rec.height_exact == Fraction(1, 2)
        assert rec.height_bound == 1

    def test_constant_coefficients_give_degree_le_2(self):
        # g with coefficients in k: points over k(t) itself or a constant
        # extension; [K(p):K] <= 2 and d_L = -2
        fld = F5
        g = [RatFunc(UPoly.const(fld, 2)), RatFunc(UPoly(fld)),
             RatFunc(UPoly(fld)), RatFunc(UPoly.const(fld, 1))]
        fam = heights.example3_bounded_degree(g, list(fld.elements()))
        for rec in fam.extras["records"]:
            assert rec.degree_over_K == 1
            assert rec.d_L == Fraction(-2)
            assert rec.height_exact == 0

    def test_root_of_g_is_ramified_degree_one(self):
        fld = F5
        # g = x^3 + 4x vanishes at x0 = 0
        g = [RatFunc(UPoly(fld)), RatFunc(UPoly.const(fld, 4)),
             RatFunc(UPoly(fld)), RatFunc(UPoly.const(fld, 1))]
        fam = heights.example3_bounded_degree(g, [fld.zero])
        rec = fam.extras["records"][0]
        assert rec.degree_over_K == 1 and "ramified" in rec.note

    def test_higher_genus_branch_count(self):
        # g(x0) = t^3 + t = t(t^2+1): squarefree of degree 3, so 3 finite
        # branch places plus infinity: genus 1, d_L = 0
        fld = F5
        t = UPoly.x(fld)
        g_val_poly = t ** 3 + t
        g = [RatFunc(g_val_poly), RatFunc(UPoly(fld)), RatFunc(UPoly(fld)),
             RatFunc(UPoly.const(fld, 1))]
        fam = heights.example3_bounded_degree(g, [fld.zero])
        rec = fam.extras["records"][0]
        assert rec.degree_over_K == 2
        assert rec.d_L == Fraction(0)
        assert rec.height_exact == Fraction(3, 2)

    def test_non_squarefree_g_rejected(self):
        fld = F5
        one = RatFunc(UPoly.const(fld, 1))
        zero = RatFunc(UPoly(fld))
        # g = x^4 + 2x^2 + 1 = (x^2+1)^2 is not squarefree
        g = [one, zero, one * 2, zero, one]
        with pytest.raises(ValueError):
            heights.example3_bounded_degree(g, [fld.zero])
        # g = (x - t)^2 (x + 1) = x^3 + (1 - 2t) x^2 + (t^2 - 2t) x + t^2
        t = RatFunc(UPoly.x(fld))
        g = [t * t, t * t - t * 2, one - t * 2, one]
        with pytest.raises(ValueError):
            heights.example3_bounded_degree(g, [fld.zero])
        # g = x^5 + t is inseparable (g' = 0): not certified, so accepted
        g = [t, zero, zero, zero, zero, one]
        fam = heights.example3_bounded_degree(g, [fld.zero])
        assert len(fam.extras["records"]) == 1


def _infinity(fld):
    return heights.p1_point(fld, 1, 0)


class TestSectionsAvoiding:
    def test_empty_avoidance_constants(self):
        sec, fld_used, enlarged = heights.sections_avoiding([], 0, F5)
        assert not enlarged and fld_used is F5 and sec.degree == 0

    def test_identity_avoids_zero_infinity(self):
        w = [(heights.p1_point(F5, 0, 1), _infinity(F5))]
        g = heights.Section(UPoly.x(F5))
        assert g.avoids(w)

    def test_value_at_infinity(self):
        # (g_m : 0) for a section of degree m >= 1, (g : 1) for a constant
        inf = _infinity(F5)
        for coeffs in ([1, 1], [3, 0, 2], [0, 0, 0, 1]):
            sec = heights.Section(UPoly.from_ints(F5, coeffs))
            assert sec.degree == len(coeffs) - 1 and sec.value(inf) == inf
        for c in range(5):
            sec = heights.Section(UPoly.from_ints(F5, [c]))
            assert sec.degree == 0
            assert sec.value(inf) == heights.p1_point(F5, c, 1)

    def test_linear_sections_over_f5(self):
        w = [(heights.p1_point(F5, 0, 1), heights.p1_point(F5, 0, 1)),
             (heights.p1_point(F5, 1, 1), heights.p1_point(F5, 1, 1))]
        for seed in range(7, 11):
            sec, _, enlarged = heights.sections_avoiding(w, 1, F5, seed=seed)
            assert not enlarged
            assert sec.degree == 1 and sec.g[1] == F5.one
            assert sec.avoids(w)
        # the specific section g(b) = b + 2 avoids both pairs
        g = heights.Section(UPoly.x(F5) + 2)
        assert g.avoids(w)
        # exhaustive count over affine polynomial sections g = a*t + b:
        # b != 0 and a + b != 1 leaves 4*4 = 16 of the 25
        count = 0
        for a in range(5):
            for b in range(5):
                gg = heights.Section(UPoly.from_ints(F5, [b, a]))
                if gg.avoids(w):
                    count += 1
        assert count == 16

    def test_field_enlargement_when_saturated(self):
        # forbid every constant value of F_3: only an extension constant works
        fld = FF(3)
        w = [(heights.p1_point(fld, i, 1), heights.p1_point(fld, i, 1))
             for i in range(3)]
        w += [(heights.p1_point(fld, i, 1), _infinity(fld))
              for i in range(3)]
        w += [(_infinity(fld), heights.p1_point(fld, i, 1))
              for i in range(3)]
        w += [(_infinity(fld), _infinity(fld))]
        sec, fld_used, enlarged = heights.sections_avoiding(w, 0, fld, seed=0)
        assert enlarged and fld_used.order == 9
        assert sec.avoids([
            ((e0, e1), (q0, q1)) for (e0, e1), (q0, q1) in [
                (pair[0], pair[1]) for pair in _embed_pairs(fld, fld_used, w)]])

    @pytest.mark.parametrize("m", [0, 1])
    def test_a_saturated_field_is_left_after_one_pass_over_its_candidates(
            self, m, monkeypatch):
        # every constant of F_3, or every t + c, takes a forbidden value at
        # b = 0: three failed draws, three candidates tested, then F_9
        fld = FF(3)
        zero = heights.p1_point(fld, 0, 1)
        w = [(zero, heights.p1_point(fld, i, 1)) for i in range(3)]
        tested, avoids = [], heights.Section.avoids

        def counted(sec, pairs):
            tested.append(sec.fld.order)
            return avoids(sec, pairs)
        monkeypatch.setattr(heights.Section, "avoids", counted)
        sec, fld_used, enlarged = heights.sections_avoiding(w, m, fld, seed=0)
        assert enlarged and fld_used.order == 9 and sec.degree == m
        assert tested.count(3) == 6

    def test_candidate_pass_keeps_the_drawn_section(self):
        # 2 of the 9 monic quadratics over F_3 avoid w: draws that fail 9
        # times in a row test every candidate, find one, and draw on
        fld = FF(3)
        w = [(heights.p1_point(fld, b, 1), heights.p1_point(fld, q, 1))
             for b, q in [(0, 0), (0, 1), (1, 0)]]
        avoiders = [g for g in itertools.product(range(3), repeat=2)
                    if heights.Section(UPoly.from_ints(fld, [*g, 1])).avoids(w)]
        assert len(avoiders) == 2
        long_runs, found = 0, set()
        for seed in range(40):
            rng, failed = random.Random(seed), 0
            while True:
                digits = [rng.randrange(3) for _ in range(2)]
                if tuple(digits) in avoiders:
                    break
                failed += 1
            sec, fld_used, enlarged = heights.sections_avoiding(w, 2, fld, seed=seed)
            assert fld_used is fld and not enlarged
            assert sec.g == UPoly.from_ints(fld, [*digits, 1])
            long_runs += failed >= 9
            found.add(tuple(digits))
        assert long_runs and len(found) == 2


def _embed_pairs(small, big, pairs):
    _, embed = small.extension(2)
    out = []
    for b, q in pairs:
        out.append(((embed(b[0]), embed(b[1])), (embed(q[0]), embed(q[1]))))
    return out
