"""Blow-up desingularization: chart recursion, certificates, multiplicity 2."""

import pytest

from charpgeom import desing
from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.multipoly import MultiPoly
from charpgeom.desing import (
    blowup_step, desingularize, local_model, smoothness_certificate,
    pullback_ledger, chart_overlap_consistency,
)


class TestBlowupStep:
    def test_p3_z_chart_smooth(self):
        charts = blowup_step(local_model(3, 2), 0, ("z", "x1", "x2"))
        zc = charts[0]
        fld = zc.strict.domain
        z, w1, w2 = MultiPoly.variables(fld, 3)
        assert zc.strict == z - w1 ** 2 - w2 ** 2
        assert zc.multiplicity == 2

    def test_p5_z_chart_still_singular(self):
        charts = blowup_step(local_model(5, 2), 0, ("z", "x1", "x2"))
        zc = charts[0]
        fld = zc.strict.domain
        z, w1, w2 = MultiPoly.variables(fld, 3)
        assert zc.strict == z ** 3 - w1 ** 2 - w2 ** 2
        assert zc.multiplicity == 2

    def test_p5_x_chart_certified_smooth(self):
        # substituting z = v x1 into z^5 - x1^2 - x2^2 factors off x1^2 and
        # leaves v^5 x1^3 - 1 - u^2, which the Jacobian criterion certifies
        charts = blowup_step(local_model(5, 2), 0, ("z", "x1", "x2"))
        xc = charts[1]
        fld = xc.strict.domain
        v, x1, u2 = MultiPoly.variables(fld, 3)
        assert xc.strict == v ** 5 * x1 ** 3 - 1 - u2 ** 2
        assert xc.multiplicity == 2
        status, cert = smoothness_certificate(xc.strict)
        assert status == "smooth"
        assert cert.verify()

    def test_nonsingular_center_rejected(self):
        fld = FF(3)
        x = MultiPoly.var(fld, 2, 0)
        with pytest.raises(ValueError):
            # gradient(0) != 0
            blowup_step(x + MultiPoly.var(fld, 2, 1) ** 2, 0, ("x", "y"))
        with pytest.raises(ValueError):
            blowup_step(x ** 2 + 1, 0, ("x", "y"))     # not on the surface


class TestSmoothnessCertificate:
    def test_graph_is_smooth(self):
        fld = FF(5)
        z, w1, w2 = MultiPoly.variables(fld, 3)
        status, cert = smoothness_certificate(z - w1 ** 2 - w2 ** 2)
        assert status == "smooth" and cert.verify()

    def test_singular_witness_at_origin(self):
        fld = FF(5)
        z, w1, w2 = MultiPoly.variables(fld, 3)
        status, payload = smoothness_certificate(z ** 3 - w1 ** 2 - w2 ** 2)
        assert status == "singular"
        assert all(c == payload["field"].zero for c in payload["witness"])

    def test_exhaustion_never_reported_smooth(self, monkeypatch):
        # no pair processed and no field searched
        real = desing.groebner_membership_one
        monkeypatch.setattr(desing, "groebner_membership_one",
                            lambda gens: real(gens, max_pairs=0))
        monkeypatch.setattr(desing, "WITNESS_EXTENSIONS", ())
        fld = FF(5)
        z, w1, w2 = MultiPoly.variables(fld, 3)
        status, payload = smoothness_certificate(z ** 3 - w1 ** 2 - w2 ** 2)
        assert status in ("exhausted", "inconclusive", "singular")
        assert status != "smooth"

    def test_witness_outside_base_field(self):
        # w1^2 + 1 = 0 has no F_3 point; witness must come from F_9
        fld = FF(3)
        z, w1 = MultiPoly.variables(fld, 2)
        eq = (w1 ** 2 + 1) ** 2 + z ** 3 * w1   # singular where w1^2=-1, z=0
        status, payload = smoothness_certificate(eq)
        if status == "singular":
            assert payload["field"].order in (3, 9)


class TestDesingularize:
    @pytest.mark.parametrize("p,n,steps", [(3, 2, 1), (5, 3, 2), (7, 2, 3)])
    def test_step_counts(self, p, n, steps):
        rep = desingularize(p, n)
        assert rep.num_blowups == steps == (p - 1) // 2

    def test_p5_intermediate_equation(self):
        rep = desingularize(5, 3)
        inter = rep.steps[0][0].strict
        fld = inter.domain
        zz = MultiPoly.var(fld, 4, 0)
        expected = zz ** 3
        for i in range(1, 4):
            expected = expected - MultiPoly.var(fld, 4, i) ** 2
        assert inter == expected

    def test_p7_exponent_cascade(self):
        rep = desingularize(7, 2)
        assert [s[0].strict.degree_in(0) for s in rep.steps] == [5, 3, 1]

    def test_all_charts_certified(self):
        rep = desingularize(7, 3)
        for charts in rep.steps:
            for ch in charts:
                if ch.certificate_status == "smooth":
                    assert ch.smooth_certificate.verify()
                else:
                    assert ch.certificate_status.startswith("singular center")

    def test_final_equation_smooth_shape(self):
        rep = desingularize(11, 2)
        final = rep.final_equation
        assert final.degree_in(0) == 1
        # z - sum w^2 exactly
        fld = final.domain
        expected = MultiPoly.var(fld, 3, 0)
        for i in range(1, 3):
            expected = expected - MultiPoly.var(fld, 3, i) ** 2
        assert final == expected

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            desingularize(4, 2)
        with pytest.raises(ValueError):
            desingularize(3, 1)
        # odd but not prime: refused at the entry, before any field is built
        with pytest.raises(ValueError, match="p must be an odd prime"):
            desingularize(9, 2)


class TestLedgerAndOverlaps:
    def test_pullback_factorization_p3(self):
        # substituting x_i = w_i z into z^3 - x1^2 - x2^2 gives
        # z^2 (z - w1^2 - w2^2): exceptional exponent exactly 2
        rep = desingularize(3, 2)
        led = pullback_ledger(rep)
        assert all(c["ok"] and c["multiplicity"] == 2 for c in led["per_chart"])
        assert "2*(E_1" in led["identity"]

    def test_pullback_factorization_p5_second_step(self):
        rep = desingularize(5, 2)
        led = pullback_ledger(rep)
        step2 = [c for c in led["per_chart"] if c["step"] == 1]
        assert step2 and all(c["multiplicity"] == 2 for c in step2)

    def test_trivial_ledger_for_smooth_input(self):
        # zero steps: nothing to blow up for p = 3 after one step; the
        # degenerate "already smooth" case has an empty ledger sum
        rep = desingularize(3, 2)
        assert len(rep.multiplicities) == 1

    def test_chart_overlap_consistency(self):
        for p, n in [(3, 2), (5, 2), (5, 3)]:
            rep = desingularize(p, n)
            for charts in rep.steps:
                results = chart_overlap_consistency(charts)
                assert all(r["ok"] for r in results)
