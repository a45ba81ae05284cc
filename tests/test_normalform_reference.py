"""The normal-form engine against the frozen engine that stored corrections
as MultiPolys.

`tests_support_normalform_reference` keeps `normal_form` as it was when each
correction step was a {variable: MultiPoly} dict rebuilt into jets for
every composition.  These tests run both on the CLI's seeded random inputs
over F_3, F_5, F_7, F_9 and F_25 (n = 1..3, r = 3..8) and over the untabled
prime 65537, whose ring kernel holds field elements (n <= 2), and compare
every step and its substitution jets, every total jet, the certificate, a0
and the extension degree.  Jets are compared by their terms, never by repr.
"""

from random import Random

import pytest

import tests_support_normalform_reference as reference
from charpgeom.algebra.finitefield import FF
from charpgeom.cli import _random_nondegenerate
from charpgeom.normalform import normal_form

CASES = [(p, m, n, r) for p, m in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2))
         for n in (1, 2, 3) for r in range(3, 9)]
CASES += [(65537, 1, n, r) for n in (1, 2) for r in (3, 5, 8)]


def assert_same(new, old, n, r):
    assert new.extension_degree == old.extension_degree
    assert new.fld == old.fld and new.a0 == old.a0
    assert new.certificate == old.certificate and new.target == old.target
    assert new.change.order == old.change.order == r
    assert new.change.total == old.change.total
    assert [(s.kind, s.degree, s.matrix, s.describe()) for s in new.change.steps] \
        == [(s.kind, s.degree, s.matrix, s.describe()) for s in old.change.steps]
    for step, ref_step in zip(new.change.steps, old.change.steps):
        assert step.jets == reference._step_jets(old.fld, n, r, ref_step)


@pytest.mark.parametrize("p,m,n,r", CASES)
def test_engine_matches_reference(p, m, n, r):
    fld = FF(p, m)
    rng = Random(f"{p}^{m}:{n}:{r}")
    for _ in range(2 if fld.order < 100 else 1):
        f = _random_nondegenerate(fld, n, r, rng)
        assert_same(normal_form(f, r), reference.normal_form(f, r), n, r)


def test_corrections_cover_several_steps():
    # the seeded inputs above must reach correction steps over F_p and F_{p^2}
    kinds = set()
    for p, m, n, r in CASES:
        if r >= 6 and n == 2:
            res = normal_form(_random_nondegenerate(
                FF(p, m), n, r, Random(f"{p}^{m}:{n}:{r}")), r)
            steps = [s for s in res.change.steps if s.kind == "correction"]
            if len(steps) >= 2:
                kinds.add(res.fld.m)
    assert {1, 2} <= kinds
