"""Three families showing that bounded height + bounded degree can be infinite
over k(t), in ways impossible over number fields.

Heights over K = k(t) count t-degrees of primitive coordinate tuples; the
finiteness that Northcott's theorem gives over number fields fails here, and
each family below fails it for a different structural reason.
"""

from fractions import Fraction

from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.unipoly import UPoly, RatFunc
from charpgeom import heights

# ----------------------------------------------------------------------------
# Family 1: constant points.  Every point of P^2(F_q) is a point of P^2(k(t))
# with height exactly 0.  The family grows with q and no conic contains it.
# ----------------------------------------------------------------------------
print("=" * 72)
print("Family 1: constant points of P^2")
for q in (3, 5):
    fam = heights.example1_constant_points(2, FF(q))
    verdict = fam.extras["density"]
    print(f"  q = {q}: {len(fam.points)} points, all of height 0; "
          f"density at degree 2: {verdict}")

# ----------------------------------------------------------------------------
# Family 2: moving configurations.  Blowing up P^1 in six sections gives a
# family whose fibers are pairwise PGL-inequivalent: a non-isotrivial variety
# that still carries the bounded-height constant points upstairs.
# ----------------------------------------------------------------------------
print("=" * 72)
print("Family 2: six moving blow-up centers on P^1 over F_7")
fld = FF(7)
t = UPoly.x(fld)
one, zero = UPoly.const(fld, 1), UPoly(fld)
maps = [(one, zero), (zero, one), (one, one), (one, t), (one, t * t),
        (one, t + 1)]
rep = heights.example2_blowup_config(maps, fld)
print(f"  sampled fibers at t = {rep.parameters[0]}, {rep.parameters[1]}: "
      f"{rep.pgl}")
print(f"  non-isotriviality witness: {rep.non_isotrivial_witness}")
print(f"  {rep.note}")

# ----------------------------------------------------------------------------
# Family 3: bounded degree.  On the curve y^2 = x^3 + t, every constant x0
# gives a point defined over a quadratic extension whose height and whose
# Hurwitz discriminant term are both uniformly bounded.
# ----------------------------------------------------------------------------
print("=" * 72)
print("Family 3: points of degree <= 2 on y^2 = x^3 + t over F_5")
fld = FF(5)
t = UPoly.x(fld)
g = [RatFunc(t), RatFunc(UPoly(fld)), RatFunc(UPoly(fld)),
     RatFunc(UPoly.const(fld, 1))]
fam = heights.example3_bounded_degree(g, list(fld.elements()))
for rec in fam.extras["records"]:
    print(f"  x0 = {rec.x0}: degree {rec.degree_over_K}, "
          f"height {rec.height_exact} <= {rec.height_bound}, "
          f"d_L = {rec.d_L}   ({rec.note})")
assert all(r.d_L == Fraction(-1) for r in fam.extras["records"])
print("  the family grows with q while heights and d_L stay bounded.")
