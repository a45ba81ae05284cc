"""Two computable witnesses for (non-)isotriviality: constancy of the
j-invariant for plane cubics over k(t), and PGL-orbit comparison of point
configurations at different fibers.
"""

from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.unipoly import UPoly, RatFunc
from charpgeom.algebra.linalg import mat_vec
from charpgeom import picard

# ----------------------------------------------------------------------------
# j-invariants over k(t), char >= 5.  A curve with constant j becomes
# constant after a finite base extension even when its equation visibly
# involves t: y^2 z = x^3 + t z^3 has j = 0.
# ----------------------------------------------------------------------------
print("=" * 72)
fld = FF(5)
t = UPoly.x(fld)
cases = [
    ("y^2 z = x^3 + t z^3", RatFunc(UPoly(fld)), RatFunc(t)),
    ("y^2 z = x^3 + x z^2", RatFunc(UPoly.const(fld, 1)), RatFunc(UPoly(fld))),
    ("y^2 z = x^3 + t x z^2 + z^3", RatFunc(t), RatFunc(UPoly.const(fld, 1))),
]
for label, a, b in cases:
    j, iso = picard.j_invariant(a, b)
    print(f"  {label}: j = {j.format()}  ->  "
          f"{'isotrivial' if iso else 'NOT isotrivial'}")

# ----------------------------------------------------------------------------
# PGL-orbit comparison.  Four points of P^1 carry a cross-ratio; ordered
# configurations are projectively equivalent exactly when the unique map
# matching the first three points sends the rest correctly.
# ----------------------------------------------------------------------------
print("=" * 72)
f7 = FF(7)
a = picard.PointConfig(f7, [(0, 1), (1, 1), (1, 0), (2, 1)])
b = picard.PointConfig(f7, [(0, 1), (1, 1), (1, 0), (3, 1)])
print(f"  config A: {a}")
print(f"  config B: {b}")
print(f"  cross-ratio of A: {picard.cross_ratio(f7, *a.points)}")
print(f"  cross-ratio of B: {picard.cross_ratio(f7, *b.points)}")
print(f"  pgl_equivalence(A, B): {picard.pgl_equivalence(a, b)}")
print(f"  pgl_equivalence(A, A): {picard.pgl_equivalence(a, a)}")

# moving a configuration by a fixed transform keeps it in its orbit
mat = [[f7.elem(1), f7.elem(2)], [f7.elem(3), f7.elem(2)]]
moved = picard.PointConfig(
    f7, [mat_vec(mat, pt, f7) for pt in a.points])
print(f"  A moved by a fixed PGL element: "
      f"{picard.pgl_equivalence(a, moved)}")
