"""Building an inseparable p-covering chart by chart, and checking every
identity that makes it a geometric object: cocycle consistency, the glued
differential, and the singular locus with its Hessian tags.
"""

from charpgeom.algebra.finitefield import FF
from charpgeom.algebra.multipoly import MultiPoly
from charpgeom import covers

# ----------------------------------------------------------------------------
# The smallest interesting cover: z^3 = x^2 + y^2 on the affine plane over
# F_3.  One singular point (the origin), and it is nondegenerate.
# ----------------------------------------------------------------------------
print("=" * 72)
fld = FF(3)
x, y = MultiPoly.variables(fld, 2)
cover = covers.build_cover(
    [covers.CoverChart(0, ("x", "y"), x ** 2 + y ** 2)], 3)
records = covers.singular_points(cover, ext=1)
completeness = covers.gradient_completeness(cover, records)
print("cover z^3 = x^2 + y^2 over F_3:")
for r in records:
    print(f"  singular point {tuple(str(c) for c in r.point)}, "
          f"Hessian det {r.hessian_det}, degenerate: {r.degenerate}")
print(f"  completeness: {completeness[0]}")

# ----------------------------------------------------------------------------
# A global example on P^1: the section x0^(p-1) x1 of O(p).  Two charts
# f0 = u and f1 = v^(p-1) glued by the cocycle u = 1/v; the differentials
# d(f_i) glue because the p-th power of the cocycle differentiates away.
# ----------------------------------------------------------------------------
print("=" * 72)
p = 5
fld = FF(p)
form = MultiPoly.monomial(fld, 2, (p - 1, 1), 1)
cov = covers.cover_of_projective_space(1, 1, 1, p, form)
print(f"cover of P^1 from the section X0^{p-1} X1 of O({p}):")
print(f"  chart 0 equation: z^{p} = {cov.charts[0].f.format(['u'])}")
print(f"  chart 1 equation: z^{p} = {cov.charts[1].f.format(['v'])}")
print(f"  cocycle verified on overlaps: {covers.verify_cocycle(cov) == []}")
diff = covers.differential_of_section(cov)
print(f"  differential compatibility checked on "
      f"{diff['overlaps_checked']} overlaps")

# ----------------------------------------------------------------------------
# Reducedness is not optional: a section that is a p-th power would give a
# non-reduced cover, and the builder rejects it with the witness root.
# ----------------------------------------------------------------------------
print("=" * 72)
try:
    covers.build_cover([covers.CoverChart(0, ("x", "y"), x ** 3)], 3)
except covers.NonReducedCover as exc:
    print(f"rejected as expected: {exc}")

# ----------------------------------------------------------------------------
# Genericity: most sections have only nondegenerate singular points.  The
# verdict per sample is exact (a unit-ideal certificate over the closure),
# not a heuristic.
# ----------------------------------------------------------------------------
print("=" * 72)
rep = covers.genericity_sample(1, 1, 1, 3, FF(41), trials=30, seed=11)
print(f"sections of O(3) on P^1 over F_41: {rep.good}/{rep.trials} have only "
      f"nondegenerate singular points (all verdicts exact)")
rep2 = covers.genericity_sample(2, 1, 1, 3, FF(101), trials=25, seed=11)
print(f"sections of O(3) on P^2 over F_101: {rep2.good}/{rep2.trials}")
print("the good fraction approaches 1 as the field grows; each failure is a")
print("proven degenerate point over the closure, never a sampling artifact.")
