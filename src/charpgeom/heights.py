"""Function-field height theory over K = k(t), and its Northcott failures.

The base curve is B = P^1, so K-rational points of P^N are primitive tuples
of polynomials in t and the Weil height of a point is the maximum coordinate
degree of its normalized representative; this equals deg P*(O(1)) for the
section P: P^1 -> P^N the point spreads out to.  Heights here are exact
integers (or exact Fractions over quadratic extensions), and every bounded
comparison exposes its additive constant instead of hiding it in O(1).

"Zariski dense" is operationalized: a finite family is dense at level D when
no hypersurface of degree <= D over k(t) contains it, decided by an exact
rank computation that either certifies full rank or returns a vanishing form
which re-verifies pointwise.

The three bounded-height families (constant points, evaluated configurations
for the blow-up construction, bounded-degree points on hyperelliptic curves)
and the section-avoidance lemma feed the final demonstration: an explicit
family of K'-rational points on an inseparable cover whose discriminant term
is literally constant while the canonical height grows linearly, violating
every fixed affine height inequality.
"""

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from random import Random

from .algebra.unipoly import UPoly, RatFunc, RatFuncField, lcm
from .algebra.multipoly import MultiPoly, monomials_of_degree
from .algebra.linalg import det, rank_and_nullvector
from . import picard


# -- projective points over k(t) -----------------------------------------------------


class ProjPoint:
    """Point of P^N(k(t)): primitive polynomial tuple, leading coord monic."""

    __slots__ = ("field", "varname", "coords")

    def __init__(self, field, coords, varname="t"):
        self.field = field
        self.varname = varname
        self.coords = tuple(coords)

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.field == other.field
                and self.coords == other.coords)

    def __hash__(self):
        return hash(self.coords)

    def __len__(self):
        return len(self.coords)

    def is_constant(self):
        return all(c.degree() <= 0 for c in self.coords)

    def __repr__(self):
        return "(" + " : ".join(c.format(self.varname) for c in self.coords) + ")"


def normalize(field, raw_coords, varname="t"):
    """Primitive normalized representative of a projective tuple over k(t).

    Accepts UPoly / RatFunc / int / field-element entries.  Clears
    denominators, removes the polynomial gcd of all coordinates, and scales
    so the first nonzero coordinate is monic.  The result is independent of
    scaling the input by any nonzero element of k(t).
    """
    rats = []
    for c in raw_coords:
        if isinstance(c, RatFunc):
            rats.append(c)
        elif isinstance(c, UPoly):
            rats.append(RatFunc(c))
        else:
            rats.append(RatFunc(UPoly.const(field, c)))
    if all(r.is_zero() for r in rats):
        raise ValueError("all coordinates are zero")
    den = lcm(field, [r.den for r in rats])
    polys = [r.num * (den // r.den) for r in rats]
    g = None
    for q in polys:
        if not q.is_zero():
            g = q if g is None else g.gcd(q)
    if g.degree() > 0:
        polys = [q // g if not q.is_zero() else q for q in polys]
    lead = next(q for q in polys if not q.is_zero())
    inv = lead.leading().inverse()
    polys = [q.scale(inv) for q in polys]
    return ProjPoint(field, polys, varname)


def weil_height(point):
    """Max coordinate degree of the normalized representative."""
    return max(c.degree() for c in point.coords if not c.is_zero())


@dataclass
class DiscriminantRecord:
    """Field degree and the discriminant analogue d_L = (2g_L - 2)/deg(alpha)."""

    degree_over_K: int
    d_L: Fraction
    note: str = ""


@dataclass
class PointFamily:
    """A family of points with recomputable height/discriminant records."""

    points: list
    provenance: str
    heights: list = dc_field(default_factory=list)
    discriminants: list = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)

    def verify(self):
        """Recompute every height record from the coordinates."""
        for pt, h in zip(self.points, self.heights):
            if isinstance(pt, ProjPoint) and Fraction(weil_height(pt)) != Fraction(h):
                return False
        return True


# -- functoriality ---------------------------------------------------------------------


@dataclass
class FunctorialityReport:
    height_image: int
    degree_times_height: int
    difference: int
    coefficient_bound: int
    within_bound: bool
    image: ProjPoint = None


def functoriality_check(forms, point):
    """Push a point through homogeneous forms and compare heights.

    forms: tuple of MultiPolys over the rational-function domain, homogeneous
    of one common degree in len(point) variables, with no common zero at the
    point.  Reports h(phi(point)) against d*h(point) and checks the bound
    h(phi(p)) <= d*h(p) + C with C the maximum coefficient degree.
    """
    degs = {f.total_degree() for f in forms if not f.is_zero()}
    if len(degs) != 1:
        raise ValueError("forms must be homogeneous of one common degree")
    if any(not f.is_homogeneous() for f in forms):
        raise ValueError("forms must be homogeneous")
    d = degs.pop()
    coords = [RatFunc(c) for c in point.coords]
    values = [f.evaluate(coords) for f in forms]
    if all(v.is_zero() for v in values):
        raise ValueError("the forms all vanish at the point (map undefined)")
    image = normalize(point.field, values, point.varname)
    h_img = weil_height(image)
    h_pt = weil_height(point)
    bound_c = 0
    for f in forms:
        for c in f.terms.values():
            bound_c = max(bound_c, c.num.degree(), c.den.degree())
    report = FunctorialityReport(
        height_image=h_img,
        degree_times_height=d * h_pt,
        difference=d * h_pt - h_img,
        coefficient_bound=bound_c,
        within_bound=h_img <= d * h_pt + bound_c,
        image=image,
    )
    if not report.within_bound:
        raise AssertionError(f"functoriality bound violated: {report}")
    return report


# -- density ---------------------------------------------------------------------------


@dataclass
class DensityVerdict:
    dense: bool
    rank: int
    n_monomials: int
    degree: int
    vanishing_form: MultiPoly = None

    def __repr__(self):
        if self.dense:
            return (f"dense at degree {self.degree} "
                    f"(rank {self.rank} = {self.n_monomials} monomials)")
        return f"non-dense: a degree-{self.degree} form vanishes on the family"


def density_check(points, N, D):
    """No degree-<=D hypersurface over k(t) contains the family?

    Builds the evaluation matrix of all degree-D monomials in N+1 variables
    at the points and computes its exact rank over k(t).  Multiplying a lower
    degree form by a power of a coordinate shows degree-exactly-D vanishing
    is equivalent to degree-<=D vanishing, so checking D alone suffices.
    Returns either a full-rank verdict or a nonzero vanishing form (which the
    caller can re-verify pointwise; see DensityVerdict.vanishing_form).
    ValueError for an empty family, whose field is unknown, and for a point
    without N+1 coordinates.
    """
    if isinstance(points, PointFamily):
        points = points.points
    if not points:
        raise ValueError("density of an empty family is undefined")
    for pt in points:
        if len(pt.coords) != N + 1:
            raise ValueError(f"density in P^{N} needs points with {N + 1} "
                             f"coordinates, got {len(pt.coords)}")
    monos = sorted(monomials_of_degree(N + 1, D), reverse=True)
    dom = RatFuncField(points[0].field)
    rows = []
    for pt in points:
        coords = [RatFunc(c) for c in pt.coords]
        row = []
        for e in monos:
            v = dom.one
            for c, k in zip(coords, e):
                if k:
                    v = v * c ** k
            row.append(v)
        rows.append(row)
    rank, null_vec = rank_and_nullvector(rows, len(monos), dom)
    if null_vec is None:
        return DensityVerdict(dense=True, rank=rank, n_monomials=len(monos),
                              degree=D)
    form = MultiPoly(dom, N + 1, dict(zip(monos, null_vec)))
    return DensityVerdict(dense=False, rank=rank, n_monomials=len(monos),
                          degree=D, vanishing_form=form)


# -- Example 1: constant points --------------------------------------------------------


def all_projective_points(fld, N):
    """Standard representatives of P^N(F_q): first nonzero coordinate 1."""
    pts = []
    for lead in range(N + 1):
        tails = itertools.product(range(fld.order), repeat=N - lead)
        for tail in tails:
            pt = ([fld.zero] * lead + [fld.one]
                  + [fld.from_index(i) for i in tail])
            pts.append(tuple(pt))
    return pts


# The degree at which Example 1 checks its family for density: conics.
DENSITY_DEGREE = 2


def example1_constant_points(N, fld):
    """All of P^N(F_q) as constant points of P^N(k(t)): heights all zero.

    The family has (q^(N+1)-1)/(q-1) points of height exactly 0, unbounded in
    number as q grows, and no degree-<=D hypersurface contains it once q is
    large relative to D (a nonzero degree-D form vanishes on at most
    D*q^(N-1) + |P^(N-2)| points of P^N(F_q)); the verdict at D =
    DENSITY_DEGREE is computed exactly, not inferred from the bound.
    """
    pts = [ProjPoint(fld, tuple(UPoly.const(fld, c) for c in cs))
           for cs in all_projective_points(fld, N)]
    heights = [weil_height(pt) for pt in pts]
    discs = [DiscriminantRecord(1, Fraction(-2), "K-rational, B = P^1")
             for _ in pts]
    verdict = density_check(pts, N, DENSITY_DEGREE)
    q = fld.order
    count = (q ** (N + 1) - 1) // (q - 1)
    fam = PointFamily(
        points=pts,
        provenance=f"constant points of P^{N}(F_{q})",
        heights=heights,
        discriminants=discs,
        extras={
            "count": count,
            "density": verdict,
            "density_note": (
                f"a nonzero degree-{DENSITY_DEGREE} form vanishes on at most "
                f"{DENSITY_DEGREE}*q^{N-1} + |P^{N-2}(F_q)| points, so the family "
                f"is dense at this degree for all large q; verdict above is exact"),
        },
    )
    assert len(pts) == count
    return fam


# -- Example 2: evaluated configurations and the blow-up construction -------------------


@dataclass
class FiberComparisonReport:
    parameters: tuple
    pgl: picard.PGLResult
    non_isotrivial_witness: bool
    note: str = ""


def example2_blowup_config(maps, fld):
    """Compare the configurations {f_i(b)} at two good parameters b, b'.

    maps: r > N+4 morphisms P^1 -> P^N over k(t), each a coordinate tuple of
    UPolys in t.  Fibers where the first N+2 points degenerate are skipped
    (resampled).  Inequivalent fibers witness non-isotriviality of the
    blow-up of P^N along the sections; the blown-down constant points keep
    bounded height with respect to the pullback polarization (recorded as a
    note: the pullback of O(1) is big, so a bounded-height statement for an
    ample class follows from effectivity off the exceptional divisor).
    """
    if not maps:
        raise ValueError("no maps given")
    N = len(maps[0]) - 1
    r = len(maps)
    if r <= N + 4:
        raise ValueError(f"need r > N+4 = {N+4} morphisms, got {r}")
    good_fibers = []
    for idx in range(fld.order):
        b = fld.from_index(idx)
        try:
            config = picard.PointConfig(
                fld, [tuple(c.evaluate(b) for c in f) for f in maps])
        except ValueError:
            continue     # some map degenerates at this fiber
        if picard.in_general_position(fld, config.points[:N + 2]) is None:
            good_fibers.append((b, config))
        if len(good_fibers) == 2:
            break
    if len(good_fibers) < 2:
        raise ValueError("fewer than two fibers with the frame in general "
                         "position; enlarge the field")
    (b1, cfg1), (b2, cfg2) = good_fibers
    res = picard.pgl_equivalence(cfg1, cfg2)
    return FiberComparisonReport(
        parameters=(b1, b2),
        pgl=res,
        non_isotrivial_witness=not res.equivalent,
        note=("fibers inequivalent under PGL at the sampled parameters: the "
              "blown-up family is non-isotrivial (sampled-fiber criterion); "
              "constant points have bounded height for the pullback of O(1)")
        if not res.equivalent else
        "sampled fibers are PGL-equivalent; no witness at these parameters",
    )


# -- Example 3: bounded-degree points on hyperelliptic curves ----------------------------


@dataclass
class BoundedDegreeRecord:
    x0: object
    g_value: RatFunc
    degree_over_K: int
    d_L: Fraction
    height_exact: Fraction
    height_bound: int
    note: str = ""


def _odd_multiplicity_degree(poly):
    """Total degree of the odd-multiplicity part, via exact char-p
    squarefree decomposition (number of odd finite branch places counted
    over the algebraic closure)."""
    if poly.degree() <= 0:
        return 0
    _, parts = poly.squarefree_decomposition()
    return sum(g.degree() for mult, g in parts.items() if mult % 2 == 1)


def example3_bounded_degree(g_coeffs, xs):
    """Points of degree <= 2 and bounded height on y^2 = g(x) over k(t).

    g_coeffs: coefficients of g as RatFuncs (low to high), deg g >= 3; xs: a
    sample of constant x-values.  Each x0 yields the point (x0, y0) with
    y0^2 = g(x0), defined over K or a quadratic extension L; the record holds
    the exact height (max(deg num, deg den)/2 over the quadratic extension),
    the uniform bound A = max t-degree of the coefficients of g, and d_L
    computed by Hurwitz from the exact branch-place count of y^2 = g(x0).
    """
    fld = g_coeffs[0].field
    if len(g_coeffs) - 1 < 3:
        raise ValueError("need deg g >= 3")
    if fld.p == 2:
        raise ValueError("characteristic 2 is excluded")
    _check_squarefree_in_x(g_coeffs)
    bound_a = max(max(c.num.degree(), c.den.degree(), 0) for c in g_coeffs)
    records = []
    points = []
    heights = []
    discs = []
    for x0 in xs:
        x0 = fld.elem(x0)
        g_val = RatFunc(UPoly(fld))
        xp = fld.one
        for c in g_coeffs:
            g_val = g_val + c * RatFunc(UPoly.const(fld, xp))
            xp = xp * x0
        if g_val.is_zero():
            rec = BoundedDegreeRecord(
                x0=x0, g_value=g_val, degree_over_K=1, d_L=Fraction(-2),
                height_exact=Fraction(0), height_bound=bound_a,
                note="ramified sample: g(x0) = 0, y0 = 0, degree 1")
            pt = normalize(fld, [RatFunc.const(fld, x0), g_val,
                                 RatFunc.const(fld, 1)])
            points.append(pt)
        else:
            odd_fin = (_odd_multiplicity_degree(g_val.num)
                       + _odd_multiplicity_degree(g_val.den))
            v_inf = g_val.den.degree() - g_val.num.degree()
            branches = odd_fin + (1 if v_inf % 2 else 0)
            e = max(g_val.num.degree(), g_val.den.degree())
            if branches == 0:
                # g(x0) is a square in kbar(t): degree-1 point (possibly after
                # a constant-field extension for the leading coefficient)
                rec = BoundedDegreeRecord(
                    x0=x0, g_value=g_val, degree_over_K=1, d_L=Fraction(-2),
                    height_exact=Fraction(e, 2), height_bound=bound_a,
                    note="g(x0) a square in kbar(t): K-rational up to a "
                         "constant-field extension")
            else:
                assert branches % 2 == 0, "odd branch count is impossible"
                genus = (branches - 2) // 2
                rec = BoundedDegreeRecord(
                    x0=x0, g_value=g_val, degree_over_K=2,
                    d_L=Fraction(2 * genus - 2, 2),
                    height_exact=Fraction(e, 2), height_bound=bound_a,
                    note=f"quadratic extension, {branches} branch places, "
                         f"genus {genus} by Hurwitz")
            points.append(None)   # lives over L, no k(t)-coordinate tuple
        if rec.height_exact > rec.height_bound:
            raise AssertionError("height record exceeds the uniform bound")
        records.append(rec)
        heights.append(rec.height_exact)
        discs.append(DiscriminantRecord(rec.degree_over_K, rec.d_L, rec.note))
    return PointFamily(
        points=points,
        provenance=f"bounded-degree points on y^2 = g(x), A = {bound_a}",
        heights=heights,
        discriminants=discs,
        extras={"records": records, "height_bound": bound_a},
    )


def _check_squarefree_in_x(g_coeffs):
    """Reject certainly-non-squarefree g: Res_x(g, g') = 0, i.e. g and g'
    share a root.

    Coefficients live in k(t); when g' = 0 (an inseparable polynomial in x)
    squarefreeness over k(t)-bar is not certified and the family proceeds,
    since all per-point bookkeeping only uses the values g(x0).
    """
    fld = g_coeffs[0].field
    g = _trimmed(g_coeffs)
    deriv = _trimmed([c * RatFunc(UPoly.const(fld, i % fld.p))
                      for i, c in enumerate(g) if i])
    if not deriv:
        return
    dom = RatFuncField(fld)
    if not det(_sylvester(g, deriv, dom.zero), dom):
        raise ValueError("g is not squarefree over k(t)")


def _trimmed(coeffs):
    """Coefficient list (low to high) without its zero leading entries."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _sylvester(a, b, zero):
    """Sylvester matrix of two nonzero coefficient lists (low to high), of
    degrees m and n: n shifted rows of a, then m shifted rows of b."""
    m, n = len(a) - 1, len(b) - 1
    return ([[zero] * i + a[::-1] + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + b[::-1] + [zero] * (m - 1 - i) for i in range(m)])


# -- sections of P^1 x P^1 avoiding a finite set -----------------------------------------


def p1_point(fld, a, b):
    """Point of P^1 as a normalized pair: (tau, 1) affine or (1, 0) infinite."""
    a, b = fld.elem(a), fld.elem(b)
    if b:
        return (a / b, fld.one)
    if a:
        return (fld.one, fld.zero)
    raise ValueError("(0, 0) is not a point of P^1")


class Section:
    """Polynomial section t -> (g(t) : 1) of P^1 x P^1 -> P^1.

    Its morphism degree is m = max(deg g, 0).  At infinity the homogenized
    pair (g_m : 0) is read off the degree-m coefficient, which is (1 : 0)
    for a monic g of degree m >= 1 and (g : 1) for a constant g.
    """

    def __init__(self, g):
        self.g = g
        self.fld = g.field
        self.degree = max(g.degree(), 0)

    def value(self, pt):
        """Value at a P^1 point (pair normalized as in p1_point)."""
        if pt[1]:
            return (self.g.evaluate(pt[0] / pt[1]), self.fld.one)
        m = self.degree
        return p1_point(self.fld, self.g[m], 0 if m else 1)

    def avoids(self, w_pairs):
        return all(self.value(b) != q for b, q in w_pairs)

    def as_ratfunc(self):
        return RatFunc(self.g)

    def __repr__(self):
        return f"({self.g.format()} : 1)"


# Seeded draws over one field before `sections_avoiding` enlarges it.
SECTION_TRIES = 20000


def sections_avoiding(w_pairs, m, fld, seed=0):
    """A polynomial section of degree m whose graph avoids every (b, q) in
    w_pairs: a constant for m = 0, a monic polynomial of degree m otherwise.

    Seeded search over the coefficients; after SECTION_TRIES draws, or
    once the failed draws equal the field's q^max(m, 1) candidates and a
    test of each finds none that avoids, the search restarts over the
    quadratic extension, with the avoidance set embedded.  Returns
    (section, fld_used, enlarged).

    Counting guarantee: for m = 0 a constant section exists as soon as
    |F_q| > #{q-values in W}; each enlargement squares q, so the search
    terminates.
    """
    rng, enlarged, current, pairs = Random(seed), False, fld, list(w_pairs)
    width = max(m, 1)
    while True:
        candidates = current.order ** width
        for tries in range(SECTION_TRIES):
            if tries == candidates and not any(
                    _section(current, digits, m).avoids(pairs)
                    for digits in itertools.product(range(current.order), repeat=width)):
                break
            sec = _section(current, [rng.randrange(current.order) for _ in range(width)], m)
            if sec.avoids(pairs):
                return sec, current, enlarged
        # enlarge the constant field and re-embed the avoidance set
        big, embed = current.extension(2)
        pairs = [((embed(b[0]), embed(b[1])), (embed(q[0]), embed(q[1])))
                 for b, q in pairs]
        current = big
        enlarged = True


def _section(fld, digits, m):
    """Coefficients `from_index(digits)`, low to high, then a 1 for m > 0."""
    return Section(UPoly(fld, [fld.from_index(i) for i in digits] + [fld.one] * (m > 0)))


# -- the Vojta-violation pipeline ---------------------------------------------------------


@dataclass
class VojtaFamilyEntry:
    m: int
    section: object
    base_point: ProjPoint
    z: RatFunc
    base_height: int
    xi_degree: int
    canonical_height: int
    discriminant: Fraction


@dataclass
class VojtaViolation:
    A: int
    c: int
    m: int
    height: int
    bound: Fraction


@dataclass
class VojtaReport:
    p: int
    d: int
    n: int
    entries: list
    violations: list
    slope_measured: list
    slope_predicted: int
    canonical_class: picard.DivClass
    avoidance_set_size: int
    notes: str = ""

    def verify(self):
        ok = all(e.canonical_height == (self.p - 2) * e.xi_degree
                 + self.canonical_class.h * e.base_height for e in self.entries)
        ok = ok and all(s == self.slope_predicted for s in self.slope_measured)
        ok = ok and all(v.height > v.bound for v in self.violations)
        return ok


def xi_degree_of_fiber_coordinate(z, e_times_hH):
    """Degree of the tautological class on the section through (1 : z).

    Counts the poles of the fiber coordinate in the chart-corrected
    trivialization: finite poles of z plus the excess of deg z over the
    available twist e*h_H at infinity.  Zero exactly when the section stays
    inside the affine part of the bundle.
    """
    finite_poles = z.den.degree()
    at_infinity = max(0, z.num.degree() - z.den.degree() - e_times_hH)
    return finite_poles + at_infinity


# The affine height bounds A*d + c that the Vojta demonstration violates.
VIOLATED_BOUNDS = tuple((a, c) for a in (1, 2, 5) for c in (0, 10))


def vojta_violation_demo(lift_bundle, max_degree, seed=0):
    """Family of K'-rational points with constant discriminant and
    unbounded canonical height.

    lift_bundle comes from the covers module: it knows the cover parameters
    (p, d, n), lifts parameter tuples over K' = k(s) to points on the cover
    with an exact cover-equation check, and exposes the finite avoidance set
    derived from the singular locus.  For each degree m the demo picks (via
    the section-avoidance search) a monic polynomial section u1 of degree m
    and a constant u2 avoiding the bad values, lifts, and pairs the point
    against the canonical class:

        h_m = (p-2)*deg_xi(p_m) + coH * h_H(p_m)

    with h_H the Weil height of the base point measured on explicit
    coordinates and deg_xi the pole count of the fiber coordinate.  The
    discriminant term is literally constant (-2: the points are K'-rational
    and B = P^1), so every affine bound A*d + c is eventually violated; the
    report exhibits the first violating member for each (A, c) in
    VIOLATED_BOUNDS.
    """
    p, d, n = lift_bundle.p, lift_bundle.d, lift_bundle.n
    fld = lift_bundle.fld
    kcls = picard.adjunction_class(p, d, n)
    w_pairs = lift_bundle.avoidance_pairs()
    # the fiber parameter must stay finite, so search affine constants only
    const_sec, _, enlarged = sections_avoiding(w_pairs, 0, fld, seed=seed)
    if enlarged:
        raise ValueError("base field too small for the avoidance set; "
                         "rebuild the bundle over the larger field")
    u2 = const_sec.as_ratfunc()
    entries = []
    for m in range(1, max_degree + 1):
        sec, _, enlarged = sections_avoiding(w_pairs, m, fld, seed=seed + m)
        if enlarged:
            raise ValueError("avoidance search enlarged the field; rebuild "
                             "the bundle over the larger field")
        u1 = sec.as_ratfunc()
        lifted = lift_bundle.lift([u1, u2])
        base = normalize(fld, [RatFunc.const(fld, 1)] + lifted.base_coords,
                         varname="s")
        h_base = weil_height(base)
        xi_deg = xi_degree_of_fiber_coordinate(lifted.z, n * d * h_base)
        h_can = (p - 2) * xi_deg + kcls.h * h_base
        entries.append(VojtaFamilyEntry(
            m=m, section=sec, base_point=base, z=lifted.z,
            base_height=h_base, xi_degree=xi_deg, canonical_height=h_can,
            discriminant=Fraction(-2)))
    slopes = [entries[i + 1].canonical_height - entries[i].canonical_height
              for i in range(len(entries) - 1)]
    predicted = kcls.h * p      # polynomial sections: h_H = p*m, xi-degree 0
    violations = []
    for a_val, c_val in VIOLATED_BOUNDS:
        bound = Fraction(a_val) * Fraction(-2) + c_val
        hit = next((e for e in entries if e.canonical_height > bound), None)
        if hit is not None:
            violations.append(VojtaViolation(
                A=a_val, c=c_val, m=hit.m,
                height=hit.canonical_height, bound=bound))
    report = VojtaReport(
        p=p, d=d, n=n, entries=entries, violations=violations,
        slope_measured=slopes, slope_predicted=predicted,
        canonical_class=kcls, avoidance_set_size=len(w_pairs),
        notes="discriminant is literally constant (-2) across the family; "
              "heights measured on explicit normalized coordinates",
    )
    if not report.verify():
        raise AssertionError("vojta report failed internal re-verification")
    return report
