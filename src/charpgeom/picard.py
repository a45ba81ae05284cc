"""Divisor-class arithmetic on blown-up P(O + L^n) over P^2, and
isotriviality witnesses.

The lattice basis is (xi, H, E_1..E_k): xi the tautological class of the
P^1-bundle Y = P(O + L^n) over X = P^2 with L = O(d), H the pullback of
O_{P^2}(1), and E_i the exceptional classes of k point blow-ups.  All the
geometry used downstream is linear algebra in this basis:

    class of the p-covering Z_s        p*xi + n*p*d*H
    K of the blown-up ambient          -2*xi + (n*d - 3)*H + 2*sum(E_i)
    K of the desingularized cover      (p-2)*xi + (d*n*(p+1) - 3)*H + 0*sum(E_i)

The adjunction class is computed along two independent routes (closed form
vs. sum of the constituent classes) and the module refuses to return a value
on which the two routes disagree.  The exceptional coefficient is N - 2 with
N = dim X = 2, hence 0: blow-up corrections cancel out of the canonical class
of the cover, which is what makes the explicit height pairings downstream
insensitive to where the singular points sit.

Isotriviality witnesses: PGL-orbit comparison of point configurations
(ordered, via the unique transform fixing a frame of N + 2 points in general
position) and constancy of the j-invariant for plane cubics over k(t).
"""

import itertools
from dataclasses import dataclass

from .algebra.finitefield import FiniteField, is_prime
from .algebra.unipoly import RatFunc, UPoly
from .algebra.linalg import det, inverse, mat_mul, mat_vec, solve


@dataclass(frozen=True)
class DivClass:
    """Integer vector in the Picard basis (xi, H, E_1..E_k)."""

    xi: int
    h: int
    exc: tuple = ()

    def __add__(self, other):
        self._check(other)
        return DivClass(self.xi + other.xi, self.h + other.h,
                        tuple(a + b for a, b in zip(self.exc, other.exc)))

    def __sub__(self, other):
        self._check(other)
        return DivClass(self.xi - other.xi, self.h - other.h,
                        tuple(a - b for a, b in zip(self.exc, other.exc)))

    def __neg__(self):
        return DivClass(-self.xi, -self.h, tuple(-a for a in self.exc))

    def scale(self, c):
        return DivClass(c * self.xi, c * self.h, tuple(c * a for a in self.exc))

    def _check(self, other):
        if len(self.exc) != len(other.exc):
            raise ValueError("divisor classes live in different lattices")

    def __repr__(self):
        bits = [f"{self.xi}*xi", f"{self.h}*H"]
        bits += [f"{c}*E{i+1}" for i, c in enumerate(self.exc)]
        return " + ".join(bits)


def class_of_cover(p, d, n, k=0):
    """Class of the p-covering hypersurface Z_s in Pic(Y): p*xi + n*p*d*H."""
    _check_params(p, d, n)
    return DivClass(p, n * p * d, (0,) * k)


def canonical_of_ambient(p, d, n, k=0):
    """K of Y blown up in k points: -2*xi + (n*d - 3)*H + 2*sum(E_i).

    The -3H is K_{P^2}; the exceptional coefficient is N = dim P^2 = 2, the
    point-blow-up exponent on the 3-fold Y.
    """
    _check_params(p, d, n)
    return DivClass(-2, n * d - 3, (2,) * k)


def strict_transform_of_cover(p, d, n, k=0):
    """Class of the strict transform: pullback of Z_s minus 2*sum(E_i).

    Each of the k blow-up centers is a double point of Z_s (the exceptional
    multiplicity the desing module verifies by factorization), so the strict
    transform subtracts 2 on every exceptional class.
    """
    return class_of_cover(p, d, n, k) - DivClass(0, 0, (2,) * k)


def adjunction_class(p, d, n, k=0):
    """Canonical class of the desingularized cover, via two routes.

    Route 1 is the closed form (p-2)*xi + (d*n*(p+1) - 3)*H + (N-2)*sum(E_i)
    with N = 2; route 2 sums the constituents K_ambient + strict transform.
    Both are computed and compared exactly; disagreement raises.
    """
    _check_params(p, d, n)
    direct = DivClass(p - 2, d * n * (p + 1) - 3, (0,) * k)
    summed = canonical_of_ambient(p, d, n, k) + strict_transform_of_cover(p, d, n, k)
    if direct != summed:
        raise AssertionError(
            f"adjunction routes disagree: {direct!r} vs {summed!r}")
    return direct


# Largest n the general-type threshold search tries.
GENERAL_TYPE_N_MAX = 64


def general_type_threshold(p, d):
    """Least n for which the sufficient general-type criterion certifies.

    Criterion: the xi-coefficient p-2 and the H-coefficient d*n*(p+1) - 3 of
    the canonical class are both >= 1 (a big-and-nef part), and the effective
    exceptional part is nonnegative (it is 0 here).  Returns (n, report).
    """
    _check_params(p, d, 1)
    for n in range(1, GENERAL_TYPE_N_MAX + 1):
        cls = adjunction_class(p, d, n)
        if cls.xi >= 1 and cls.h >= 1:
            report = {
                "criterion": "xi-coefficient >= 1 and H-coefficient >= 1; "
                             "exceptional part (N-2)*sum(E) = 0 is effective",
                "n": n,
                "xi_coefficient": cls.xi,
                "h_coefficient": cls.h,
            }
            return n, report
    raise AssertionError(f"no n <= {GENERAL_TYPE_N_MAX} certifies general type "
                         "(impossible for p>=3)")


def _check_params(p, d, n):
    if p == 2 or not is_prime(p):
        raise ValueError("covering exponent p must be an odd prime")
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")


# -- point configurations and PGL equivalence ---------------------------------------


class PointConfig:
    """Ordered tuple of points of P^N over F_q, each normalized."""

    def __init__(self, field, points):
        self.field = field
        self.points = tuple(normalize_proj_tuple(field, pt) for pt in points)
        if not self.points:
            raise ValueError("empty configuration")
        self.N = len(self.points[0]) - 1
        if any(len(pt) != self.N + 1 for pt in self.points):
            raise ValueError("points of mixed ambient dimension")

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __eq__(self, other):
        return (isinstance(other, PointConfig) and self.field == other.field
                and self.points == other.points)

    def __repr__(self):
        return f"PointConfig({list(self.points)!r})"


def normalize_proj_tuple(field, pt):
    """Scale so the first nonzero coordinate is 1."""
    pt = tuple(field.elem(c) for c in pt)
    for c in pt:
        if c:
            inv = c.inverse()
            return tuple(x * inv for x in pt)
    raise ValueError("zero vector is not a projective point")


def in_general_position(field, points):
    """Every (N+1)-subset of the N+2 points spans; returns offending subset or None."""
    N = len(points[0]) - 1
    if len(points) != N + 2:
        raise ValueError("general-position check expects exactly N+2 points")
    for subset in itertools.combinations(range(N + 2), N + 1):
        mat = [[points[i][j] for i in subset] for j in range(N + 1)]
        if not det(mat, field):
            return subset
    return None


@dataclass
class PGLResult:
    equivalent: bool
    matrix: list = None          # witness, rows of the projective transform
    mismatch_index: int = None   # first index where images differ
    degenerate_subset: tuple = None

    def __repr__(self):
        if self.degenerate_subset is not None:
            return f"PGLResult(degenerate frame {self.degenerate_subset})"
        if self.equivalent:
            return "PGLResult(equivalent)"
        return f"PGLResult(inequivalent at index {self.mismatch_index})"


def _frame_matrix(field, points):
    """M sending the standard frame e_0..e_N, sum(e_i) to the N+2 points."""
    N = len(points[0]) - 1
    base = [[points[i][j] for i in range(N + 1)] for j in range(N + 1)]
    lam = solve(base, points[N + 1], field)
    if lam is None or any(not l for l in lam):
        return None
    return [[base[j][i] * lam[i] for i in range(N + 1)] for j in range(N + 1)]


def pgl_equivalence(config_a, config_b):
    """Decide ordered projective equivalence of two configurations.

    Uses the unique element of PGL(N+1) matching the first N+2 points (a
    projective frame, so both configurations must have those points in
    general position), then checks the remaining points in order.
    """
    if config_a.field != config_b.field or config_a.N != config_b.N:
        raise ValueError("configurations live in different spaces")
    if len(config_a) != len(config_b):
        raise ValueError("configurations of different lengths")
    N = config_a.N
    if len(config_a) < N + 2:
        raise ValueError(f"need at least N+2 = {N+2} points")
    field = config_a.field
    for cfg in (config_a, config_b):
        bad = in_general_position(field, cfg.points[:N + 2])
        if bad is not None:
            return PGLResult(equivalent=False, degenerate_subset=bad)
    ma = _frame_matrix(field, config_a.points[:N + 2])
    mb = _frame_matrix(field, config_b.points[:N + 2])
    if ma is None or mb is None:
        return PGLResult(equivalent=False, degenerate_subset=())
    m = mat_mul(mb, inverse(ma, field), field)
    for i in range(len(config_a)):
        img = normalize_proj_tuple(field, mat_vec(m, config_a[i], field))
        if img != config_b[i]:
            return PGLResult(equivalent=False, matrix=m, mismatch_index=i)
    return PGLResult(equivalent=True, matrix=m)


def cross_ratio(field, a, b, c, d):
    """Cross-ratio of four points of P^1, as a normalized point of P^1."""
    def det2(u, v):
        return u[0] * v[1] - u[1] * v[0]
    num = det2(a, c) * det2(b, d)
    den = det2(a, d) * det2(b, c)
    return normalize_proj_tuple(field, (num, den))


# -- j-invariant over k(t) -------------------------------------------------------------


def j_invariant(a, b):
    """j of y^2 z = x^3 + a(t) x z^2 + b(t) z^3 over k(t), plus isotriviality.

    j = 1728 * 4a^3 / (4a^3 + 27b^2), reduced.  Requires p >= 5 (the formula
    divides by quantities that vanish in characteristics 2 and 3) and a
    smooth cubic (nonzero discriminant).  The curve is isotrivial exactly
    when j lies in the constant field.
    """
    field = a.field if isinstance(a, RatFunc) else b.field
    if not isinstance(field, FiniteField):
        raise TypeError("coefficients must be rational functions over F_{p^m}")
    a = a if isinstance(a, RatFunc) else RatFunc(UPoly.const(field, a))
    b = b if isinstance(b, RatFunc) else RatFunc(UPoly.const(field, b))
    if field.p in (2, 3):
        raise ValueError("j-invariant requires characteristic >= 5")
    disc = a ** 3 * 4 + b ** 2 * 27
    if disc.is_zero():
        raise ValueError("singular cubic: 4a^3 + 27b^2 = 0")
    j = (a ** 3 * 4 * 1728) / disc
    return j, j.is_constant()
