"""Sparse multivariate polynomials over an exact coefficient domain.

A MultiPoly is a packed polynomial of `monomials.ring(domain, n)`: a dict
{key: code} of its nonzero terms, with the ring's grevlex keys and its
kernel's coefficient codes (residues over F_p, Zech-log codes over F_{p^m},
domain elements over k(t) and untabled fields).  The domain is a
FiniteField or a RatFuncField (anything with zero/one/elem and odd
characteristic p).  Arithmetic is the kernel's and exact: a product or
power of degree above MAX_DEGREE raises ValueError, never wraps.  A
derivative subtracts the key of x_i and brings the exponent down as a code,
so d(x^p)/dx = 0 comes out of the coefficient reduction and not out of a
special case.  Exponent tuples and field elements appear only at the
boundary: the constructor, the read-only `terms` view, `coefficient`,
`constant_term`, `evaluate`, `subs` and `format`.

`RatExpr` is an *unreduced* fraction of MultiPolys.  Multivariate gcd is
deliberately avoided: every identity the covering and blow-up machinery needs
(cocycle consistency, differential compatibility, chart overlap agreement) is
decided exactly by cross-multiplication.
"""

import itertools
import operator
import re

from . import monomials
from .linalg import det
from .monomials import MAX_DEGREE, _check_degree
from .powers import power, substitute


class MultiPoly:
    """Sparse polynomial in n variables over an exact domain."""

    __slots__ = ("domain", "n", "ring", "packed")

    def __init__(self, domain, n, terms=None):
        """From {exponent tuple: coefficient}, zero coefficients dropped.
        ValueError on a bad exponent tuple, a degree above MAX_DEGREE or a
        coefficient of another field."""
        self.domain, self.n = domain, n
        self.ring = ring = monomials.ring(domain, n)
        self.packed = {}
        for exps, c in (terms or {}).items():
            key, c = ring.monomial(exps), ring.coeff(domain.elem(c))
            if c:
                self.packed[key] = c

    @classmethod
    def from_packed(cls, ring, packed):
        """The polynomial of `ring` whose packed terms are `packed` (no zero
        code); it keeps the dict, which the caller no longer changes."""
        out = cls.__new__(cls)
        out.domain, out.n, out.ring, out.packed = ring.domain, ring.n, ring, packed
        return out

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, domain, n):
        return cls(domain, n)

    @classmethod
    def const(cls, domain, n, c):
        return cls(domain, n, {(0,) * n: c})

    @classmethod
    def var(cls, domain, n, i, exp=1):
        e = [0] * n
        e[i] = exp
        return cls(domain, n, {tuple(e): domain.one})

    @classmethod
    def monomial(cls, domain, n, exps, c=1):
        return cls(domain, n, {tuple(exps): c})

    @classmethod
    def variables(cls, domain, n):
        return [cls.var(domain, n, i) for i in range(n)]

    # -- basic queries ----------------------------------------------------------

    @property
    def terms(self):
        """{exponent tuple: element} of the nonzero terms, as a new dict on
        every read."""
        exponents, element = self.ring.exponents, self.ring.element
        return {exponents(k): element(c) for k, c in self.packed.items()}

    def is_zero(self):
        return not self.packed

    def is_constant(self):
        return all(k == 0 for k in self.packed)

    def constant_term(self):
        return self.coefficient((0,) * self.n)

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max(self.packed) >> self.ring.top if self.packed else -1

    def degree_in(self, i):
        shift = self.ring.shifts[i]
        return max((k >> shift & monomials.MAX_DEGREE for k in self.packed),
                   default=-1)

    def is_homogeneous(self):
        top = self.ring.top
        return len({k >> top for k in self.packed}) <= 1

    def coefficient(self, exps):
        c = self.packed.get(self.ring.monomial(exps))
        return self.domain.zero if c is None else self.ring.element(c)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if other == 0:
                return self.is_zero()
            return self == MultiPoly.const(self.domain, self.n, other)
        return (self.domain == other.domain and self.n == other.n
                and self.packed == other.packed)

    def __hash__(self):
        return hash((self.n, frozenset(self.packed.items())))

    def __bool__(self):
        return bool(self.packed)

    # -- arithmetic --------------------------------------------------------------

    def packed_in(self, ring):
        """The packed terms, for use in `ring`: ValueError when this
        polynomial has another domain or number of variables."""
        if self.n != ring.n or (self.domain is not ring.domain
                                and self.domain != ring.domain):
            raise ValueError(f"polynomial over {self.domain!r}, n = {self.n}, "
                             f"used in a ring over {ring.domain!r}, n = {ring.n}")
        return self.packed

    def _coerce(self, other):
        """The packed terms of a polynomial or constant, in this ring."""
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.domain, self.n, other)
        return other.packed_in(self.ring)

    def _like(self, packed):
        return MultiPoly.from_packed(self.ring, packed)

    def __add__(self, other):
        return self._like(self.ring.add(self.packed, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        out = dict(self.packed)
        self.ring.submul(out, self._coerce(other), 0, self.ring.one)
        return self._like(out)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return self._like(self.ring.scale(self.packed, self.ring.minus_one))

    def __mul__(self, other):
        ring = self.ring
        if not isinstance(other, MultiPoly):
            c = ring.coeff(self.domain.elem(other))
            return self._like(ring.scale(self.packed, c) if c else {})
        b = self._coerce(other)
        if self.packed and b:
            _check_degree(self.total_degree() + other.total_degree())
        return self._like(ring.mul(self.packed, b,
                                   (monomials.MAX_DEGREE + 1) << ring.top))

    __rmul__ = __mul__

    def __pow__(self, e):
        _check_degree(self.total_degree() * e)     # before any product
        return power(self, e, MultiPoly.const(self.domain, self.n, 1))

    # -- calculus -----------------------------------------------------------------

    def derivative(self, i):
        """Partial derivative: the key of x_i comes off each key, and the
        exponent comes down as a code, zero when p divides it."""
        ring, elem = self.ring, self.domain.elem
        shift = ring.shifts[i]
        step = ring.key(1 << shift)
        out = {}
        for k, c in self.packed.items():
            m = ring.coeff(elem(k >> shift & monomials.MAX_DEGREE))
            if m:
                out[k - step] = ring.times(c, m)
        return self._like(out)

    def gradient(self):
        return [self.derivative(i) for i in range(self.n)]

    # -- evaluation and substitution -------------------------------------------------

    def evaluate(self, point):
        """Value at a tuple of domain elements, one per variable."""
        if len(point) != self.n:
            raise ValueError("evaluation needs one coordinate per variable")
        return substitute(self.terms, point, self.domain.zero)

    def subs(self, polys):
        """Full substitution x_i -> polys[i] (MultiPolys over the same domain)."""
        if len(polys) != self.n:
            raise ValueError("substitution needs one polynomial per variable")
        return substitute(self.terms, polys, MultiPoly(self.domain, polys[0].n))

    def map_coefficients(self, domain, func):
        """New polynomial over `domain` with coefficients func(c).  The keys
        are copied: their layout depends only on n."""
        ring, element = monomials.ring(domain, self.n), self.ring.element
        out = {}
        for k, c in self.packed.items():
            v = ring.coeff(domain.elem(func(element(c))))
            if v:
                out[k] = v
        return MultiPoly.from_packed(ring, out)

    # -- char-p specifics ------------------------------------------------------------

    def is_pth_power(self):
        """Test f = g^p; returns g or None.  Requires char(domain) = p.

        In characteristic p the freshman's dream makes this exact: f is a
        p-th power iff every exponent is divisible by p and every
        coefficient has a p-th root (`ring.root`: always over a finite
        field, which is perfect).  Then every field of a key is divisible
        by p, and key // p is the key of the root's monomial."""
        ring, p = self.ring, self.domain.p
        root = {}
        for k, c in self.packed.items():
            if any(e % p for e in ring.exponents(k)):
                return None
            r = ring.root(c)
            if r is None:
                return None
            root[k // p] = r
        return self._like(root)

    # -- text encoding -----------------------------------------------------------------

    def format(self, names=None):
        """Canonical encoding: `c*x1^a1*x2^a2` terms joined by ` + `."""
        terms = self.terms
        if not terms:
            return "0"
        if names is None:
            names = [f"x{i+1}" for i in range(self.n)]
        bits = []
        for e in sorted(terms, key=lambda e: (-sum(e), tuple(-k for k in e))):
            cs = self.domain.format_element(terms[e])
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append(f"{names[i]}^{k}")
            if not factors:
                bits.append(cs)
            elif cs == "1":
                bits.append("*".join(factors))
            else:
                bits.append(cs + "*" + "*".join(factors))
        return " + ".join(bits)

    def __repr__(self):
        return self.format()


_TERM_FACTOR = re.compile(r"^([a-zA-Z]\w*)(?:\^(\d+))?$")
_TERMS = re.compile(r"-?[^+-]+(?:[+-][^+-]+)*")


def split_terms(text):
    """(negative, term) pairs of a polynomial text, split at `+` and `-`.

    Raises ValueError on an empty term (`t^2+`, `t++1`, `+t`); a leading
    `-` is allowed."""
    text = text.replace(" ", "")
    if not _TERMS.fullmatch(text):
        raise ValueError(f"empty term in {text!r}")
    return [(sign == "-", raw)
            for sign, raw in re.findall(r"([+-]?)([^+-]+)", text)]


def parse_terms(text, domain, names):
    """(exponent tuple, coefficient) of each term of the canonical
    `c*x1^a1*...` encoding (and `-` as a convenience), in text order and
    unsummed; the exponents may exceed MAX_DEGREE.

    Raises ValueError on an empty term (see `split_terms`) and on a factor
    that is neither one of `names` nor a coefficient."""
    index = {name: i for i, name in enumerate(names)}
    for neg, raw in split_terms(text):
        coeff = domain.one
        exps = [0] * len(names)
        for factor in raw.split("*"):
            m = _TERM_FACTOR.match(factor)
            if m and m.group(1) in index:
                exps[index[m.group(1)]] += int(m.group(2) or 1)
            else:
                try:
                    c = _parse_coeff(factor, domain)
                except ValueError:
                    raise ValueError(f"factor {factor!r} is neither a variable "
                                     f"({', '.join(names)}) nor a coefficient") from None
                coeff = coeff * domain.elem(c)
        yield tuple(exps), -coeff if neg else coeff


def parse_poly(text, domain, names):
    """The sum of the terms of `parse_terms`.  ValueError as there, and on
    a monomial of degree above MAX_DEGREE."""
    n = len(names)
    return sum((MultiPoly.monomial(domain, n, exps, c)
                for exps, c in parse_terms(text, domain, names)),
               MultiPoly(domain, n))


def _parse_coeff(text, domain):
    base = getattr(domain, "base", domain)   # RatFuncField wraps a FiniteField
    if text.startswith("g^") or text == "g":
        return base.parse_element(text)
    return base.elem(int(text))


def monomials_of_degree(nvars, deg):
    """Exponent tuples of the degree-`deg` monomials in `nvars` variables,
    by stars and bars, in increasing lexicographic order."""
    for bars in itertools.combinations(range(deg + nvars - 1), nvars - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(deg + nvars - 2 - prev)
        yield tuple(exps)


def hessian_matrix(f):
    """Symmetric matrix of the second partials of f, as polynomials.

    Rejects characteristic 2 (the quadratic-form normalization downstream
    divides by 2)."""
    return _hessian_of_gradient(f.domain, f.gradient())


def _hessian_of_gradient(domain, grads):
    if domain.p == 2:
        raise ValueError("Hessians are not supported in characteristic 2")
    n = len(grads)
    mat = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mat[i][j] = mat[j][i] = grads[i].derivative(j)
    return mat


def hessian_at(f, point):
    """Symmetric matrix of second partials at the point, plus nondegeneracy.

    Returns (matrix, nondegenerate) where nondegenerate means the
    determinant is nonzero; rejects characteristic 2."""
    mat = [[h.evaluate(point) for h in row] for row in hessian_matrix(f)]
    return mat, bool(det(mat, f.domain))


class RatExpr:
    """Unreduced fraction num/den of MultiPolys; equality by cross-multiplying."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = MultiPoly.const(num.domain, num.n, 1)
        if den.is_zero():
            raise ZeroDivisionError("RatExpr with zero denominator")
        self.num = num
        self.den = den

    def __add__(self, other):
        other = self._coerce(other)
        return RatExpr(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return RatExpr(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __neg__(self):
        return RatExpr(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RatExpr(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero RatExpr")
        return RatExpr(self.num * other.den, self.den * other.num)

    def __pow__(self, e):
        if e < 0:
            return RatExpr(self.den, self.num) ** (-e)
        return RatExpr(self.num ** e, self.den ** e)

    def _coerce(self, other):
        if isinstance(other, RatExpr):
            return other
        if isinstance(other, MultiPoly):
            return RatExpr(other)
        return RatExpr(MultiPoly.const(self.num.domain, self.num.n, other))

    def __eq__(self, other):
        other = self._coerce(other)
        return self.num * other.den == other.num * self.den

    def is_zero(self):
        return self.num.is_zero()

    def derivative(self, i):
        # quotient rule, unreduced
        return RatExpr(self.num.derivative(i) * self.den
                       - self.num * self.den.derivative(i),
                       self.den * self.den)

    def subs(self, exprs):
        """Substitute monomial fractions a x^u / (b x^v) for the variables:
        exact, unreduced, on keys and codes.  A term c x^e goes to
        c prod (a_i/b_i)^e_i times x to the power sum e_i (u_i - v_i),
        maybe negative: a key with signed fields.  One shift by the least
        exponent of each variable, over numerator and denominator, clears
        both.  ValueError for an entry that is not a quotient of two
        monomials, or when the degrees could exceed MAX_DEGREE."""
        if len(exprs) != self.num.n:
            raise ValueError("substitution needs one expression per variable")
        ring = monomials.ring(self.num.domain, exprs[0].num.n)
        shifts, powers = [], []
        top = max(self.num.total_degree(), self.den.total_degree())
        for i, r in enumerate(exprs):
            num, den = r.num.packed_in(ring), r.den.packed_in(ring)
            if len(num) != 1 or len(den) != 1:
                raise ValueError(f"substitution needs quotients of monomials, not {r!r}")
            (u, a), = num.items()
            (v, b), = den.items()
            shifts.append((u & ring.low_mask) - (v & ring.low_mask))
            if a != b:
                powers.append((i, list(itertools.accumulate(
                    [ring.times(a, ring.inverse(b))] * top, ring.times,
                    initial=ring.one))))
        reach = max(max(r.num.total_degree(), r.den.total_degree()) for r in exprs)
        _check_degree(2 * top * reach * ring.n)
        exponents, times, plus = self.num.ring.exponents, ring.times, ring.plus

        def laurent(poly):
            out = {}
            for k, c in poly.packed.items():
                e = exponents(k)
                for i, pows in powers:
                    c = times(c, pows[e[i]])
                x = sum(map(operator.mul, e, shifts))
                out[x] = plus(out[x], c) if x in out else c
            return out
        num, den = laurent(self.num), laurent(self.den)
        # with the guard bits added, each field holds its exponent + 2^15
        fields, mask = [x + ring.guard for x in itertools.chain(num, den)], 2 * MAX_DEGREE + 1
        least = sum(min((x >> s & mask for x in fields), default=0) << s
                    for s in ring.shifts) - ring.guard
        return RatExpr(*(MultiPoly.from_packed(ring, {
            ring.key(x - least): c for x, c in part.items() if c})
            for part in (num, den)))

    def __repr__(self):
        if self.den.is_constant():
            return f"({self.num!r})/{self.den!r}"
        return f"({self.num!r})/({self.den!r})"
