"""Sparse multivariate polynomials over an exact coefficient domain.

Terms are a dict from exponent tuples to nonzero coefficients; the domain is
either a FiniteField or a RatFuncField (anything with zero/one/elem and odd
characteristic p).  Arithmetic is exact; derivatives use char-p exponent
arithmetic, so d(x^p)/dx = 0 comes out of the coefficient reduction and not
out of a special case.

`RatExpr` is an *unreduced* fraction of MultiPolys.  Multivariate gcd is
deliberately avoided: every identity the covering and blow-up machinery needs
(cocycle consistency, differential compatibility, chart overlap agreement) is
decided exactly by cross-multiplication.
"""

import itertools
import re

from .linalg import det
from .powers import power, substitute


class MultiPoly:
    """Sparse polynomial in n variables over an exact domain."""

    __slots__ = ("domain", "n", "terms")

    def __init__(self, domain, n, terms=None):
        self.domain = domain
        self.n = n
        self.terms = {}
        if terms:
            zero = domain.zero
            for exp, c in terms.items():
                if len(exp) != n or min(exp, default=0) < 0:
                    raise ValueError(f"exponents {exp!r} of a monomial in {n} variables")
                if c != zero:
                    self.terms[exp] = c

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, domain, n):
        return cls(domain, n)

    @classmethod
    def const(cls, domain, n, c):
        c = domain.elem(c)
        return cls(domain, n, {(0,) * n: c})

    @classmethod
    def var(cls, domain, n, i, exp=1):
        e = [0] * n
        e[i] = exp
        return cls(domain, n, {tuple(e): domain.one})

    @classmethod
    def monomial(cls, domain, n, exps, c=1):
        return cls(domain, n, {tuple(exps): domain.elem(c)})

    @classmethod
    def variables(cls, domain, n):
        return [cls.var(domain, n, i) for i in range(n)]

    # -- basic queries ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.n, self.domain.zero)

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, i):
        return max((e[i] for e in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_part(self, d):
        return MultiPoly(self.domain, self.n,
                         {e: c for e, c in self.terms.items() if sum(e) == d})

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.domain.zero)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if other == 0:
                return self.is_zero()
            return self == MultiPoly.const(self.domain, self.n, other)
        return (self.domain == other.domain and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if not isinstance(other, MultiPoly):
            return MultiPoly.const(self.domain, self.n, other)
        if other.n != self.n or (other.domain is not self.domain
                                 and other.domain != self.domain):
            raise ValueError(f"polynomial in {other.n} variables over {other.domain!r}"
                             f" used with one in {self.n} over {self.domain!r}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        res = dict(self.terms)
        zero = self.domain.zero
        for e, c in other.terms.items():
            s = res.get(e, zero) + c
            if s != zero:
                res[e] = s
            elif e in res:
                del res[e]
        out = MultiPoly(self.domain, self.n)
        out.terms = res
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        out = MultiPoly(self.domain, self.n)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = self.domain.elem(other)
            if c == self.domain.zero:
                return MultiPoly(self.domain, self.n)
            out = MultiPoly(self.domain, self.n)
            out.terms = {e: a * c for e, a in self.terms.items()}
            return out
        other = self._coerce(other)
        res = {}
        zero = self.domain.zero
        get = res.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = get(e, zero) + c1 * c2
                if s != zero:
                    res[e] = s
                elif e in res:
                    del res[e]
        out = MultiPoly(self.domain, self.n)
        out.terms = res
        return out

    __rmul__ = __mul__

    def __pow__(self, e):
        return power(self, e, MultiPoly.const(self.domain, self.n, 1))

    # -- calculus -----------------------------------------------------------------

    def derivative(self, i):
        """Partial derivative; exponent multiplier reduced mod p by the domain."""
        res = {}
        zero = self.domain.zero
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            m = self.domain.elem(e[i])
            if m == zero:
                continue
            ne = list(e)
            ne[i] -= 1
            res[tuple(ne)] = c * m
        out = MultiPoly(self.domain, self.n)
        out.terms = res
        return out

    def gradient(self):
        return [self.derivative(i) for i in range(self.n)]

    # -- evaluation and substitution -------------------------------------------------

    def evaluate(self, point):
        """Value at a tuple of domain elements."""
        return substitute(self.terms, point, self.domain.zero)

    def subs(self, polys):
        """Full substitution x_i -> polys[i] (MultiPolys over the same domain)."""
        if len(polys) != self.n:
            raise ValueError("substitution needs one polynomial per variable")
        return substitute(self.terms, polys, MultiPoly(self.domain, polys[0].n))

    def map_coefficients(self, domain, func):
        """New polynomial over `domain` with coefficients func(c)."""
        out = MultiPoly(domain, self.n)
        zero = domain.zero
        for e, c in self.terms.items():
            v = func(c)
            if v != zero:
                out.terms[e] = v
        return out

    # -- char-p specifics ------------------------------------------------------------

    def is_pth_power(self, pth_root_coeff):
        """Test f = g^p; returns g or None.  Requires char(domain) = p.

        In characteristic p the freshman's dream makes this exact: f is a
        p-th power iff every exponent is divisible by p, with coefficient
        roots supplied by `pth_root_coeff` (perfect coefficient field).
        """
        p = self.domain.p
        root = {}
        for e, c in self.terms.items():
            if any(k % p for k in e):
                return None
            r = pth_root_coeff(c)
            if r is None:
                return None
            root[tuple(k // p for k in e)] = r
        out = MultiPoly(self.domain, self.n)
        out.terms = root
        return out

    # -- text encoding -----------------------------------------------------------------

    def format(self, names=None):
        """Canonical encoding: `c*x1^a1*x2^a2` terms joined by ` + `."""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i+1}" for i in range(self.n)]
        bits = []
        for e in sorted(self.terms, key=lambda e: (-sum(e), tuple(-k for k in e))):
            c = self.terms[e]
            cs = self.domain.format_element(c)
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


def parse_poly(text, domain, names):
    """Parse the canonical `c*x1^a1*...` encoding (and `-` as a convenience).

    Raises ValueError on an empty term (see `split_terms`) and on a factor
    that is neither one of `names` nor a coefficient."""
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    acc = MultiPoly(domain, n)
    for neg, raw in split_terms(text):
        coeff = domain.one
        exps = [0] * n
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
        if neg:
            coeff = -coeff
        acc = acc + MultiPoly.monomial(domain, n, exps, coeff)
    return acc


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
    if f.domain.p == 2:
        raise ValueError("Hessians are not supported in characteristic 2")
    n = f.n
    grads = f.gradient()
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
        exact, unreduced, by exponent arithmetic.  A term c x^e goes to
        c prod (a_i/b_i)^e_i times x to the power sum e_i (u_i - v_i),
        maybe negative; one shift by the least exponent of each variable,
        over numerator and denominator, clears both.  ValueError for an
        entry that is not a quotient of two monomials."""
        n = self.num.n
        if len(exprs) != n:
            raise ValueError("substitution needs one expression per variable")
        domain, m = self.num.domain, exprs[0].num.n
        maps = []
        for r in exprs:
            if len(r.num.terms) != 1 or len(r.den.terms) != 1:
                raise ValueError(f"substitution needs quotients of monomials, not {r!r}")
            (u, a), = r.num.terms.items()
            (v, b), = r.den.terms.items()
            maps.append((tuple(x - y for x, y in zip(u, v)),
                         None if a == b else a / b))

        def laurent(poly):
            out, zero = {}, domain.zero
            for e, c in poly.terms.items():
                exps = [0] * m
                for k, (shift, ratio) in zip(e, maps):
                    if k:
                        exps = [x + k * y for x, y in zip(exps, shift)]
                        if ratio is not None:
                            c = c * ratio ** k
                exps = tuple(exps)
                out[exps] = out.get(exps, zero) + c
            return out
        num, den = laurent(self.num), laurent(self.den)
        low = [min(col) for col in zip(*num, *den)] or [0] * m
        return RatExpr(*(MultiPoly(domain, m, {
            tuple(x - y for x, y in zip(e, low)): c for e, c in part.items()})
            for part in (num, den)))

    def __repr__(self):
        if self.den.is_constant():
            return f"({self.num!r})/{self.den!r}"
        return f"({self.num!r})/({self.den!r})"
