"""Frozen reference: MultiPoly on {exponent tuple: element} dicts.

This is the MultiPoly that stored its terms as a dict from exponent tuples
to nonzero field elements, with products by a double loop over the terms,
together with the `parse_poly` that built a polynomial term by term.  The
MultiPoly in `charpgeom.algebra.multipoly` replaced it; the differential
tests compare the two on seeded polynomials.  Do not edit: its value is
that it does not change.
"""

import re

from charpgeom.algebra.powers import power, substitute


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
