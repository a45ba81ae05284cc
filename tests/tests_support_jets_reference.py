"""Frozen reference: jets on 6-bit packed exponents with an int path.

This is the Jet that packed exponent vectors 6 bits per variable, cached
the degree of each key, and kept residues mod p over prime fields beside
domain elements elsewhere.  The Jet in `charpgeom.algebra.jets` replaced
it; the differential tests compare the two on seeded jets.  Do not edit:
its value is that it does not change.
"""

from charpgeom.algebra.finitefield import FiniteField
from charpgeom.algebra.multipoly import MultiPoly

_BITS = 6
_MASK = (1 << _BITS) - 1
MAX_ORDER = 1 << (_BITS - 1)

_DEG_CACHE = {}


def _deg(key):
    d = _DEG_CACHE.get(key)
    if d is None:
        d, k = 0, key
        while k:
            d += k & _MASK
            k >>= _BITS
        _DEG_CACHE[key] = d
    return d


def _pack(exps):
    key = 0
    for i, e in enumerate(exps):
        key |= e << (_BITS * i)
    return key


def _unpack(key, n):
    out = []
    for _ in range(n):
        out.append(key & _MASK)
        key >>= _BITS
    return tuple(out)


class Jet:
    """Polynomial mod m^r: all stored monomials have total degree < r."""

    __slots__ = ("domain", "n", "order", "terms", "_int")

    def __init__(self, domain, n, order, terms=None, _raw=None):
        if order < 1 or order > MAX_ORDER:
            raise ValueError(f"jet order must be in 1..{MAX_ORDER}")
        self.domain = domain
        self.n = n
        self.order = order
        self._int = isinstance(domain, FiniteField) and domain.m == 1
        if _raw is not None:
            self.terms = _raw
        else:
            self.terms = {}
            if terms:
                for exps, c in terms.items():
                    if sum(exps) < order:
                        self._set(_pack(exps), c)

    def _set(self, key, c):
        if self._int:
            c = (c.coeffs[0] if not isinstance(c, int) else c) % self.domain.p
            if c:
                self.terms[key] = c
        else:
            c = self.domain.elem(c) if isinstance(c, int) else c
            if c != self.domain.zero:
                self.terms[key] = c

    @classmethod
    def from_poly(cls, poly, order):
        jet = cls(poly.domain, poly.n, order)
        for exps, c in poly.terms.items():
            if sum(exps) < order:
                jet._set(_pack(exps), c)
        return jet

    @classmethod
    def variable(cls, domain, n, i, order):
        jet = cls(domain, n, order)
        jet._set(1 << (_BITS * i), domain.one)
        return jet

    def to_poly(self):
        return MultiPoly(self.domain, self.n, {
            _unpack(key, self.n): self.domain.elem(c) if self._int else c
            for key, c in self.terms.items()})

    # -- queries -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        c = self.terms.get(0)
        if c is None:
            return self.domain.zero
        return self.domain.elem(c) if self._int else c

    def min_degree(self):
        return min((_deg(k) for k in self.terms), default=None)

    def coefficient(self, exps):
        c = self.terms.get(_pack(exps))
        if c is None:
            return self.domain.zero
        return self.domain.elem(c) if self._int else c

    def homogeneous_part(self, d):
        """Terms of total degree exactly d, as {exponent tuple: element}."""
        out = {}
        for key, c in self.terms.items():
            if _deg(key) == d:
                out[_unpack(key, self.n)] = self.domain.elem(c) if self._int else c
        return out

    def __eq__(self, other):
        return (isinstance(other, Jet) and self.domain == other.domain
                and self.n == other.n and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.order, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------------------

    def truncate(self, order):
        if order >= self.order:
            out = Jet(self.domain, self.n, order)
            out.terms = dict(self.terms)
            return out
        raw = {k: c for k, c in self.terms.items() if _deg(k) < order}
        return Jet(self.domain, self.n, order, _raw=raw)

    def __add__(self, other):
        other = self._align(other)
        res = dict(self.terms)
        if self._int:
            p = self.domain.p
            for k, c in other.terms.items():
                s = (res.get(k, 0) + c) % p
                if s:
                    res[k] = s
                elif k in res:
                    del res[k]
        else:
            zero = self.domain.zero
            for k, c in other.terms.items():
                s = res.get(k, zero) + c
                if s != zero:
                    res[k] = s
                elif k in res:
                    del res[k]
        return Jet(self.domain, self.n, self.order, _raw=res)

    def __sub__(self, other):
        return self + (-self._align(other))

    def __neg__(self):
        if self._int:
            p = self.domain.p
            raw = {k: p - c for k, c in self.terms.items()}
        else:
            raw = {k: -c for k, c in self.terms.items()}
        return Jet(self.domain, self.n, self.order, _raw=raw)

    def _align(self, other):
        if isinstance(other, Jet):
            if other.order != self.order or other.n != self.n:
                raise ValueError("jet order/variable mismatch")
            return other
        if isinstance(other, MultiPoly):
            return Jet.from_poly(other, self.order)
        jet = Jet(self.domain, self.n, self.order)
        jet._set(0, self.domain.elem(other))
        return jet

    def __mul__(self, other):
        other = self._align(other)
        r = self.order
        res = {}
        a = [(k, _deg(k), c) for k, c in self.terms.items()]
        b = [(k, _deg(k), c) for k, c in other.terms.items()]
        b.sort(key=lambda t: t[1])
        if self._int:
            p = self.domain.p
            get = res.get
            for k1, d1, c1 in a:
                lim = r - d1
                for k2, d2, c2 in b:
                    if d2 >= lim:
                        break
                    k = k1 + k2
                    res[k] = (get(k, 0) + c1 * c2) % p
            res = {k: c for k, c in res.items() if c}
        else:
            zero = self.domain.zero
            get = res.get
            for k1, d1, c1 in a:
                lim = r - d1
                for k2, d2, c2 in b:
                    if d2 >= lim:
                        break
                    k = k1 + k2
                    s = get(k, zero) + c1 * c2
                    if s != zero:
                        res[k] = s
                    elif k in res:
                        del res[k]
        return Jet(self.domain, self.n, self.order, _raw=res)

    def scale(self, c):
        if self._int:
            cc = (c.coeffs[0] if not isinstance(c, int) else c) % self.domain.p
            raw = {}
            p = self.domain.p
            for k, v in self.terms.items():
                s = v * cc % p
                if s:
                    raw[k] = s
            return Jet(self.domain, self.n, self.order, _raw=raw)
        raw = {}
        zero = self.domain.zero
        for k, v in self.terms.items():
            s = v * c
            if s != zero:
                raw[k] = s
        return Jet(self.domain, self.n, self.order, _raw=raw)

    def __pow__(self, e):
        result = Jet(self.domain, self.n, self.order)
        result._set(0, self.domain.one)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self):
        return f"Jet(order={self.order}, {self.to_poly()!r})"


def jet_compose(f, phis, order):
    """f(phi_1, ..., phi_n) truncated at total degree < order.

    f may be a MultiPoly or a Jet; each phi_i must have zero constant term
    (otherwise the truncation of the composite would depend on discarded
    tails, and the call raises).  Powers of each phi are cached, so a sparse
    f costs about two jet multiplications per term.
    """
    if isinstance(f, MultiPoly):
        items = [(exps, c) for exps, c in f.terms.items()]
        domain, n = f.domain, f.n
    else:
        items = [(_unpack(k, f.n), c) for k, c in f.terms.items()]
        domain, n = f.domain, f.n
    if len(phis) != n:
        raise ValueError("need one substitution jet per variable")
    phis = [phi.truncate(order) if phi.order != order else phi for phi in phis]
    for phi in phis:
        if phi.constant_term() != domain.zero:
            raise ValueError("substitution jets must have zero constant term")
    m = phis[0].n
    one_jet = Jet(domain, m, order)
    one_jet._set(0, domain.one)
    pow_cache = [{0: one_jet} for _ in range(n)]

    def power(i, k):
        cache = pow_cache[i]
        if k not in cache:
            half = power(i, k // 2)
            res = half * half
            if k & 1:
                res = res * phis[i]
            cache[k] = res
        return cache[k]

    acc = Jet(domain, m, order)
    for exps, c in items:
        # every phi has valuation >= 1, so x^e contributes valuation >= |e|
        if sum(exps) >= order:
            continue
        term = None
        dead = False
        for i, e in enumerate(exps):
            if e:
                pw = power(i, e)
                if pw.is_zero():
                    dead = True
                    break
                term = pw if term is None else term * pw
        if dead:
            continue
        if term is None:
            cjet = Jet(domain, m, order)
            cjet._set(0, c if not isinstance(c, int) else domain.elem(c))
            acc = acc + cjet
        else:
            acc = acc + term.scale(c if not isinstance(c, int)
                                   else domain.elem(c))
    return acc
