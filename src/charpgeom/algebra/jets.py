"""Truncated multivariate power series (jets) with composition.

A Jet of order r stores the monomials of total degree < r, i.e. a polynomial
class mod m^r where m is the maximal ideal at the origin.  Composition of
jets is well defined as long as the substituted series have zero constant
term, and then only depends on the order-r truncations of the inputs; that is
exactly the regime of the formal normal-form algorithm.

Representation notes: terms are the packed polynomials of `monomials.py`,
{grevlex key: coefficient}, so a monomial product is key addition and a
term's degree is `key >> top`.  Because the degree is the key's top field,
the terms of degree < r are exactly the keys below r << top: truncation is
one comparison, and a product sorted by key stops each row early.  The
ring's kernel keeps residues over F_p, Zech-log codes over F_{p^m} and
domain elements elsewhere (`monomials.ring`); this module has one path for
all three.  All jets and MultiPolys over equal (domain, n) hold one
memoised ring, so `from_poly` and `to_poly` copy keys and codes as they
are; every derived jet (a sum, a product, a truncation) is made by `_like`.
Jets over different domains or numbers of variables do not mix:
arithmetic between them raises ValueError.
"""

from .monomials import ring
from .multipoly import MultiPoly
from .powers import cached_power, power

MAX_ORDER = 32          # the CLI's --r bound; keys would pack up to MAX_DEGREE


def _checked(order):
    if order < 1 or order > MAX_ORDER:
        raise ValueError(f"jet order must be in 1..{MAX_ORDER}")
    return order


class Jet:
    """Polynomial mod m^r: all stored monomials have total degree < r."""

    __slots__ = ("domain", "n", "order", "terms", "ring")

    def __init__(self, domain, n, order, terms=None):
        self.domain, self.n, self.order = domain, n, _checked(order)
        self.ring = ring(domain, n)
        self.terms = {}
        if terms:
            bound = order << self.ring.top
            for exps, c in terms.items():
                key = self.ring.monomial(exps)      # raises on a bad tuple
                if key < bound:
                    self._set(key, c)

    def _like(self, raw, order=None):
        """A jet of this one's ring, with packed terms `raw`, of this one's
        order or of `order`."""
        out = Jet.__new__(Jet)
        out.domain, out.n, out.ring = self.domain, self.n, self.ring
        out.terms = raw
        out.order = self.order if order is None else _checked(order)
        return out

    def _coeff(self, c):
        return self.ring.coeff(self.domain.elem(c))   # raises on another field

    def _set(self, key, c):
        c = self._coeff(c)
        if c:
            self.terms[key] = c

    @classmethod
    def from_poly(cls, poly, order):
        """The jet of a MultiPoly: its packed terms of degree < order."""
        return cls(poly.domain, poly.n, order)._like(poly.packed).truncate(order)

    @classmethod
    def variable(cls, domain, n, i, order):
        return cls(domain, n, order, {tuple(int(j == i) for j in range(n)): 1})

    def to_poly(self):
        return MultiPoly.from_packed(self.ring, dict(self.terms))

    # -- queries -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        c = self.terms.get(0)
        return self.domain.zero if c is None else self.ring.element(c)

    def min_degree(self):
        return min(self.terms) >> self.ring.top if self.terms else None

    def coefficient(self, exps):
        c = self.terms.get(self.ring.monomial(exps))
        return self.domain.zero if c is None else self.ring.element(c)

    def homogeneous_part(self, d):
        """Terms of total degree exactly d, as {exponent tuple: element}."""
        top = self.ring.top
        part = {k: c for k, c in self.terms.items() if k >> top == d}
        return MultiPoly.from_packed(self.ring, part).terms

    def __eq__(self, other):
        return (isinstance(other, Jet) and self.domain == other.domain
                and self.n == other.n and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.order, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------------------

    def truncate(self, order):
        bound = order << self.ring.top
        return self._like({k: c for k, c in self.terms.items() if k < bound},
                          order)

    def __add__(self, other):
        return self._like(self.ring.add(self.terms, self._align(other).terms))

    def __sub__(self, other):
        out = dict(self.terms)
        self.ring.submul(out, self._align(other).terms, 0, self.ring.one)
        return self._like(out)

    def __neg__(self):
        return self._like(self.ring.scale(self.terms, self.ring.minus_one))

    def _align(self, other):
        if isinstance(other, MultiPoly):
            other = Jet.from_poly(other, self.order)
        elif not isinstance(other, Jet):
            jet = self._like({})
            jet._set(0, other)
            return jet
        if (other.order != self.order or other.n != self.n
                or other.domain is not self.domain
                and other.domain != self.domain):
            raise ValueError("jet order, variable or domain mismatch")
        return other

    def __mul__(self, other):
        other = self._align(other)
        return self._like(self.ring.mul(self.terms, other.terms,
                                        self.order << self.ring.top))

    def scale(self, c):
        c = self._coeff(c)
        return self._like(self.ring.scale(self.terms, c) if c else {})

    def __pow__(self, e):
        return power(self, e, self._like({0: self.ring.one}))

    def __repr__(self):
        return f"Jet(order={self.order}, {self.to_poly()!r})"


def jet_compose(f, phis, order):
    """f(phi_1, ..., phi_n) truncated at total degree < order.

    f may be a MultiPoly or a Jet; each phi_i must have zero constant term
    and order at least `order` (otherwise the truncation of the composite
    would depend on discarded tails, and the call raises).  Powers of each
    phi are cached, so a sparse f costs about two jet multiplications per
    term.
    """
    domain, n = f.domain, f.n
    if len(phis) != n:
        raise ValueError("need one substitution jet per variable")
    if any(phi.order < order for phi in phis):
        raise ValueError("substitution jets must have at least the target order")
    phis = [phi.truncate(order) if phi.order != order else phi for phi in phis]
    for phi in phis:
        if phi.domain != domain or phi.n != phis[0].n:
            raise ValueError("substitution jets must share f's domain and "
                             "one number of variables")
        if phi.constant_term() != domain.zero:
            raise ValueError("substitution jets must have zero constant term")
    one_jet = phis[0]._like({})
    one_jet._set(0, domain.one)
    ring = one_jet.ring                 # f's codes are already in it
    packed = f.packed if isinstance(f, MultiPoly) else f.terms
    items = [(f.ring.exponents(k), c) for k, c in packed.items()]
    pow_cache = [{0: one_jet} for _ in range(n)]
    acc = {}
    for exps, c in items:
        # every phi has valuation >= 1, so x^e contributes valuation >= |e|
        if sum(exps) >= order:
            continue
        term = one_jet
        for i, e in enumerate(exps):
            if e:
                pw = cached_power(pow_cache[i], phis[i], e)
                if pw.is_zero():
                    break
                term = pw if term is one_jet else term * pw
        else:
            ring.submul(acc, term.terms, 0, c)      # acc -= c * term, in place
    return one_jet._like(ring.scale(acc, ring.minus_one))
