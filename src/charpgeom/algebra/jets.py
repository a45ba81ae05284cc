"""Truncated multivariate power series (jets) with composition.

A Jet of order r stores the monomials of total degree < r, i.e. a polynomial
class mod m^r where m is the maximal ideal at the origin.  Composition of
jets is well defined as long as the substituted series have zero constant
term, and then only depends on the order-r truncations of the inputs; that is
exactly the regime of the formal normal-form algorithm.

Representation notes: a jet's `packed` is a packed polynomial of
`monomials.py`, {grevlex key: code}, the dict a MultiPoly calls `packed`,
so a monomial product is key addition and a term's degree is `key >> top`.
Because the degree is the key's top field, the terms of degree < r are
exactly the keys below r << top: truncation is one comparison, and a
product sorted by key stops each row early.  The ring's kernel keeps
residues over F_p, Zech-log codes over F_{p^m} and domain elements
elsewhere (`monomials.ring`); this module has one path for all three.  A
jet is built as a MultiPoly and truncated, so this module packs no key
itself; all jets and MultiPolys over equal (domain, n) hold one memoised
ring, so `from_poly`, `to_poly` and `jet_compose` read either one's
`packed` as it is.  Every derived jet (a sum, a product, a truncation) is
made by `_like`, and a constant one by `_const`.  Jets over different
domains or numbers of variables do not mix: arithmetic between them raises
ValueError.
"""

from .multipoly import MultiPoly
from .powers import cached_power, power

MAX_ORDER = 32          # the CLI's --r bound; keys would pack up to MAX_DEGREE


def _checked(order):
    if order < 1 or order > MAX_ORDER:
        raise ValueError(f"jet order must be in 1..{MAX_ORDER}")
    return order


class Jet:
    """Polynomial mod m^r: all stored monomials have total degree < r."""

    __slots__ = ("domain", "n", "order", "packed", "ring")

    def __init__(self, domain, n, order, terms=None):
        """The jet of MultiPoly(domain, n, terms): ValueError as there."""
        self.order = _checked(order)
        poly = MultiPoly(domain, n, terms)
        self.domain, self.n, self.ring = domain, n, poly.ring
        bound = order << self.ring.top
        self.packed = {k: c for k, c in poly.packed.items() if k < bound}

    def _like(self, packed, order=None):
        """A jet of this one's ring, with packed terms `packed`, of this
        one's order or of `order`."""
        out = Jet.__new__(Jet)
        out.domain, out.n, out.ring = self.domain, self.n, self.ring
        out.packed = packed
        out.order = self.order if order is None else _checked(order)
        return out

    def _const(self, c):
        """The constant jet c, of this one's ring and order."""
        c = self.ring.coeff(self.domain.elem(c))   # raises on another field
        return self._like({0: c} if c else {})

    @classmethod
    def from_poly(cls, poly, order):
        """The jet of a MultiPoly: its packed terms of degree < order."""
        return cls(poly.domain, poly.n, order)._like(poly.packed).truncate(order)

    def to_poly(self):
        return MultiPoly.from_packed(self.ring, dict(self.packed))

    # -- queries -------------------------------------------------------------

    def is_zero(self):
        return not self.packed

    def constant_term(self):
        c = self.packed.get(0)
        return self.domain.zero if c is None else self.ring.element(c)

    def coefficient(self, exps):
        c = self.packed.get(self.ring.monomial(exps))
        return self.domain.zero if c is None else self.ring.element(c)

    def homogeneous_part(self, d):
        """Terms of total degree exactly d, as {exponent tuple: element}."""
        top = self.ring.top
        part = {k: c for k, c in self.packed.items() if k >> top == d}
        return MultiPoly.from_packed(self.ring, part).terms

    def __eq__(self, other):
        return (isinstance(other, Jet) and self.domain == other.domain
                and self.n == other.n and self.order == other.order
                and self.packed == other.packed)

    def __hash__(self):
        return hash((self.n, self.order, frozenset(self.packed.items())))

    # -- arithmetic ---------------------------------------------------------------

    def truncate(self, order):
        bound = order << self.ring.top
        return self._like({k: c for k, c in self.packed.items() if k < bound},
                          order)

    def __add__(self, other):
        return self._like(self.ring.add(self.packed, self._align(other).packed))

    def __sub__(self, other):
        out = dict(self.packed)
        self.ring.submul(out, self._align(other).packed, 0, self.ring.one)
        return self._like(out)

    def __neg__(self):
        return self._like(self.ring.scale(self.packed, self.ring.minus_one))

    def _align(self, other):
        if isinstance(other, MultiPoly):
            other = Jet.from_poly(other, self.order)
        elif not isinstance(other, Jet):
            return self._const(other)
        if (other.order != self.order or other.n != self.n
                or other.domain is not self.domain
                and other.domain != self.domain):
            raise ValueError("jet order, variable or domain mismatch")
        return other

    def __mul__(self, other):
        other = self._align(other)
        return self._like(self.ring.mul(self.packed, other.packed,
                                        self.order << self.ring.top))

    def scale(self, c):
        c = self.ring.coeff(self.domain.elem(c))
        return self._like(self.ring.scale(self.packed, c) if c else {})

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
    one_jet = phis[0]._const(domain.one)
    ring = one_jet.ring                 # f's codes are already in it
    items = [(f.ring.exponents(k), c) for k, c in f.packed.items()]
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
            ring.submul(acc, term.packed, 0, c)      # acc -= c * term, in place
    return one_jet._like(ring.scale(acc, ring.minus_one))
