"""Univariate polynomials and reduced rational functions over F_{p^m}.

`UPoly` is a dense coefficient tuple (low to high, no trailing zeros, the
zero polynomial is the empty tuple).  `RatFunc` is a reduced fraction of
UPolys with monic denominator: the concrete model of the function fields
K = k(t) and K' = k(s) that the height and covering machinery works over.

Characteristic-p specifics that live here:

* `inflate`: t -> t^p substitution, realizing k(t) inside k(s) via t = s^p;
* `UPoly.pth_root_poly`: the exact p-th root of a polynomial all of whose
  exponents are multiples of p, using (sum c_j s^j)^p = sum c_j^p s^(pj),
  one kernel `root` per coefficient code; `ratfunc_pth_root` does the same
  for fractions;
* `squarefree_decomposition`: the char-p algorithm (Yun loop on the part with
  multiplicity prime to p, then recurse on the p-th root of the remainder),
  used for exact branch-place counts in the Hurwitz bookkeeping.

Representation notes: a UPoly stores coefficient codes of its kernel
`ring`, the one `monomials.ring(field, 1)` picks for the field, and every
operation is one of that kernel's dense ops on them.  Derived results reuse
their operand's kernel, so no arithmetic looks the ring up.  `coeffs` is a
read-only view that maps the codes to the kernel's elements.  `gcd` returns
1 at once when either input is a nonzero constant, the common case of a
RatFunc with denominator 1.  Coefficients from another field are rejected
with ValueError, since their codes would be read as this field's.
"""

from . import monomials
from .finitefield import FFElement, _ptrim
from .powers import power


def _kernel(field):
    """`monomials.ring(field, 1)`; for a copy of the field that ring was
    made for, a kernel of the same class on the copy, whose elements are
    the copy's own."""
    kernel = monomials.ring(field, 1)
    return kernel if kernel.domain is field else type(kernel)(field, 1)


def _new(ring, stored):
    """The UPoly with these codes of `ring` (no trailing zeros), unchecked."""
    poly = object.__new__(UPoly)
    poly.field, poly.ring, poly._c = ring.domain, ring, tuple(stored)
    return poly


class UPoly:
    """Dense univariate polynomial over a FiniteField."""

    __slots__ = ("field", "ring", "_c")

    def __init__(self, field, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            cf = getattr(c, "field", None)
            if cf is not field and cf != field:
                raise ValueError(f"coefficient {c!r} is not an element of {field!r}")
        self.field, self.ring = field, _kernel(field)
        self._c = tuple(_ptrim(list(map(self.ring.coeff, cs))))

    @property
    def coeffs(self):
        """The coefficients as field elements, low to high (read-only)."""
        return tuple(map(self.ring.element, self._c))

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.elem(c) for c in ints])

    @classmethod
    def lincomb(cls, field, pairs):
        """The sum of w * f over (w, f) in the list `pairs`, w a code of
        f's kernel.  The kernel is the first f's; `field` serves only an
        empty list."""
        if not pairs:
            return cls(field)
        ws, fs = zip(*pairs)
        ring = fs[0].ring
        return _new(ring, ring.dense_lincomb(ws, [f._c for f in fs]))

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    @classmethod
    def const(cls, field, c):
        return cls(field, [field.elem(c)])

    def degree(self):
        """Degree, with deg 0 = -1 by convention."""
        return len(self._c) - 1

    def is_zero(self):
        return not self._c

    def is_constant(self):
        return len(self._c) <= 1

    def leading(self):
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self[-1]

    def __getitem__(self, i):
        if i >= len(self._c):
            return self.field.zero
        return self.ring.element(self._c[i])

    # __getitem__ reads zero past the degree, so iteration would never end
    __iter__ = None

    def __eq__(self, other):
        return (isinstance(other, UPoly)
                and (self.field is other.field or self.field == other.field)
                and self._c == other._c)

    def __hash__(self):
        return hash((self.field, self._c))

    def __bool__(self):
        return bool(self._c)

    def __add__(self, other):
        return _new(self.ring, self.ring.dense_add(self._c, self._coerce(other)._c))

    __radd__ = __add__

    def __sub__(self, other):
        return _new(self.ring, self.ring.dense_sub(self._c, self._coerce(other)._c))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return _new(self.ring, self.ring.dense_sub((), self._c))

    def __mul__(self, other):
        return _new(self.ring, self.ring.dense_mul(self._c, self._coerce(other)._c))

    __rmul__ = __mul__

    def __pow__(self, e):
        return power(self, e, self._coerce(1))

    def _coerce(self, other):
        if isinstance(other, UPoly):
            if other.field is not self.field and other.field != self.field:
                raise ValueError(f"polynomial over {other.field!r} used with "
                                 f"one over {self.field!r}")
            return other
        code = self.ring.coeff(self.field.elem(other))
        return _new(self.ring, (code,) if code else ())

    def _times(self, unit):
        """self times the constant with the nonzero code `unit`."""
        return _new(self.ring, self.ring.dense_mul(self._c, (unit,)))

    scale = __mul__

    def monic(self):
        if not self._c:
            return self
        return self._times(self.ring.inverse(self._c[-1]))

    def divmod(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = self.ring.dense_divmod(self._c, other._c)
        return _new(self.ring, q), _new(self.ring, r)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other):
        """Monic gcd; gcd with 0 is the monic associate of the other input."""
        a, b = self._c, self._coerce(other)._c
        if len(a) == 1 or len(b) == 1:   # a nonzero constant
            return _new(self.ring, (self.ring.one,))
        return _new(self.ring, self.ring.dense_gcd(a, b))

    def derivative(self):
        ring, elem = self.ring, self.field.elem
        return _new(ring, _ptrim([ring.times(c, ring.coeff(elem(i)))
                                  for i, c in enumerate(self._c) if i]))

    def evaluate(self, x):
        ring = self.ring
        return ring.element(ring.horner(self._c, ring.coeff(self.field.elem(x))))

    def inflate(self, k):
        """Substitute t -> t^k (exponent spread, no coefficient change)."""
        if not self._c:
            return self
        res = [self.ring.zero] * ((len(self._c) - 1) * k + 1)
        res[::k] = self._c
        return _new(self.ring, res)

    def is_pth_power(self):
        """True when the polynomial is g^p for some g (char-p criterion)."""
        p = self.field.p
        return all(not c or i % p == 0 for i, c in enumerate(self._c))

    def pth_root_poly(self):
        """g with g^p = self; requires is_pth_power()."""
        if not self.is_pth_power():
            raise ValueError("polynomial is not a p-th power")
        return _new(self.ring, map(self.ring.root, self._c[::self.field.p]))

    def squarefree_decomposition(self):
        """Exact char-p squarefree decomposition.

        Returns (lc, parts) with parts a dict {multiplicity: monic squarefree},
        pairwise coprime, and self = lc * prod part^mult.
        """
        if self.is_zero():
            raise ValueError("zero polynomial has no squarefree decomposition")
        lc = self.leading()
        f = self.monic()
        parts = {}
        scale = 1
        while f.degree() > 0:
            df = f.derivative()
            if df.is_zero():
                f = f.pth_root_poly()
                scale *= self.field.p
                continue
            g = f.gcd(df)
            h = (f // g).monic()           # product of factors with p∤mult
            i = 1
            while h.degree() > 0:
                hn = h.gcd(g)
                piece = (h // hn).monic()  # factors of multiplicity exactly i
                if piece.degree() > 0:
                    key = i * scale
                    parts[key] = parts.get(key, UPoly.const(self.field, 1)) * piece
                g = g // hn
                h = hn
                i += 1
            f = g.monic() if not g.is_zero() else UPoly.const(self.field, 1)
        return lc, parts

    def format(self, name="t"):
        if not self._c:
            return "0"
        text, element = self.field.format_element, self.ring.element
        bits = []
        for i in range(len(self._c) - 1, -1, -1):
            c = self._c[i]
            if not c:
                continue
            cs = text(element(c))
            if i == 0:
                bits.append(cs)
            elif i == 1:
                bits.append(f"{name}" if cs == "1" else f"{cs}*{name}")
            else:
                bits.append(f"{name}^{i}" if cs == "1" else f"{cs}*{name}^{i}")
        return " + ".join(bits)

    def __repr__(self):
        return self.format()


class RatFunc:
    """Reduced fraction num/den of UPolys; den monic and coprime to num."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = num._coerce(1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = num.gcd(den)
        if g.degree() > 0:
            num, den = num // g, den // g
        if den._c[-1] != den.ring.one:
            inv = den.ring.inverse(den._c[-1])
            num, den = num._times(inv), den._times(inv)
        self.num = num
        self.den = den

    @property
    def field(self):
        return self.num.field

    @classmethod
    def const(cls, field, c):
        return cls(UPoly.const(field, c))

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def __eq__(self, other):
        if (other := self._coerce(other)) is NotImplemented:
            return other
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        """other as a RatFunc; NotImplemented for an operand of another type."""
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, UPoly):
            return RatFunc(other)
        if isinstance(other, (int, FFElement)):
            return RatFunc(self.num._coerce(other))
        return NotImplemented

    def __add__(self, other):
        if (other := self._coerce(other)) is NotImplemented:
            return other
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if (other := self._coerce(other)) is NotImplemented:
            return other
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        if (other := self._coerce(other)) is NotImplemented:
            return other
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (other := self._coerce(other)) is NotImplemented:
            return other
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other / self

    def __pow__(self, e):
        """num^e / den^e with no gcd: coprime parts stay coprime under
        powers, and a monic denominator stays monic.  For e < 0 the parts
        swap first, scaled to keep the denominator monic."""
        num, den = self.num, self.den
        if e < 0:
            if num.is_zero():
                raise ZeroDivisionError("division by zero rational function")
            inv = num.ring.inverse(num._c[-1])
            num, den, e = den._times(inv), num._times(inv), -e
        out = object.__new__(RatFunc)
        out.num, out.den = num ** e, den ** e
        return out

    def inverse(self):
        return 1 / self

    def inflate(self, k):
        return RatFunc(self.num.inflate(k), self.den.inflate(k))

    def evaluate(self, x):
        d = self.den.evaluate(x)
        if not d:
            return None
        return self.num.evaluate(x) / d

    def format(self, name="t"):
        n = self.num.format(name)
        if self.den.degree() == 0:
            return n
        return f"({n})/({self.den.format(name)})"

    def __repr__(self):
        return self.format()


class RatFuncField:
    """Domain wrapper: the field k(t), for use as MultiPoly coefficients."""

    def __init__(self, field, varname="t"):
        self.base = field
        self.varname = varname
        self.p = field.p
        self.prime = None           # not a prime field: no residues
        self.zero = RatFunc(UPoly(field))
        self.one = RatFunc(UPoly.const(field, 1))

    def __repr__(self):
        return f"{self.base!r}({self.varname})"

    def __eq__(self, other):
        return (isinstance(other, RatFuncField) and self.base == other.base
                and self.varname == other.varname)

    def __hash__(self):
        return hash((self.base, self.varname))

    def elem(self, value):
        if isinstance(value, RatFunc):
            if value.field != self.base:
                raise ValueError("rational function over the wrong field")
            return value
        if isinstance(value, UPoly):
            return RatFunc(value)
        return RatFunc(UPoly.const(self.base, value))

    def format_element(self, a):
        return a.format(self.varname)

    def pth_root(self, a):
        """b with b^p = a in k(t), or None when a is not a p-th power."""
        if not (a.num.is_pth_power() and a.den.is_pth_power()):
            return None
        return RatFunc(a.num.pth_root_poly(), a.den.pth_root_poly())


def lcm(field, polys):
    """The lcm of the UPolys over `field` (monic if they are), 1 for none."""
    out = UPoly.const(field, 1)
    for d in polys:
        out = out * (d // out.gcd(d))
    return out


def ratfunc_pth_root(a):
    """Exact p-th root of a(s^p) in k(s), for a in k(t).

    With t = s^p the element a(t) becomes a(s^p), all of whose exponents are
    multiples of p; perfectness of k then gives the root coefficientwise:
    (sum c_j s^j)^p = sum c_j^p s^(pj).  Returns r with r(s)^p = a(s^p).
    """
    p = a.field.p
    num = a.num.inflate(p).pth_root_poly()
    den = a.den.inflate(p).pth_root_poly()
    return RatFunc(num, den)
