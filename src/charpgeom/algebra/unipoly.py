"""Univariate polynomials and reduced rational functions over F_{p^m}.

`UPoly` is a dense coefficient tuple (low to high, no trailing zeros, the
zero polynomial is the empty tuple).  `RatFunc` is a reduced fraction of
UPolys with monic denominator: the concrete model of the function fields
K = k(t) and K' = k(s) that the height and covering machinery works over.

Characteristic-p specifics that live here:

* `inflate`: t -> t^p substitution, realizing k(t) inside k(s) via t = s^p;
* `pth_root_of_inflated`: the exact p-th root of a polynomial all of whose
  exponents are multiples of p, using (sum c_j s^j)^p = sum c_j^p s^(pj);
* `squarefree_decomposition`: the char-p algorithm (Yun loop on the part with
  multiplicity prime to p, then recurse on the p-th root of the remainder),
  used for exact branch-place counts in the Hurwitz bookkeeping.

Representation notes: over a prime field with a table of its elements
(`FiniteField.prime_elements`) a UPoly stores its residues, a tuple of ints
in 0..p-1, and every operation runs on them: the dense routines of
`finitefield` (products by one Kronecker big-int product) and residue loops.
`coeffs` is a read-only view that maps them through the table, so it holds
the table's own objects.  Other fields store, and loop on, the elements.
`gcd` returns 1 at once when either input is a nonzero constant, the common
case of a RatFunc with denominator 1.  Coefficients from another field are
rejected with ValueError, since their residues would be read as this field's.
"""

import itertools
import operator

from .finitefield import FFElement, pth_root, _ptrim, _padd, _psub, _pmul, _pdivmod, _pgcd
from .powers import power


def _new(field, stored):
    """The UPoly with these stored coefficients (no trailing zeros), unchecked."""
    poly = object.__new__(UPoly)
    poly.field = field
    poly._c = tuple(stored)
    return poly


class UPoly:
    """Dense univariate polynomial over a FiniteField."""

    __slots__ = ("field", "_c")

    def __init__(self, field, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            cf = getattr(c, "field", None)
            if cf is not field and cf != field:
                raise ValueError(f"coefficient {c!r} is not an element of {field!r}")
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self._c = tuple(cs if field.prime_elements is None else [c.coeffs[0] for c in cs])

    @property
    def coeffs(self):
        """The coefficients as field elements, low to high (read-only)."""
        elems = self.field.prime_elements
        return self._c if elems is None else tuple([elems[c] for c in self._c])

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.elem(c) for c in ints])

    @classmethod
    def lincomb(cls, field, pairs):
        """The sum of w * f over (w, f) in `pairs`, one sum of products per
        column; w is an int or a field element.  Over a tabled prime field
        the columns are summed as ints and reduced once."""
        ws, fs = list(zip(*pairs)) or ((), ())
        tabled = field.prime_elements is not None
        zero = 0 if tabled else field.zero
        acc = [sum(map(operator.mul, ws, col), zero)
               for col in itertools.zip_longest(*[f._c for f in fs], fillvalue=zero)]
        return _new(field, _ptrim([a % field.p for a in acc] if tabled else acc))

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
        elems = self.field.prime_elements
        return self._c[i] if elems is None else elems[self._c[i]]

    def __eq__(self, other):
        return (isinstance(other, UPoly)
                and (self.field is other.field or self.field == other.field)
                and self._c == other._c)

    def __hash__(self):
        return hash((self.field, self._c))

    def __bool__(self):
        return bool(self._c)

    def __add__(self, other):
        other = self._coerce(other)
        if self.field.prime_elements is not None:
            return _new(self.field, _padd(self._c, other._c, self.field.p))
        n = max(len(self._c), len(other._c))
        return _new(self.field, _ptrim([self[i] + other[i] for i in range(n)]))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if self.field.prime_elements is not None:
            return _new(self.field, _psub(self._c, other._c, self.field.p))
        n = max(len(self._c), len(other._c))
        return _new(self.field, _ptrim([self[i] - other[i] for i in range(n)]))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return UPoly(self.field) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if not self._c or not other._c:
            return _new(self.field, ())
        if self.field.prime_elements is not None:
            return _new(self.field, _pmul(self._c, other._c, self.field.p))
        zero = self.field.zero
        res = [zero] * (len(self._c) + len(other._c) - 1)
        for i, ca in enumerate(self._c):
            if ca:
                for j, cb in enumerate(other._c):
                    res[i + j] = res[i + j] + ca * cb
        return _new(self.field, _ptrim(res))

    __rmul__ = __mul__

    def __pow__(self, e):
        return power(self, e, UPoly.const(self.field, 1))

    def _coerce(self, other):
        if isinstance(other, UPoly):
            if other.field is not self.field and other.field != self.field:
                raise ValueError(f"polynomial over {other.field!r} used with "
                                 f"one over {self.field!r}")
            return other
        return UPoly(self.field, [self.field.elem(other)])

    def scale(self, c):
        if self.field.prime_elements is None:
            return _new(self.field, _ptrim([c * a for a in self._c]))
        return _new(self.field, _pmul(self._c, self._coerce(c)._c, self.field.p))

    def monic(self):
        if not self._c:
            return self
        return self.scale(self.leading().inverse())

    def divmod(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.field.prime_elements is not None:
            q, r = _pdivmod(self._c, other._c, self.field.p)
            return _new(self.field, q), _new(self.field, r)
        rem = list(self._c)
        q = [self.field.zero] * max(0, len(rem) - len(other._c) + 1)
        inv = other.leading().inverse()
        d = other.degree()
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if c:
                f = c * inv
                q[k - d] = f
                for i, oc in enumerate(other._c):
                    rem[k - d + i] = rem[k - d + i] - f * oc
        return _new(self.field, _ptrim(q)), _new(self.field, _ptrim(rem))

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other):
        """Monic gcd; gcd with 0 is the monic associate of the other input."""
        a, b = self, self._coerce(other)
        if len(a._c) == 1 or len(b._c) == 1:   # a nonzero constant
            return UPoly(self.field, [self.field.one])
        if self.field.prime_elements is not None:
            return _new(self.field, _pgcd(a._c, b._c, self.field.p))
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self):
        p, cs = self.field.p, self._c
        if self.field.prime_elements is not None:
            return _new(self.field, _ptrim([cs[i] * i % p for i in range(1, len(cs))]))
        return UPoly(self.field, [cs[i] * (i % p) for i in range(1, len(cs))])

    def evaluate(self, x):
        if self.field.prime_elements is None:
            acc = self.field.zero
            for c in reversed(self._c):
                acc = acc * x + c
            return acc
        p, r, acc = self.field.p, self.field.elem(x).coeffs[0], 0
        for c in reversed(self._c):
            acc = (acc * r + c) % p
        return self.field.prime_elements[acc]

    def inflate(self, k):
        """Substitute t -> t^k (exponent spread, no coefficient change)."""
        if not self._c:
            return self
        zero = 0 if self.field.prime_elements is not None else self.field.zero
        res = [zero] * ((len(self._c) - 1) * k + 1)
        res[::k] = self._c
        return _new(self.field, res)

    def is_pth_power(self):
        """True when the polynomial is g^p for some g (char-p criterion)."""
        p = self.field.p
        return all(not c or i % p == 0 for i, c in enumerate(self._c))

    def pth_root_poly(self):
        """g with g^p = self; requires is_pth_power()."""
        if not self.is_pth_power():
            raise ValueError("polynomial is not a p-th power")
        roots = self._c[::self.field.p]
        if self.field.prime_elements is None:
            roots = [pth_root(c) for c in roots]
        return _new(self.field, roots)

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
        tabled = self.field.prime_elements is not None
        bits = []
        for i in range(len(self._c) - 1, -1, -1):
            c = self._c[i]
            if not c:
                continue
            cs = str(c) if tabled else self.field.format_element(c)
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
            den = UPoly.const(num.field, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = num.gcd(den)
        if g.degree() > 0:
            num, den = num // g, den // g
        lead = den.leading()
        if lead != den.field.one:
            inv = lead.inverse()
            num, den = num.scale(inv), den.scale(inv)
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
            return RatFunc(UPoly.const(self.field, other))
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
            inv = num.leading().inverse()
            num, den, e = den.scale(inv), num.scale(inv), -e
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
