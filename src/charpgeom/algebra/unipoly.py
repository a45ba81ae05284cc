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

Representation notes: `coeffs` is always a tuple of FFElements, since
callers read it.  Over a prime field (one with a table of its p elements,
`FiniteField.prime_elements`), sums, differences, products, divmod and gcd
convert it to residues mod p, run the dense int-list routines of
`finitefield` (shared with the modulus search) and map the result back
through that table; over extension fields the loops run on the elements
themselves.  `gcd` returns 1 at once when either
input is a nonzero constant, the common case of a RatFunc with denominator
1.  Coefficients from another field are rejected with ValueError, since the
int path would otherwise read their residues as if they were this field's.
"""

from .finitefield import pth_root, _ptrim, _padd, _psub, _pmul, _pdivmod, _pgcd
from .powers import power


def _ints(poly):
    """Residues of a polynomial over F_p, low to high."""
    return [c.coeffs[0] for c in poly.coeffs]


def _from_ints(field, ints):
    """The UPoly over F_p with these residues in 0..p-1 (trailing zeros
    allowed); the elements come from the field's table, unchecked."""
    poly = object.__new__(UPoly)
    poly.field = field
    elems = field.prime_elements
    poly.coeffs = tuple([elems[c] for c in _ptrim(ints)])
    return poly


class UPoly:
    """Dense univariate polynomial over a FiniteField."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            cf = getattr(c, "field", None)
            if cf is not field and cf != field:
                raise ValueError(f"coefficient {c!r} is not an element of {field!r}")
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.elem(c) for c in ints])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    @classmethod
    def const(cls, field, c):
        return cls(field, [field.elem(c)])

    def degree(self):
        """Degree, with deg 0 = -1 by convention."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else self.field.zero

    def __eq__(self, other):
        return (isinstance(other, UPoly)
                and (self.field is other.field or self.field == other.field)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if self.field.prime_elements is not None:
            return _from_ints(self.field, _padd(_ints(self), _ints(other), self.field.p))
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(self.field, [self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if self.field.prime_elements is not None:
            return _from_ints(self.field, _psub(_ints(self), _ints(other), self.field.p))
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(self.field, [self[i] - other[i] for i in range(n)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return UPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return UPoly(self.field)
        if self.field.prime_elements is not None:
            return _from_ints(self.field, _pmul(_ints(self), _ints(other), self.field.p))
        zero = self.field.zero
        res = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            if ca:
                for j, cb in enumerate(other.coeffs):
                    res[i + j] = res[i + j] + ca * cb
        return UPoly(self.field, res)

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
        return UPoly(self.field, [c * a for a in self.coeffs])

    def monic(self):
        if not self.coeffs:
            return self
        return self.scale(self.leading().inverse())

    def divmod(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.field.prime_elements is not None:
            q, r = _pdivmod(_ints(self), _ints(other), self.field.p)
            return _from_ints(self.field, q), _from_ints(self.field, r)
        rem = list(self.coeffs)
        q = [self.field.zero] * max(0, len(rem) - len(other.coeffs) + 1)
        inv = other.leading().inverse()
        d = other.degree()
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if c:
                f = c * inv
                q[k - d] = f
                for i, oc in enumerate(other.coeffs):
                    rem[k - d + i] = rem[k - d + i] - f * oc
        return UPoly(self.field, q), UPoly(self.field, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other):
        """Monic gcd; gcd with 0 is the monic associate of the other input."""
        a, b = self, self._coerce(other)
        if len(a.coeffs) == 1 or len(b.coeffs) == 1:   # a nonzero constant
            return UPoly(self.field, [self.field.one])
        if self.field.prime_elements is not None:
            return _from_ints(self.field, _pgcd(_ints(a), _ints(b), self.field.p))
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self):
        p = self.field.p
        return UPoly(self.field,
                     [self.coeffs[i] * (i % p) for i in range(1, len(self.coeffs))])

    def evaluate(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def inflate(self, k):
        """Substitute t -> t^k (exponent spread, no coefficient change)."""
        if not self.coeffs:
            return self
        zero = self.field.zero
        res = [zero] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            res[i * k] = c
        return UPoly(self.field, res)

    def is_pth_power(self):
        """True when the polynomial is g^p for some g (char-p criterion)."""
        p = self.field.p
        return all(c == self.field.zero or i % p == 0
                   for i, c in enumerate(self.coeffs))

    def pth_root_poly(self):
        """g with g^p = self; requires is_pth_power()."""
        p = self.field.p
        if not self.is_pth_power():
            raise ValueError("polynomial is not a p-th power")
        res = [self.field.zero] * (self.degree() // p + 1 if self.coeffs else 0)
        for i in range(0, len(self.coeffs), p):
            res[i // p] = pth_root(self.coeffs[i])
        return UPoly(self.field, res)

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
        if not self.coeffs:
            return "0"
        bits = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = self.field.format_element(c)
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
        other = self._coerce(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, UPoly):
            return RatFunc(other)
        return RatFunc(UPoly.const(self.field, other))

    def __add__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e):
        if e < 0:
            return (1 / self) ** (-e)
        return RatFunc(self.num ** e, self.den ** e)

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
