"""Exact arithmetic in finite fields F_{p^m} of odd characteristic.

Elements are stored in a fixed polynomial basis over F_p: an element is a
tuple of m integers (c_0, ..., c_{m-1}) representing c_0 + c_1*a + ... where
a is a root of a fixed monic irreducible modulus of degree m.  For m = 1 the
tuple has a single entry and arithmetic degenerates to integers mod p.

The characteristic is restricted to odd primes: every construction downstream
(Hessians, diagonalization of quadratic forms, blow-up multiplicities) needs
2 to be invertible, so p = 2 is rejected at the door.

Frobenius x -> x^p is an automorphism; its inverse (the exact p-th root) is
x -> x^(p^(m-1)).  Square roots use Tonelli-Shanks with a scanned non-residue,
and `FiniteField.extension` produces F_{p^(m*k)} together with an embedding,
which is how callers "enlarge the field" for missing square roots.
Fields of at most PRIME_TABLE_MAX elements keep tables for the kernels of
`monomials.py`: F_p its residues' elements, F_{p^m} its Zech logarithms.
"""

import functools
import itertools
import sys
from array import array

from .powers import power


def is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# -- dense univariate arithmetic over F_p on residues -------------------------
#
# Coefficients run low to high, in 0..p-1, no trailing zeros.  `_pmul` is one
# Kronecker product: each factor one int with a residue per w-byte slot, the
# slots of the product reduced mod p.  A slot sums at most
# min(#a, #b) * (p-1)^2 < 256^w; a bound that does not fit raises, never
# wraps.  At w = 1, as in `_padd` for p < 128, bytes pack and `translate` by
# a table of i mod p (`_mod_table`, built on first use) reduces, both in C.
# Wider slots round up to a native-order `array` of 2-, 4- or 8-byte items (a
# big-endian host reverses both factors, so their product); wider, `to_bytes`.

def _ptrim(a):
    while a and not a[-1]:
        a.pop()
    return a

@functools.lru_cache(maxsize=None)
def _mod_table(p, sign=1):
    return bytes(sign * i % p for i in range(256))

def _padd(a, b, p, sign=1):
    """a + sign * b mod p, sign = 1 or -1."""
    if p < 128:                         # a slot holds at most 2(p-1) < 256
        x = (int.from_bytes(bytearray(a), "little")
             + int.from_bytes(bytearray(b).translate(_mod_table(p, sign)), "little"))
        raw = x.to_bytes(max(len(a), len(b)), "little")
        return list(raw.translate(_mod_table(p)).rstrip(b"\0"))
    return _ptrim([(x + sign * y) % p
                   for x, y in itertools.zip_longest(a, b, fillvalue=0)])

def _psub(a, b, p):
    """a - b mod p."""
    return _padd(a, b, p, -1)

_ARRAY_CODES = {array(c).itemsize: c for c in "HILQ"}

def _slot_bytes(bound):
    """Least slot width w in bytes with bound < 256^w."""
    return (bound.bit_length() + 7) // 8

def _pmul(a, b, p):
    """a * b mod p, by one big-int product (Kronecker substitution)."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return []
    if len(a) == 1 and a[0] == 1:       # the unit: no product to take
        return list(b)
    n = len(a) + len(b) - 1
    bound = len(a) * (p - 1) ** 2
    w = _slot_bytes(bound)
    if bound >> (8 * w):
        raise OverflowError(f"slot bound {bound} does not fit {w} bytes")
    if w == 1:
        x = int.from_bytes(bytearray(a), "little") * int.from_bytes(bytearray(b), "little")
        return list(x.to_bytes(n, "little").translate(_mod_table(p)))
    w = next((k for k in (2, 4, 8) if k >= w), w)
    if w in _ARRAY_CODES:
        order, code = sys.byteorder, _ARRAY_CODES[w]
        x = int.from_bytes(array(code, a), order) * int.from_bytes(array(code, b), order)
        res = [c % p for c in array(code, x.to_bytes(n * w, order))]
        return res if order == "little" else res[::-1]
    x = (int.from_bytes(b"".join([c.to_bytes(w, "little") for c in a]), "little")
         * int.from_bytes(b"".join([c.to_bytes(w, "little") for c in b]), "little"))
    raw = x.to_bytes(n * w, "little")
    return [int.from_bytes(raw[i:i + w], "little") % p for i in range(0, n * w, w)]

def _pdivmod(a, b, p):
    """(q, r) with a = q*b + r and deg r < deg b; b must be nonzero."""
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    r = list(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = r[k] % p
        if c:
            f = c * inv % p
            q[k - db] = f
            s = k - db
            for i in range(db):
                r[s + i] -= f * b[i]
    return q, _ptrim([c % p for c in r[:db]])

class _Residue:
    """The class of an int list mod a fixed modulus over F_p, for `power`."""

    __slots__ = ("coeffs", "mod", "p")

    def __init__(self, coeffs, mod, p):
        self.coeffs, self.mod, self.p = _pdivmod(coeffs, mod, p)[1], mod, p

    def __mul__(self, other):
        return _Residue(_pmul(self.coeffs, other.coeffs, self.p), self.mod, self.p)

def _pgcd(a, b, p):
    """Monic gcd; [] when both inputs are zero."""
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a and a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a

def _is_irreducible(f, p):
    """Monic f of degree m >= 1 over F_p, coefficient list low-to-high."""
    m = len(f) - 1
    if m == 1:
        return True
    x, one = _Residue([0, 1], f, p), _Residue([1], f, p)
    # x^(p^m) == x mod f
    if _psub(power(x, p ** m, one).coeffs, x.coeffs, p):
        return False
    # gcd(x^(p^(m/l)) - x, f) == 1 for every prime l | m
    for l in set(_prime_factors(m)):
        xq = power(x, p ** (m // l), one).coeffs
        g = _pgcd(f, _psub(xq, x.coeffs, p), p)
        if len(g) != 1:
            return False
    return True

def _prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out

def _find_modulus(p, m):
    """First monic irreducible of degree m over F_p in lexicographic order."""
    if m == 1:
        return (0, 1)
    # the constant term varies slowest; a zero one makes f divisible by x
    for tail in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        f = list(tail) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found (impossible)")


# Largest order of a field with tables: prime_elements, or log_tables.
PRIME_TABLE_MAX = 1 << 16


@functools.lru_cache(maxsize=None)
def FF(p, m=1):
    """Cached constructor for F_{p^m}."""
    return FiniteField(p, m)


class TooLargeToEmbed(ValueError):
    """A field extension too large to embed by scanning."""


class FiniteField:
    """The field F_{p^m}, p an odd prime, in the polynomial basis of the
    deterministic modulus `_find_modulus(p, m)`."""

    def __init__(self, p, m=1):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        if m < 1:
            raise ValueError("extension degree must be positive")
        self.p = p
        self.m = m
        self.order = p ** m
        self.prime = p if m == 1 else None      # p when elements are residues
        self.modulus = _find_modulus(p, m)
        # over F_p, the canonical element of each residue 0..p-1: prime-field
        # kernels that compute on ints map their results back through it
        # (None for extension fields and for p beyond the table bound)
        self.prime_elements = None
        if m == 1 and p <= PRIME_TABLE_MAX:
            self.prime_elements = tuple(FFElement(self, (c,)) for c in range(p))
            self.zero, self.one = self.prime_elements[:2]
        else:
            self.zero = FFElement(self, (0,) * m)
            self.one = FFElement(self, (1,) + (0,) * (m - 1))
        self._generator = None
        self._nonresidue = None
        self._log_tables = None

    def __repr__(self):
        return f"FF({self.p})" if self.m == 1 else f"FF({self.p}^{self.m})"

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    # -- element construction ------------------------------------------------

    def elem(self, value):
        """Coerce an int, coefficient sequence, or FFElement of this field."""
        if isinstance(value, FFElement):
            if value.field != self:
                raise ValueError(f"element of {value.field} used in {self}")
            return value
        if isinstance(value, int):
            if self.prime_elements is not None:
                return self.prime_elements[value % self.p]
            return FFElement(self, (value % self.p,) + (0,) * (self.m - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.m:
            raise ValueError("coefficient vector too long")
        return FFElement(self, coeffs + (0,) * (self.m - len(coeffs)))

    def from_index(self, k):
        """Element number k in the base-p enumeration, 0 <= k < p^m."""
        digits = []
        for _ in range(self.m):
            digits.append(k % self.p)
            k //= self.p
        return FFElement(self, tuple(digits))

    def elements(self):
        """All p^m elements, in the deterministic base-p enumeration order."""
        return (self.from_index(k) for k in range(self.order))

    # -- internal coefficient-tuple arithmetic --------------------------------

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, a, b):
        p, m = self.p, self.m
        if m == 1:
            return (a[0] * b[0] % p,)
        res = [0] * (2 * m - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    res[i + j] = (res[i + j] + ca * cb) % p
        # reduce by the monic modulus
        mod = self.modulus
        for k in range(2 * m - 2, m - 1, -1):
            c = res[k]
            if c:
                res[k] = 0
                for i in range(m):
                    res[k - m + i] = (res[k - m + i] - c * mod[i]) % p
        return tuple(res[:m])

    # -- field-level operations ----------------------------------------------

    def generator(self):
        """A fixed generator of the multiplicative group (smallest in order).
        For m > 1 none lies in F_p, so the scan starts past it."""
        if self._generator is None:
            n = self.order - 1
            primes = sorted(set(_prime_factors(n)))
            for k in range(self.p if self.m > 1 else 1, self.order):
                g = self.from_index(k)
                if all(g ** (n // l) != self.one for l in primes):
                    self._generator = g
                    break
        return self._generator

    def log_tables(self):
        """(exp, log, zech), built on first use: code 0 is zero and 1 + k
        is g^k for the generator g; exp[code] is the element, log maps
        coefficient tuples to codes, and zech[d] is the code of 1 + g^d.
        ValueError above PRIME_TABLE_MAX elements, before any allocation."""
        if self.order > PRIME_TABLE_MAX:
            raise ValueError(f"{self!r} has more than {PRIME_TABLE_MAX} "
                             f"elements: no log tables")
        if self._log_tables is None:
            g, x, exp = self.generator().coeffs, self.one.coeffs, [self.zero]
            for _ in range(self.order - 1):
                exp.append(FFElement(self, x))
                x = self._mul(x, g)
            log = {a.coeffs: code for code, a in enumerate(exp)}
            zech = [log[self._add(exp[1].coeffs, a.coeffs)] for a in exp[1:]]
            self._log_tables = exp, log, zech
        return self._log_tables

    def is_square(self, a):
        if a == self.zero:
            return True
        return a ** ((self.order - 1) // 2) == self.one

    def sqrt(self, a):
        """A square root of a, or None when a is a non-residue.

        Tonelli-Shanks on the cyclic group F_q^*; the needed non-residue is
        the first one in enumeration order, cached.  For even m every
        element of F_p is a square, so that scan starts past F_p.
        """
        if a == self.zero:
            return self.zero
        q = self.order
        if not self.is_square(a):
            return None
        if q % 4 == 3:
            return a ** ((q + 1) // 4)
        if self._nonresidue is None:
            for k in range(self.p if self.m % 2 == 0 else 1, q):
                c = self.from_index(k)
                if not self.is_square(c):
                    self._nonresidue = c
                    break
        s, e = q - 1, 0
        while s % 2 == 0:
            s //= 2
            e += 1
        c = self._nonresidue ** s
        x = a ** ((s + 1) // 2)
        t = a ** s
        m = e
        while t != self.one:
            # least k with t^(2^k) = 1; 0 < k < m
            k, v = 0, t
            while v != self.one:
                v = v * v
                k += 1
            b = c ** (2 ** (m - k - 1))
            m = k
            c = b * b
            x = x * b
            t = t * c
        return x

    def extension(self, k=2):
        """F_{p^(m*k)} plus an embedding function of this field into it;
        for k = 1, this field itself and the identity.

        The embedding sends the basis generator to a root of this field's
        modulus, found by scanning; scanning is only feasible for small
        fields, which is the regime this artifact works in.
        """
        if k == 1:
            return self, (lambda a: a)
        if self.m > 1 and self.order ** k > 2_000_000:
            raise TooLargeToEmbed(f"extension of {self!r} too large to embed by scanning")
        big = FF(self.p, self.m * k)
        if self.m == 1:
            def embed(a, _big=big):
                return _big.elem(a.coeffs[0])
            return big, embed
        mod = self.modulus
        root = None
        for cand in big.elements():
            acc = big.zero
            for c in reversed(mod):
                acc = acc * cand + big.elem(c)
            if acc == big.zero:
                root = cand
                break
        assert root is not None, "modulus has a root in any extension of degree m*k"
        pows = [big.one]
        for _ in range(self.m - 1):
            pows.append(pows[-1] * root)
        def embed(a, _big=big, _pows=pows):
            acc = _big.zero
            for c, w in zip(a.coeffs, _pows):
                if c:
                    acc = acc + _big.elem(c) * w
            return acc
        return big, embed

    # -- canonical text encoding ----------------------------------------------

    def format_element(self, a):
        """Integer string for prime-field values, otherwise `g^k` with k
        the discrete log of a (`log_tables`), or above PRIME_TABLE_MAX
        elements the vector `[c_0,...]` of `repr`, which does not parse back."""
        if all(c == 0 for c in a.coeffs[1:]):
            return str(a.coeffs[0])
        if self.order > PRIME_TABLE_MAX:
            return repr(a)
        return f"g^{self.log_tables()[1][a.coeffs] - 1}"

    def parse_element(self, text):
        text = text.strip()
        try:
            if text.startswith("g^"):
                return self.generator() ** int(text[2:])
            return self.generator() if text == "g" else self.elem(int(text))
        except ValueError:
            raise ValueError(f"{text!r} is not an element of {self!r}") from None


class FFElement:
    """Immutable element of a FiniteField; full operator arithmetic."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs
        self._hash = None

    def __repr__(self):
        if self.field.m == 1:
            return str(self.coeffs[0])
        return f"[{','.join(map(str, self.coeffs))}]"

    def __eq__(self, other):
        if isinstance(other, FFElement):
            return ((self.field is other.field or self.field == other.field)
                    and self.coeffs == other.coeffs)
        if isinstance(other, int):
            return self == self.field.elem(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

    def __bool__(self):
        return any(self.coeffs)

    def __add__(self, other):
        if other.__class__ is not FFElement:
            if not isinstance(other, int):
                return NotImplemented
            other = self.field.elem(other)
        elif other.field is not self.field and other.field != self.field:
            raise _mixed(self, other)
        return FFElement(self.field, self.field._add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not FFElement:
            if not isinstance(other, int):
                return NotImplemented
            other = self.field.elem(other)
        elif other.field is not self.field and other.field != self.field:
            raise _mixed(self, other)
        return FFElement(self.field, self.field._sub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return self.field.elem(other) - self

    def __neg__(self):
        return FFElement(self.field, self.field._neg(self.coeffs))

    def __mul__(self, other):
        if other.__class__ is not FFElement:
            if not isinstance(other, int):
                return NotImplemented
            other = self.field.elem(other)
        elif other.field is not self.field and other.field != self.field:
            raise _mixed(self, other)
        return FFElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not FFElement:
            if not isinstance(other, int):
                return NotImplemented
            other = self.field.elem(other)
        return self * other.inverse()       # __mul__ checks the fields

    def __rtruediv__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return self.field.elem(other) / self

    def inverse(self):
        """a^(q-2), the inverse in F_q^*; ZeroDivisionError for zero."""
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero in " + repr(self.field))
        return power(self, self.field.order - 2, self.field.one)

    def __pow__(self, e):
        if e < 0:
            return power(self.inverse(), -e, self.field.one)
        return power(self, e, self.field.one)


def _mixed(a, b):
    return ValueError(f"element of {b.field!r} used with one of {a.field!r}")


def pth_root(a):
    """The exact p-th root in F_{p^m}: the inverse of Frobenius.

    Frobenius is an automorphism of order m, so its inverse is the (m-1)-fold
    Frobenius: a^(p^(m-1)).  On the prime field this is the identity.
    """
    field = a.field
    x = a
    for _ in range(field.m - 1):
        x = x ** field.p
    return x
