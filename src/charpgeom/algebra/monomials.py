"""Packed monomials and the coefficient kernel of every polynomial class.

A key holds the exponents e_1..e_n of a monomial in guarded fields (its low
half) beneath their partial sums s_n, ..., s_1 (its high half), so integer
order is grevlex order, `key >> top` is the total degree, a monomial
product is the sum of its factors' keys, and divisibility is one guarded
subtraction (Monagan & Pearce, "Polynomial division using dynamic arrays,
heaps, and packed exponent vectors", CASC 2007).  A degree above MAX_DEGREE
raises ValueError, never wraps.

A packed polynomial is a plain dict {key: coefficient}, in one of three
coefficient kernels that `ring(domain, n)` picks: residues 0..p-1 over F_p
(`Residues`), Zech-log codes over F_{p^m} with m > 1 (`ZechLogs`), both up
to PRIME_TABLE_MAX elements, and domain elements otherwise (`Ring`).  Code
on top of the kernel (`MultiPoly`, `Jet`, Buchberger, `UPoly` and the point
sweeps of `covers`) has one path for all three.  Only `coeff` and `element`
cross between codes and domain elements, and only `monomial` and
`exponents` between keys and exponent tuples.  A kernel defines its
conversions, `scale`, `submul` and `mul`, the scalar `times` and `plus`,
and the p-th `root` of a code; the sum `Ring.add` is one `submul` by -1 in
all three.  UPoly's dense ops and Horner are written once on `times`,
`plus` and `inverse`, and its p-th root on `root`; `Residues` sums,
multiplies and divides by the Kronecker products and byte tables of
`finitefield` instead.  `ring` is memoised, so every polynomial, jet,
Buchberger run and UPoly over equal (domain, n) share one ring.
"""

import functools
import itertools
import operator

from .finitefield import PRIME_TABLE_MAX, _ptrim, _padd, _pmul, _pdivmod, pth_root

FIELD_BITS = 16                            # per exponent, guard bit included
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1   # also the mask of one exponent


def _check_degree(d):
    if d > MAX_DEGREE:
        raise ValueError(f"monomial degree {d} exceeds the packed-key bound "
                         f"MAX_DEGREE = {MAX_DEGREE}")


class Ring:
    """Packed monomials in n variables, and the coefficient kernel on domain
    elements; `Residues` and `ZechLogs` replace the kernel over tabled
    prime and extension fields."""

    def __init__(self, domain, n):
        self.domain, self.n = domain, n
        self.low_bits = FIELD_BITS * n
        self.low_mask = (1 << self.low_bits) - 1
        self.guard = sum(1 << (FIELD_BITS * i + FIELD_BITS - 1) for i in range(n))
        self.prefix = sum(1 << (FIELD_BITS * i) for i in range(n))
        self.shifts = range(0, self.low_bits, FIELD_BITS)
        self.top = 2 * self.low_bits - FIELD_BITS     # key >> top is the degree
        self.zero = self.coeff(domain.zero)
        self.one = self.coeff(domain.one)
        self.minus_one = self.coeff(domain.elem(-1))

    def key(self, low):
        """Key of the exponent fields `low`: their partial sums, from one
        multiplication, on top.  Exact up to degree 2 * MAX_DEGREE (lcms)."""
        high = low * self.prefix & self.low_mask
        _check_degree(high >> (self.low_bits - FIELD_BITS))
        return high << self.low_bits | low

    def monomial(self, exps):
        """Key of an exponent tuple of length n with entries >= 0."""
        if len(exps) != self.n or min(exps, default=0) < 0:
            raise ValueError(f"exponents {tuple(exps)!r} of a monomial in {self.n} variables")
        _check_degree(sum(exps))
        return self.key(sum(e << s for e, s in zip(exps, self.shifts)))

    def exponents(self, key):
        """Exponent tuple of a key."""
        return tuple(key >> s & MAX_DEGREE for s in self.shifts)

    def lcm(self, a, b):
        """Exponent fields of the lcm of two keys."""
        a, b = a & self.low_mask, b & self.low_mask
        ge = ((a | self.guard) - b) & self.guard      # guard bit where a_i >= b_i
        ge -= ge >> (FIELD_BITS - 1)                  # ... widened to a mask
        return (a & ge) | (b & ~ge)

    # -- coefficient kernel: conversions, inverse, scalar product and sum,
    # -- scaling, shifted multiply-subtract and truncated products; sums of
    # -- polynomials are one submul

    def coeff(self, c):
        return c

    def element(self, c):
        return c

    def inverse(self, c):
        return c.inverse()

    def times(self, a, b):
        return a * b

    def plus(self, a, b):
        return a + b

    def root(self, c):
        """The code of the p-th root; None when c has none, which only a
        domain with its own `pth_root` (k(t)) can say."""
        return getattr(self.domain, "pth_root", pth_root)(c)

    def scale(self, poly, c):
        """c * poly, for a nonzero c."""
        return {k: v * c for k, v in poly.items()}

    def add(self, a, b):
        """a + b, as a new dict: one `submul` by -1, in every kernel."""
        out = dict(a)
        self.submul(out, b, 0, self.minus_one)
        return out

    def submul(self, work, poly, shift, c):
        """work -= c * x^shift * poly, in place."""
        get, zero = work.get, self.domain.zero
        for k, v in poly.items():
            k += shift
            r = get(k, zero) - c * v
            if r:
                work[k] = r
            else:
                del work[k]

    def mul(self, a, b, bound):
        """a * b without the terms of key >= bound: with bound = r << top,
        the terms of degree >= r."""
        out, zero = {}, self.domain.zero
        get = out.get
        b = sorted(b.items())             # by degree first: each row stops early
        for k1, c1 in a.items():
            lim = bound - k1
            for k2, c2 in b:
                if k2 >= lim:
                    break
                k = k1 + k2
                r = get(k, zero) + c1 * c2
                if r:
                    out[k] = r
                else:
                    del out[k]
        return out

    # -- UPoly's dense ops on code sequences, low to high, no trailing zero

    def dense_add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        return _ptrim(list(map(self.plus, a, b)) + list(a[len(b):]))

    def dense_sub(self, a, b):
        return self.dense_add(a, self.dense_mul(b, [self.minus_one]))

    def dense_mul(self, a, b):
        times, plus = self.times, self.plus
        out = [self.zero] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] = plus(out[j], times(x, y))
        return out

    def dense_divmod(self, a, b):
        """(q, r) with a = q b + r and deg r < deg b, for a nonzero b."""
        times, plus, d, r = self.times, self.plus, len(b) - 1, list(a)
        inv, neg = self.inverse(b[-1]), self.dense_mul(b[:d], [self.minus_one])
        q = [self.zero] * max(len(a) - d, 0)
        for k in range(len(a) - 1, d - 1, -1):
            if c := r[k]:
                f = q[k - d] = times(c, inv)
                for i, y in enumerate(neg, k - d):
                    r[i] = plus(r[i], times(f, y))
        return q, _ptrim(r[:d])

    def dense_gcd(self, a, b):
        """Monic gcd; [] when both are zero."""
        while b:
            a, b = b, self.dense_divmod(a, b)[1]
        return self.dense_mul(a, [self.inverse(a[-1])]) if a else []

    def dense_lincomb(self, weights, polys):
        """The sum of w * f over the codes w and the polynomials f."""
        out = []
        for w, f in zip(weights, polys):
            out = self.dense_add(out, self.dense_mul(f, [w] if w else []))
        return out

    def horner(self, coeffs, x):
        """The code of the value at the code x of the polynomial `coeffs`."""
        times, plus, acc = self.times, self.plus, self.zero
        for c in reversed(coeffs):
            acc = plus(times(acc, x), c)
        return acc


class Residues(Ring):
    """The coefficient kernel over F_p, on residues 0..p-1.  Its dense
    sum, product and divmod are `finitefield`'s, and column sums are
    reduced once; the other dense ops are the generic ones on them."""

    def coeff(self, c):
        return c.coeffs[0]

    def element(self, r):
        return self.domain.prime_elements[r]

    def inverse(self, c):
        return pow(c, -1, self.domain.p)

    def times(self, a, b):
        return a * b % self.domain.p

    def plus(self, a, b):
        return (a + b) % self.domain.p

    def root(self, c):
        return c

    def scale(self, poly, c):
        p = self.domain.p
        return {k: v * c % p for k, v in poly.items()}

    def submul(self, work, poly, shift, c):
        get, p = work.get, self.domain.p
        for k, v in poly.items():
            k += shift
            r = (get(k, 0) - c * v) % p
            if r:
                work[k] = r
            else:
                del work[k]

    def mul(self, a, b, bound):
        out, p = {}, self.domain.p
        get = out.get
        b = sorted(b.items())
        for k1, c1 in a.items():
            lim = bound - k1
            for k2, c2 in b:
                if k2 >= lim:
                    break
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2          # reduced once, below
        return {k: r for k, r in ((k, r % p) for k, r in out.items()) if r}

    def dense_add(self, a, b):
        return _padd(a, b, self.domain.p)

    def dense_mul(self, a, b):
        return _pmul(a, b, self.domain.p)

    def dense_divmod(self, a, b):
        return _pdivmod(a, b, self.domain.p)

    def dense_lincomb(self, weights, polys):
        p = self.domain.p
        return _ptrim([sum(map(operator.mul, weights, col)) % p
                       for col in itertools.zip_longest(*polys, fillvalue=0)])


class ZechLogs(Ring):
    """The coefficient kernel over F_{p^m}, m > 1, on Zech-log codes: 0 for
    zero and 1 + k for g^k (`FiniteField.log_tables`).  A product adds logs
    mod q - 1, a sum g^i + g^j = g^i (1 + g^(j-i)) is one lookup in the Zech
    table, and -1 = g^((q-1)/2).  A difference of two codes indexes the
    table directly: Python's negative indices wrap it mod q - 1."""

    def __init__(self, domain, n):
        self.exp, self.log, self.zech = domain.log_tables()
        self.units = domain.order - 1
        super().__init__(domain, n)

    def coeff(self, c):
        return self.log[c.coeffs]

    def element(self, c):
        return self.exp[c]

    def inverse(self, c):
        return (1 - c) % self.units + 1

    def times(self, a, b):
        return (a + b - 2) % self.units + 1 if a and b else 0

    def plus(self, a, b):
        if not (a and b):
            return a or b
        z = self.zech[b - a]
        return (a + z - 2) % self.units + 1 if z else 0

    def root(self, c):
        """(g^k)^(1/p) = g^(k p^(m-1)), as Frobenius has order m."""
        d = self.domain
        return (c - 1) * d.p ** (d.m - 1) % self.units + 1 if c else 0

    def scale(self, poly, c):
        units, c = self.units, c - 2
        return {k: (v + c) % units + 1 for k, v in poly.items()}

    def submul(self, work, poly, shift, c):
        get, units, zech = work.get, self.units, self.zech
        c += units // 2 - 2                   # the code of -c, less 2
        for k, v in poly.items():
            k += shift
            t = (v + c) % units + 1
            r = get(k)
            if r is None:
                work[k] = t
            elif z := zech[t - r]:
                work[k] = (r + z - 2) % units + 1
            else:
                del work[k]

    def mul(self, a, b, bound):
        out, units, zech = {}, self.units, self.zech
        get = out.get
        b = sorted(b.items())
        for k1, c1 in a.items():
            lim, c1 = bound - k1, c1 - 2
            for k2, c2 in b:
                if k2 >= lim:
                    break
                k = k1 + k2
                t = (c1 + c2) % units + 1
                r = get(k)
                if r is None:
                    out[k] = t
                elif z := zech[t - r]:
                    out[k] = (r + z - 2) % units + 1
                else:
                    del out[k]
        return out


@functools.lru_cache(maxsize=None)
def ring(domain, n):
    """The ring of packed polynomials in n variables over `domain`, with the
    kernel of its coefficients (see the module docstring); one per equal
    (domain, n), like `FF`."""
    if getattr(domain, "prime_elements", None) is not None:
        return Residues(domain, n)
    if getattr(domain, "m", 1) > 1 and domain.order <= PRIME_TABLE_MAX:
        return ZechLogs(domain, n)
    return Ring(domain, n)
