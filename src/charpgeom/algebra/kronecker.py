"""The one re-check of ideal and Frobenius certificates, sum a_i * b_i == 1
and z^e == h, on dicts {exponent n-tuple: coefficient in a field}.

The route is chosen here alone.  Over F_p (the field's `prime` is p, not
None), when the layout below has no more slots than expansion has term
products (sum #a_i * #b_i; #z^2 for z^e), products are Kronecker ints on the
residues c.coeffs[0] (`packed_sum`); otherwise they expand term by term on
the coefficients as given, from the field's `zero` (`expanded_sum`).

Layout: x_j -> X^(w_j), w_1 = 1, w_(j+1) = w_j * D_j with D_j above the
x_j-degree of every product and each residue in a B-byte slot of X = 256^B,
so one big-int product is a polynomial product (Kronecker 1882; Harvey, JSC
2009).  A slot holds at most sum_i min(#a_i, #b_i) * (p-1)^2, as at one
output monomial each term of the shorter factor meets at most one of the
other, and an input slot holds at most p - 1; B is the least width above
both, and a sum that does not fit raises OverflowError, never wraps.  A
power squares and multiplies from the low bit (as `powers.power`) in z^e's
layout, reducing mod p after each product; a term of h outside the layout
gives False.  Nothing here comes from the Groebner engine, the polynomial
classes or the fields.
"""

from math import prod
from operator import add


def slot_bytes(bound):
    """Least slot width B >= 1 in bytes with bound < 256^B."""
    return max(1, (bound.bit_length() + 7) // 8)


def _pack(cells, width):
    """The int whose width-byte slot k holds cells[k]."""
    buf = bytearray((max(cells, default=0) + 1) * width)
    for k, c in cells.items():
        buf[k * width:(k + 1) * width] = c.to_bytes(width, "little")
    return int.from_bytes(buf, "little")


def packed_sum(pairs, p):
    """sum a * b over pairs of {slot: residue} cells, as such cells mod p."""
    bound = max(sum(min(len(a), len(b)) for a, b in pairs) * (p - 1) ** 2,
                p - 1)
    width = slot_bytes(bound)
    if bound >= 256 ** width:
        raise OverflowError(f"slot bound {bound} needs more than {width} bytes")
    total = sum(_pack(a, width) * _pack(b, width) for a, b in pairs)
    raw = total.to_bytes(-(-total.bit_length() // (8 * width)) * width, "little")
    return {i // width: c for i in range(0, len(raw), width)
            if (c := int.from_bytes(raw[i:i + width], "little") % p)}


def expanded_sum(pairs, zero):
    """sum a * b over pairs of {exponent tuple: coefficient}, from `zero`."""
    res = {}
    for a, b in pairs:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                res[e] = res.get(e, zero) + c1 * c2
    return {e: c for e, c in res.items() if c}


def _route(radixes, products, field):
    """(index, mul): over F_p with no more slots than `products`, the map
    to {slot: residue} cells and `packed_sum`; otherwise the identity and
    `expanded_sum`."""
    p = field.prime
    if p is None or prod(radixes) > products:
        return (lambda poly: poly), lambda pairs: expanded_sum(pairs, field.zero)
    strides = [prod(radixes[:j]) for j in range(len(radixes))]
    return (lambda poly: {sum(k * s for k, s in zip(e, strides)): r
                          for e, c in poly.items() if (r := c.coeffs[0])},
            lambda pairs: packed_sum(pairs, p))


def sum_is_one(pairs, n, field):
    """Whether sum a * b over the pairs (a, b) of dicts {exponent n-tuple:
    coefficient in `field`} equals 1."""
    radixes = [1 + max(max((e[j] for e in a), default=0)
                       + max((e[j] for e in b), default=0) for a, b in pairs)
               for j in range(n)]
    index, mul = _route(radixes, sum(len(a) * len(b) for a, b in pairs), field)
    one = {(0,) * n: field.one}
    return mul([(index(a), index(b)) for a, b in pairs]) == index(one)


def power_is(z, e, h, n, field):
    """Whether z^e == h, for e >= 1 and z, h as in `sum_is_one`."""
    radixes = [1 + e * max((k[j] for k in z), default=0) for j in range(n)]
    index, mul = _route(radixes, len(z) ** 2, field)
    base, acc = index(z), None
    while e:
        if e & 1:
            acc = base if acc is None else mul([(acc, base)])
        e >>= 1
        if e:
            base = mul([(base, base)])
    return (all(k < r for key in h for k, r in zip(key, radixes))
            and acc == index(h))
