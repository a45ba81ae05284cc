"""sum a_i * b_i == 1 and z^e == h over F_p, tested by Kronecker substitution.

Each polynomial becomes one int: x_j -> X^(w_j), w_1 = 1, w_(j+1) = w_j * D_j
with the radix D_j above the x_j-degree of every product, and each residue
fills a B-byte slot of X = 256^B.  One big-int product (Karatsuba in CPython)
is then a whole polynomial product (Kronecker 1882; Harvey, JSC 2009).

A slot of sum a_i * b_i holds at most bound = sum_i min(#a_i, #b_i) * (p-1)^2:
for a fixed output monomial, each term of the shorter factor meets at most one
term of the other.  B is the least width with bound < 256^B; a sum that does
not fit raises OverflowError, never wraps.  `power_is` squares and multiplies
in z^e's layout, each slot reduced mod p after each product, so B does not
grow with e.  Both return None when the layout has more slots than expansion
has term products (sum #a_i * #b_i; #z^2 for z * z, which expanding z^e must
form).  Nothing here comes from the Groebner engine or the polynomial classes.
"""

from math import prod


def slot_bytes(bound):
    """Least slot width B >= 1 in bytes with bound < 256^B."""
    return max(1, (bound.bit_length() + 7) // 8)


def _indexer(radixes):
    """Maps {exponent tuple: residue} to {slot: residue} for these radixes."""
    strides = [prod(radixes[:j]) for j in range(len(radixes))]
    return lambda poly: {sum(k * s for k, s in zip(e, strides)): c
                         for e, c in poly.items() if c}


def _pack(cells, width):
    """The int whose width-byte slot k holds cells[k]."""
    buf = bytearray((max(cells, default=0) + 1) * width)
    for k, c in cells.items():
        buf[k * width:(k + 1) * width] = c.to_bytes(width, "little")
    return int.from_bytes(buf, "little")


def _sum_of_products(pairs, p):
    """sum a * b over pairs of {slot: residue} cells, as such cells mod p."""
    bound = sum(min(len(a), len(b)) for a, b in pairs) * (p - 1) ** 2
    width = slot_bytes(bound)
    if bound >= 256 ** width:
        raise OverflowError(f"slot bound {bound} needs more than {width} bytes")
    total = sum(_pack(a, width) * _pack(b, width) for a, b in pairs)
    raw = total.to_bytes(-(-total.bit_length() // (8 * width)) * width, "little")
    return {i // width: c for i in range(0, len(raw), width)
            if (c := int.from_bytes(raw[i:i + width], "little") % p)}


def sum_is_one(pairs, n, p):
    """Whether sum a * b over the pairs (a, b) equals 1 over F_p.

    a and b are dicts {exponent n-tuple: residue in 0..p-1}."""
    radixes = [1 + max(max((e[j] for e in a), default=0)
                       + max((e[j] for e in b), default=0) for a, b in pairs)
               for j in range(n)]
    if prod(radixes) > sum(len(a) * len(b) for a, b in pairs):
        return None
    index = _indexer(radixes)
    return _sum_of_products([(index(a), index(b)) for a, b in pairs], p) == {0: 1}


def power_is(z, e, h, n, p):
    """Whether z^e == h over F_p, for e >= 1 and z, h as in `sum_is_one`; a
    term of h outside z^e's layout gives False."""
    radixes = [1 + e * max((k[j] for k in z), default=0) for j in range(n)]
    if prod(radixes) > len(z) ** 2:
        return None
    index = _indexer(radixes)
    base = acc = index(z)
    for bit in bin(e)[3:]:
        acc = _sum_of_products([(acc, acc)], p)
        if bit == "1":
            acc = _sum_of_products([(acc, base)], p)
    return (not any(k[j] >= r for k in h for j, r in enumerate(radixes))
            and acc == index(h))
