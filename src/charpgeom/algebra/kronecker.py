"""Exact test of sum a_i * b_i == 1 over F_p by Kronecker substitution.

Each polynomial becomes one int: x_j -> X^(w_j), w_1 = 1, w_(j+1) = w_j * D_j
with the radix D_j above the x_j-degree of every product, and each residue
fills a B-byte slot of X = 256^B.  One big-int product (Karatsuba in CPython)
is then a whole polynomial product (Kronecker 1882; Harvey, JSC 2009).

A slot of the sum holds at most bound = sum_i min(#a_i, #b_i) * (p-1)^2: for
a fixed output monomial, each term of the shorter factor meets at most one
term of the other.  B is the least width with bound < 256^B; a sum that does
not fit raises OverflowError, never wraps.  Nothing here comes from the
Groebner engine or the polynomial classes.
"""

from math import prod


def slot_bytes(bound):
    """Least slot width B in bytes with bound < 256^B."""
    return (bound.bit_length() + 7) // 8


def sum_is_one(pairs, n, p):
    """Whether sum a * b over the pairs (a, b) equals 1 over F_p.

    a and b are dicts {exponent n-tuple: residue in 0..p-1}.  Returns None
    when the substitution has more slots than the expansion has term
    products: sparse sums are cheaper to expand term by term."""
    radixes = [1 + max(max((e[j] for e in a), default=0)
                       + max((e[j] for e in b), default=0) for a, b in pairs)
               for j in range(n)]
    slots = prod(radixes)
    if slots > sum(len(a) * len(b) for a, b in pairs):
        return None
    bound = sum(min(len(a), len(b)) for a, b in pairs) * (p - 1) ** 2
    width = slot_bytes(bound)
    if bound >= 256 ** width:
        raise OverflowError(f"slot bound {bound} needs more than {width} bytes")
    weights = [width * prod(radixes[:j]) for j in range(n)]

    def pack(poly):
        buf = bytearray(slots * width)
        for e, c in poly.items():
            at = sum(k * w for k, w in zip(e, weights))
            buf[at:at + width] = c.to_bytes(width, "little")
        return int.from_bytes(buf, "little")

    total = sum(pack(a) * pack(b) for a, b in pairs)
    raw = total.to_bytes(slots * width, "little")
    return (int.from_bytes(raw[:width], "little") % p == 1
            and not any(int.from_bytes(raw[i:i + width], "little") % p
                        for i in range(width, len(raw), width)))
