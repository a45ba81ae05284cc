"""Frozen reference: term-by-term substitution over power caches.

This is `powers.substitute` as it was before nested Horner: each term
multiplies the cached powers of its variables in variable order and its
coefficient last, from the right, and the terms are added to `zero` one by
one.  `lift_point` summed its RatFunc terms this way.  The differential
tests compare the current routine with it on seeded inputs.  Do not edit:
its value is that it does not change.
"""

from charpgeom.algebra.unipoly import RatFunc, UPoly


def cached_power(cache, base, k):
    """base^k, stepping from the highest cached power below k."""
    j = k
    while j not in cache:
        j -= 1
    for j in range(j + 1, k + 1):
        cache[j] = cache[j - 1] * base
    return cache[k]


def substitute(terms, values, zero):
    """The sum of c * values[0]^e_0 * ... over `terms`, `zero` when there
    are none."""
    caches = [{1: v} for v in values]
    acc = zero
    for exps, c in terms.items():
        term = None
        for cache, e in zip(caches, exps):
            if e:
                pw = cached_power(cache, cache[1], e)
                term = pw if term is None else term * pw
        acc = acc + (c if term is None else term * c)
    return acc


def lift(fact, us):
    """(z, x, h(x)) of `covers.lift_point` as it was, x_j = u_j^p: both
    sums on RatFuncs, h's coefficients inflated t -> s^p on every call."""
    zero = RatFunc(UPoly(fact.sdomain.base))
    xs = [u ** fact.p for u in us]
    z = substitute(fact.b, us, zero)
    value = substitute({e: c.inflate(fact.p) for e, c in fact.h.terms.items()},
                       xs, zero)
    return z, xs, value
