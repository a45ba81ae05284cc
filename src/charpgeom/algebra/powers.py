"""Powers in any ring with an exact `*`: field elements, polynomials, jets.

`power` is binary exponentiation read from the low bit up (Knuth, TAOCP
vol. 2, section 4.6.3, Algorithm A).  Two savings over the textbook loop
matter for polynomials, where a product costs about the square of the
operand size.  It never squares past the top bit, because that square
would be thrown away: for a polynomial it is the largest product of the
whole run, larger than the result itself.  And it never multiplies by
`one`: the first set bit takes the current square itself.

`cached_power` serves substitution, where one base is raised to exponent
after exponent, term after term.  It steps one power at a time from the
highest cached one, keeping each, since dense terms ask for them all; across
a wide gap (x^81 in a sparse polynomial) it squares instead.  Each power it
makes costs one product and is made once.

`substitute` sums terms c * v_1^e_1 * ... * v_n^e_n by nested Horner over
one such cache per variable (Knuth, TAOCP vol. 2, section 4.6.4): polynomial
evaluation and substitution and the Frobenius cover's lifted sums run it.
"""

import itertools


def power(base, e, one):
    """base^e for an int e >= 0, `one` when e = 0.

    Raises ValueError on a negative exponent: a ring without inverses has
    no answer, and callers that can invert (field elements, fractions) do
    so before they call."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    result = None
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return one if result is None else result


def cached_power(cache, base, k):
    """base^k from `cache` ({exponent: power}; base^1 = base is added),
    caching each power made.  From the highest cached power below k it steps
    by base, unless the missing squares below the gap plus one product per
    set bit of it cost less: then it spans the gap by squares.  Iterative,
    so the cache dies with its owner, not at the next garbage collection.
    Raises ValueError for an uncached k below 1: no power lies under it."""
    if k in cache:
        return cache[k]
    if k < 1:
        raise ValueError(f"no cached power at or below exponent {k}")
    cache.setdefault(1, base)
    j = k
    while j not in cache:
        j -= 1
    squares = [1 << i for i in range(1, (k - j).bit_length())]
    wide = sum(sq not in cache for sq in squares) + bin(k - j).count("1") < k - j
    if wide:
        for sq in squares:
            if sq not in cache:
                cache[sq] = cache[sq >> 1] * cache[sq >> 1]
        j = max(j, squares[-1])
    while j < k:
        step = 1 << ((k - j).bit_length() - 1) if wide else 1
        cache[j + step] = cache[j] * cache[step]
        j += step
    return cache[k]


def substitute(terms, values, zero):
    """The sum of c * values[0]^e_0 * ... over `terms` ({exponent tuple:
    coefficient}), of `zero`'s type; `zero` when there are none.

    Terms equal before variable i, with exponents k_1 > ... > k_m of v_i,
    sum as (...(S_1 * v_i^(k_1 - k_2) + S_2) * ... + S_m) * v_i^k_m, S_j
    their sum in the later variables, coefficients added innermost: one
    product per gap, a `cached_power` from the left (a value times a
    coefficient), so each power is made once."""
    caches = [{1: v} for v in values]
    def horner(items, i):
        if i == len(caches):
            return items[0][1]
        acc = prev = None
        for k, group in itertools.groupby(items, lambda item: item[0][i]):
            inner = horner(list(group), i + 1)
            acc = inner if acc is None else cached_power(caches[i], caches[i][1], prev - k) * acc + inner
            prev = k
        return cached_power(caches[i], caches[i][1], prev) * acc if prev else acc

    items = sorted(terms.items(), reverse=True)
    if not items or not any(items[0][0]):   # no product gives zero's type
        return zero + items[0][1] if items else zero
    return horner(items, 0)
