"""Powers in any ring with an exact `*`: field elements, polynomials, jets.

`power` is binary exponentiation read from the low bit up (Knuth, TAOCP
vol. 2, section 4.6.3, Algorithm A).  Two savings over the textbook loop
matter for polynomials, where a product costs about the square of the
operand size.  It never squares past the top bit, because that square
would be thrown away: for a polynomial it is the largest product of the
whole run, larger than the result itself.  And it never multiplies by
`one`: the first set bit takes the current square itself.

`cached_power` serves substitution, where one base is raised to every
exponent from 0 up to a degree bound, term after term.  It steps one power
at a time from the highest cached one, so each power costs one product with
the base and is made once; every intermediate power is kept, since later
terms ask for it too.

`substitute` sums terms c * v_1^e_1 * ... * v_n^e_n over one such cache per
variable (Knuth, TAOCP vol. 2, section 4.6.4): polynomial evaluation and
substitution and the Frobenius cover's lifted sums all run it.
"""


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
    """base^k, multiplying the highest power below k in `cache` ({exponent:
    power}) by base once per missing step and caching each step.  Iterative,
    so the cache dies with its owner, not at the next garbage collection."""
    j = k
    while j not in cache:
        j -= 1
    for j in range(j + 1, k + 1):
        cache[j] = cache[j - 1] * base
    return cache[k]


def substitute(terms, values, zero):
    """The sum of c * values[0]^e_0 * ... over `terms` ({exponent tuple:
    coefficient}), `zero` when there are none.

    Each variable keeps one `cached_power` cache, seeded with {1: value},
    so no power is made twice and none is multiplied by one.  A term
    multiplies its powers in variable order and its coefficient last, from
    the right: a polynomial value then scales by a domain element."""
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
