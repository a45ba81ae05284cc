"""Frozen reference: the schoolbook dense routines over F_p on int lists.

These are `finitefield._pmul`, `_padd` and `_psub` as they were before the
product became one Kronecker big-int product and sums went through byte
tables: a double loop accumulating unreduced and reducing once per output
coefficient, and coefficientwise sums.  The differential tests compare the
current routines with them on seeded inputs.  Do not edit: its value is
that it does not change.
"""

import itertools


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b, p):
    """a + b mod p."""
    return _ptrim([(x + y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def psub(a, b, p):
    """a - b mod p."""
    return _ptrim([(x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def pmul(a, b, p):
    """a * b mod p."""
    if not a or not b:
        return []
    res = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                res[j] += ca * cb
    return [c % p for c in res]
