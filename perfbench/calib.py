"""Frozen calibration kernel.

Host speed on a shared machine drifts by 15-20% between back-to-back
processes, and CPU time drifts with it.  Every end-to-end time the benchmark
reports is therefore scaled by NOMINAL_S / (kernel time measured in the same
process, around the timed work).  The kernel imports nothing from charpgeom
so that a change to the program can never change it; it mimics the
program's inner loops instead: a sparse dict product with tuple keys over
small __slots__ element objects (MultiPoly over FFElement) and a dense list
product mod p (UPoly, FiniteField._mul).

Do not edit this file: NOMINAL_S was measured with exactly this code, and a
change to either makes every calibrated figure incomparable with earlier
ones.  The kernel is short (~30 ms) so that it can run often: host speed
moves on a scale of seconds, and a dense series of short samples follows it
better than a few long ones.
"""

import random
import time

# Median kernel time on the reference host (Python 3.11.7, 2 cores).
NOMINAL_S = 0.0330

_P = 7


class _Elem:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Elem((self.v + other.v) % _P)

    def __mul__(self, other):
        return _Elem(self.v * other.v % _P)

    def __eq__(self, other):
        return self.v == other.v

    def __hash__(self):
        return self.v


def _sparse_operand(rng, nterms):
    terms = {}
    while len(terms) < nterms:
        e = tuple(rng.randrange(0, 5) for _ in range(3))
        terms[e] = _Elem(rng.randrange(1, _P))
    return terms


_RNG = random.Random(20261018)
_SPARSE_A = _sparse_operand(_RNG, 60)
_SPARSE_B = _sparse_operand(_RNG, 60)
_DENSE_A = [_RNG.randrange(_P) for _ in range(160)]
_DENSE_B = [_RNG.randrange(_P) for _ in range(160)]
_ZERO = _Elem(0)


def _sparse_product(a, b):
    res = {}
    get = res.get
    zero = _ZERO
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = get(e, zero) + c1 * c2
            if s != zero:
                res[e] = s
            elif e in res:
                del res[e]
    return res


def _dense_product(a, b):
    res = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                res[i + j] = (res[i + j] + ca * cb) % _P
    return res


def kernel():
    """One fixed batch of kernel work; returns its checksum."""
    acc = 0
    for _ in range(3):
        acc += len(_sparse_product(_SPARSE_A, _SPARSE_B))
    acc += sum(_dense_product(_DENSE_A, _DENSE_B))
    return acc


def host_factor(samples):
    """NOMINAL_S over the typical kernel time of `samples`: the factor that
    turns wall time measured among these samples into calibrated time.

    The mean follows the host's average speed over the samples' span; the
    fastest and the slowest sample are dropped first, so one descheduled
    kernel call does not move it."""
    s = sorted(samples)
    if len(s) >= 5:
        s = s[1:-1]
    return NOMINAL_S / (sum(s) / len(s))


def time_kernel():
    """Wall time of one kernel() call, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


if __name__ == "__main__":
    samples = sorted(time_kernel() for _ in range(25))
    print(f"kernel median {samples[len(samples) // 2] * 1000:.2f} ms "
          f"(min {samples[0] * 1000:.2f}, max {samples[-1] * 1000:.2f}); "
          f"nominal {NOMINAL_S * 1000:.2f} ms")
