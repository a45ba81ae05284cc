"""normalform-grid: seeded normal forms at nondegenerate critical points.

One unit is one `normalform.normal_form(f, r)` call.  Each f has a
quadratic part Q = U^T D U (U unit upper triangular, D diagonal) plus a
fixed number of higher-order terms of each degree.  Congruence diagonalization without
pivoting recovers exactly D, so the square classes of D's entries decide
whether the unit needs F_{p^2}: nine units in ten get at least one
non-square and run `jets` (Jet products, jet_compose) on extension-field
elements; the rest stay in the prime field's int path.  Without this
workload `jets` and m > 1 `finitefield` would go unmeasured.
"""

from random import Random

import perunit

NAME = "normalform-grid"
# (p, n, r, number of higher-order terms)
CONFIGS = ((3, 2, 8, 10), (5, 2, 8, 10), (7, 2, 8, 10),
           (3, 3, 7, 10), (5, 3, 7, 10), (7, 3, 7, 10))
PER_CONFIG = 20          # unit k of a config stays in F_p when k % 10 == 0
UNITS_PER_ROUND = PER_CONFIG * len(CONFIGS)


def _squares(p):
    return sorted({x * x % p for x in range(1, p)})


def build(seed):
    from charpgeom.algebra.finitefield import FF
    from charpgeom.algebra.multipoly import MultiPoly

    rng = Random(f"{NAME}:{seed}")
    units = []
    for k in range(PER_CONFIG):
        for p, n, r, extra in CONFIGS:
            sq = _squares(p)
            nonsq = [x for x in range(1, p) if x not in sq]
            # D: all squares when k % 10 == 0, else at least one non-square
            in_prime_field = k % 10 == 0
            diag = [rng.choice(sq) for _ in range(n)]
            if not in_prime_field:
                diag[rng.randrange(n)] = rng.choice(nonsq)
            u = [[1 if i == j else (rng.randrange(1, p) if j > i else 0)
                  for j in range(n)] for i in range(n)]
            q = [[sum(u[a][i] * diag[a] * u[a][j] for a in range(n)) % p
                  for j in range(n)] for i in range(n)]
            terms = {}
            for i in range(n):
                for j in range(i, n):
                    e = [0] * n
                    e[i] += 1
                    e[j] += 1
                    c = q[i][j] if i == j else 2 * q[i][j] % p
                    if c:
                        terms[tuple(e)] = c
            # the same number of terms of each degree 3..r-1 in every unit:
            # the lowest degrees present decide how many correction steps
            # run, so a free draw makes the cost swing from unit to unit
            for i in range(extra):
                d = 3 + i % (r - 3)
                while True:
                    e = _random_exponent(rng, n, d)
                    if e not in terms:
                        break
                terms[e] = rng.randrange(1, p)
            terms[(0,) * n] = rng.randrange(p)
            fld = FF(p)
            f = MultiPoly(fld, n, {e: fld.elem(c) for e, c in terms.items()})
            units.append({"p": p, "n": n, "r": r, "q": q, "ints": terms,
                          "ext": 1 if in_prime_field else 2, "f": f})
    return units


def _random_exponent(rng, n, d):
    """Uniform exponent tuple of n entries summing to d (stars and bars)."""
    bars = sorted(rng.sample(range(d + n - 1), n - 1))
    cuts = [-1] + bars + [d + n - 1]
    return tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))


def _unit(item):
    from charpgeom import normalform
    return normalform.normal_form(item["f"], item["r"])


def _summary(res):
    return (res.extension_degree, [repr(j) for j in res.change.total])


# -- independent arithmetic ------------------------------------------------------
#
# F_p (m = 1) through sympy's GF(p) domain; F_{p^2} as pairs (c0, c1) meaning
# c0 + c1*a with a^2 = -(m1*a + m0) for the field's modulus x^2 + m1*x + m0.

class _PrimeRing:
    def __init__(self, p):
        from sympy.polys.domains import GF
        self.dom = GF(p)
        self.zero, self.one = self.dom(0), self.dom(1)

    def lift(self, c):
        return self.dom(c)

    def of(self, elem):
        return self.dom(elem.coeffs[0])

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return not a


class _PairRing:
    def __init__(self, p, modulus):
        m0, m1, lead = modulus
        if lead != 1 or any((x * x + m1 * x + m0) % p == 0 for x in range(p)):
            raise ValueError("modulus is not a monic irreducible quadratic")
        self.p, self.m0, self.m1 = p, m0, m1
        self.zero, self.one = (0, 0), (1, 0)

    def lift(self, c):
        return (c % self.p, 0)

    def of(self, elem):
        return tuple(elem.coeffs)

    def add(self, a, b):
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def mul(self, a, b):
        p = self.p
        hi = a[1] * b[1]
        return ((a[0] * b[0] - hi * self.m0) % p,
                (a[0] * b[1] + a[1] * b[0] - hi * self.m1) % p)

    def is_zero(self, a):
        return a == (0, 0)


def _jet_mul(ring, a, b, r):
    out = {}
    for e1, c1 in a.items():
        d1 = sum(e1)
        for e2, c2 in b.items():
            if d1 + sum(e2) >= r:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = ring.add(out.get(e, ring.zero), ring.mul(c1, c2))
    return {e: c for e, c in out.items() if not ring.is_zero(c)}


def _jet_add(ring, a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = ring.add(out.get(e, ring.zero), c)
    return {e: c for e, c in out.items() if not ring.is_zero(c)}


def _check(item, res):
    """C^T (H/2) C = I for the linear part, and f(total) - f(0) = sum x_i^2
    mod m^r by recomposition in the benchmark's own truncated arithmetic."""
    p, n, r = item["p"], item["n"], item["r"]
    if res.extension_degree != item["ext"]:
        return (f"extension degree {res.extension_degree}, but D's square "
                f"classes need {item['ext']}")
    if res.extension_degree == 1:
        if res.fld.order != p:
            return "extension degree 1 but the field is not F_p"
        ring = _PrimeRing(p)
    else:
        if res.fld.p != p or res.fld.m != 2:
            return "extension degree 2 but the field is not F_{p^2}"
        ring = _PairRing(p, res.fld.modulus)
    q = [[ring.lift(c) for c in row] for row in item["q"]]
    c = [[ring.of(x) for x in row] for row in res.change.linear_part()]
    for i in range(n):
        for j in range(n):
            acc = ring.zero
            for a in range(n):
                for b in range(n):
                    acc = ring.add(acc, ring.mul(ring.mul(c[a][i], q[a][b]),
                                                 c[b][j]))
            want = ring.one if i == j else ring.zero
            if acc != want:
                return f"(C^T (H/2) C)[{i}][{j}] != {want}"
    total = [{e: ring.of(x) for e, x in jet.to_poly().terms.items()}
             for jet in res.change.total]
    if any(sum(e) == 0 for t in total for e in t):
        return "coordinate change has a constant term"
    one = {(0,) * n: ring.one}
    powers = [[one] for _ in range(n)]
    acc = {}
    for e, coeff in item["ints"].items():
        if sum(e) == 0 or sum(e) >= r:
            continue
        term = {(0,) * n: ring.lift(coeff)}
        for i, k in enumerate(e):
            while len(powers[i]) <= k:
                powers[i].append(_jet_mul(ring, powers[i][-1], total[i], r))
            term = _jet_mul(ring, term, powers[i][k], r)
        acc = _jet_add(ring, acc, term)
    target = {tuple(2 if k == i else 0 for k in range(n)): ring.one
              for i in range(n)}
    if acc != target:
        return "f(total) - f(0) is not sum x_i^2 mod m^r"
    return None


run_round, summary, check = perunit.protocol(_unit, _summary, _check)
