"""Frozen reference: the Buchberger engine with eager representation lists.

This is the engine that carried a representation of every basis element in
terms of the generators, updated at every S-polynomial and every reduction
step.  The packed engine in `charpgeom.algebra.groebner` replaced it; the
differential tests compare the two on seeded ideals.  Do not edit: its
value is that it does not change.
"""

import heapq
import itertools

from charpgeom.algebra.groebner import (
    IdealCertificate, MembershipResult, grevlex_key, leading_term,
)
from charpgeom.algebra.multipoly import MultiPoly


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _quotient_monomial(a, b):
    return tuple(x - y for x, y in zip(a, b))


def reduce_poly(f, basis, lead_cache=None):
    """Full reduction of f by the basis.

    Returns (quotients, remainder) with f = sum q_i * basis_i + remainder and
    no remainder term divisible by any basis leading monomial.
    """
    domain, n = f.domain, f.n
    if lead_cache is None:
        lead_cache = [leading_term(b) for b in basis]
    quotients = [MultiPoly(domain, n) for _ in basis]
    rem = MultiPoly(domain, n)
    work = f
    while not work.is_zero():
        lm, lc = leading_term(work)
        for i, (blm, blc) in enumerate(lead_cache):
            if _divides(blm, lm):
                q = MultiPoly.monomial(domain, n, _quotient_monomial(lm, blm),
                                       lc / blc)
                quotients[i] = quotients[i] + q
                work = work - q * basis[i]
                break
        else:
            t = MultiPoly.monomial(domain, n, lm, lc)
            rem = rem + t
            work = work - t
    return quotients, rem


def buchberger(generators, max_pairs=50000, stop_at_unit=False):
    """Buchberger with representation tracking.

    Returns (status, entries, pairs) where entries is a list of
    (poly, representation list) and status is "done", "unit" (only when
    stop_at_unit and a constant appeared), or "exhausted".
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return "done", [], 0
    domain, n = gens[0].domain, gens[0].n
    entries = []   # (poly monic, rep list)
    for idx, g in enumerate(gens):
        _, lc = leading_term(g)
        inv = lc.inverse()
        rep = [MultiPoly(domain, n) for _ in gens]
        rep[idx] = MultiPoly.const(domain, n, inv)
        entries.append((g * inv, rep))
        if g.is_constant():
            if stop_at_unit:
                return "unit", entries, 0
    lead = [leading_term(e[0]) for e in entries]

    counter = itertools.count()
    heap = []
    def push_pairs(k):
        for i in range(k):
            lmi, lmk = lead[i][0], lead[k][0]
            lcm = tuple(max(a, b) for a, b in zip(lmi, lmk))
            # product criterion: coprime leading monomials reduce to zero
            if lcm == tuple(a + b for a, b in zip(lmi, lmk)):
                continue
            heapq.heappush(heap, (grevlex_key(lcm), next(counter), i, k))
    for k in range(len(entries)):
        push_pairs(k)

    pairs = 0
    while heap:
        if pairs >= max_pairs:
            return "exhausted", entries, pairs
        _, _, i, j = heapq.heappop(heap)
        pairs += 1
        fi, repi = entries[i]
        fj, repj = entries[j]
        lmi, _ = lead[i]
        lmj, _ = lead[j]
        lcm = tuple(max(a, b) for a, b in zip(lmi, lmj))
        mi = MultiPoly.monomial(domain, n, _quotient_monomial(lcm, lmi), 1)
        mj = MultiPoly.monomial(domain, n, _quotient_monomial(lcm, lmj), 1)
        s = mi * fi - mj * fj
        rep = [mi * a - mj * b for a, b in zip(repi, repj)]
        quotients, rem = reduce_poly(s, [e[0] for e in entries], lead)
        if rem.is_zero():
            continue
        for q, (_, brep) in zip(quotients, entries):
            if not q.is_zero():
                rep = [a - q * b for a, b in zip(rep, brep)]
        _, lc = leading_term(rem)
        inv = lc.inverse()
        rem = rem * inv
        rep = [a * inv for a in rep]
        entries.append((rem, rep))
        lead.append(leading_term(rem))
        if stop_at_unit and rem.is_constant():
            return "unit", entries, pairs
        push_pairs(len(entries) - 1)
    return "done", entries, pairs


def groebner_membership_one(generators, max_pairs=50000):
    """Decide whether 1 lies in the ideal of the generators.

    On success the certificate's cofactors re-verify by expansion.  A
    completed basis with no constant element proves 1 is not in the ideal;
    budget exhaustion is reported as its own status.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return MembershipResult(status="not_in_ideal", basis=[])
    status, entries, pairs = buchberger(gens, max_pairs=max_pairs, stop_at_unit=True)
    basis = [e[0] for e in entries]
    if status == "unit" or any(b.is_constant() and not b.is_zero() for b in basis):
        for poly, rep in entries:
            if poly.is_constant() and not poly.is_zero():
                c = poly.constant_term()
                inv = c.inverse()
                cert = IdealCertificate(generators=gens,
                                        cofactors=[r * inv for r in rep])
                if not cert.verify():
                    raise AssertionError("certificate failed re-verification")
                return MembershipResult(status="certificate", certificate=cert,
                                        basis=basis, pairs_processed=pairs)
    if status == "exhausted":
        return MembershipResult(status="exhausted", basis=basis,
                                pairs_processed=pairs)
    return MembershipResult(status="not_in_ideal", basis=basis,
                            pairs_processed=pairs)
