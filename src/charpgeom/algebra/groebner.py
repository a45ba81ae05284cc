"""Buchberger engine specialized for unit-ideal certificates.

Monomial order: graded reverse lexicographic.  The engine computes on the
packed terms of its MultiPolys (`monomials.py`): plain dicts {key: code},
whose integer key order is grevlex order, with the ring kernel's codes as
coefficients.  It takes them as they are and returns MultiPolys made from
its own dicts, with no conversion either way.  A degree above MAX_DEGREE
raises ValueError, never wraps.

Instead of carrying representations in terms of the generators, the engine
records a reduction trace: for each new basis element its normalising
inverse and one flat list of submuls, (x, shift, c) for
acc -= c * x^shift * basis_x: the S-polynomial's two multipliers, then the
quotient terms in reduction order.  A unit certificate replays the trace for
the ancestry of the unit only; its cofactors c_i with sum c_i * g_i = 1
re-verify in `kronecker.py`, with no trust in the engine itself.

A degree-only pass over the ancestry bounds the top degree of every
cofactor before any product (a parent's bound plus the degree of its
shift); a bound above MAX_DEGREE raises.  Over F_p with p <= 13 the replay
then runs on byte slots, as SIMD within a register (Fisher & Dietz, LCPC
1998): each cofactor is one int with x^e at byte sum_j e_j D^j, where D - 1
is that bound, and a submul is acc += (rep << 8 * offset(shift)) *
(-c mod p).  A slot below p takes floor((255 - (p-1)) / (p-1)^2) submuls
before it could pass 255; then every slot is reduced by one
`bytes.translate`, and the step ends with one more that reduces and scales
by its inverse (a table per inverse).  F_{p^m} (Zech codes do not add as
ints), k(t), p > 13 and more than SLOT_CAP slots replay on packed dicts
instead.

Pairs are pruned by Buchberger's product and chain criteria, the latter as
the Gebauer-Moller update when an element joins the basis (Buchberger,
EUROSAM 1979; Gebauer & Moller, JSC 1988); no basis element is dropped.
Buchberger terminates in theory; in practice a budget of processed pairs
guards against runaway intermediate growth, and reaching it with a pair
still pending is reported as a distinct "exhausted" outcome, never conflated
with a completed basis that genuinely lacks a unit (which proves 1 is not in
the ideal).
"""

import functools
import heapq
import itertools
from collections import namedtuple
from dataclasses import dataclass, field

from . import kronecker, monomials
from .monomials import _check_degree
from .multipoly import MultiPoly

# Most slots (bytes) of one cofactor on the byte-slot replay.  Measured on
# dense random ideals over F_3 and F_7 (2-core x86, Python 3.11): in three
# variables, whose terms fill about a sixth of the D^3 slots, the two
# replays break even near 8,000 slots and the dict one is 3x faster at
# 100,000; in two variables the slots are still 10x faster at 30,000.
SLOT_CAP = 1 << 13


def grevlex_key(exps):
    """Sort key: k(a) > k(b) iff a > b in graded reverse lex."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def leading_term(poly):
    """(exponents, coefficient) of the grevlex-leading term: the largest
    key."""
    if poly.is_zero():
        raise ValueError("zero polynomial has no leading term")
    lm = max(poly.packed)
    return poly.ring.exponents(lm), poly.ring.element(poly.packed[lm])


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


# How a basis element came about: `gen` is the generator index of an input
# element inv * g, with no submuls, and None for
# inv * -(sum c * x^shift * basis_x over the submuls (x, shift, c)).
_Step = namedtuple("_Step", "inv gen submuls", defaults=((),))


class _Basis:
    """Monic packed polynomials, with the leading keys and exponent fields
    the division loop reads, and the trace step of each."""

    def __init__(self, ring, ngens=0):
        self.ring, self.ngens = ring, ngens
        self.polys, self.leads, self.lows, self.steps = [], [], [], []

    def append(self, poly, step=None):
        lm = max(poly)
        self.polys.append(poly)
        self.leads.append(lm)
        self.lows.append(lm & self.ring.low_mask)
        self.steps.append(step)

    def reduce(self, f):
        """(submuls, remainder): f = sum c * x^shift * basis_i over the
        submuls (i, shift, c), in reduction order, plus the remainder.  The
        leading monomial falls strictly, so no (i, shift) occurs twice."""
        low_mask, guard = self.ring.low_mask, self.ring.guard
        submul = self.ring.submul
        work, rem, submuls = dict(f), {}, []
        while work:
            lm = max(work)
            g = (lm & low_mask) | guard
            for i, low in enumerate(self.lows):
                if (g - low) & guard == guard:       # lead i divides lm
                    c, shift = work[lm], lm - self.leads[i]
                    submuls.append((i, shift, c))
                    submul(work, self.polys[i], shift, c)
                    break
            else:
                rem[lm] = work.pop(lm)
        return submuls, rem

    def representation(self, k):
        """Cofactors, one MultiPoly per generator, with element k equal to
        sum c_i g_i.  Replays the ancestry of k only, after one degree pass
        that bounds every cofactor in it by D - 1 (see the module
        docstring): on byte slots when the ring is `Residues`, a slot takes
        `_slot_cadence(p)` >= 1 submuls and D^n <= SLOT_CAP; else on
        packed dicts."""
        ring, todo, stack = self.ring, set(), [k]
        while stack:
            x = stack.pop()
            if x not in todo:
                todo.add(x)
                stack += [y for y, _, _ in self.steps[x].submuls]
        todo = sorted(todo)                # parents before children
        top = {}
        for x in todo:                     # top[k] is above every other
            top[x] = max((top[y] + (shift >> ring.top)
                          for y, shift, _ in self.steps[x].submuls), default=0)
        _check_degree(top[k])
        if isinstance(ring, monomials.Residues) and \
                _slot_cadence(ring.domain.p) >= 1 and \
                (top[k] + 1) ** ring.n <= SLOT_CAP:
            return self._replay_slots(todo, top[k] + 1)
        reps = {}                          # x: {generator index: cofactor}
        for x in todo:
            st, acc = self.steps[x], {}
            if st.gen is not None:
                reps[x] = {st.gen: {0: st.inv}}
                continue
            for y, shift, c in st.submuls:
                for g, poly in reps[y].items():
                    ring.submul(acc.setdefault(g, {}), poly, shift, c)
            reps[x] = {g: ring.scale(poly, st.inv) for g, poly in acc.items() if poly}
        return [MultiPoly.from_packed(ring, reps[k].get(g, {}))
                for g in range(self.ngens)]

    def _replay_slots(self, todo, radix):
        """representation(todo[-1]) with each cofactor one int of D^n
        1-byte slots, x^e at byte sum_j e_j D^j (D = radix)."""
        ring, n, p = self.ring, self.ring.n, self.ring.domain.p
        size, weights = radix ** n, [8 * radix ** j for j in range(n)]
        tables, cadence = _slot_tables(p), _slot_cadence(p)

        def translate(v, table):
            return int.from_bytes(v.to_bytes(size, "little").translate(table),
                                  "little")
        reps, offsets = {}, {}
        for x in todo:
            st = self.steps[x]
            if st.gen is not None:
                reps[x] = {st.gen: st.inv}
                continue
            acc, left = {}, cadence
            for y, shift, c in st.submuls:
                bits = offsets.get(shift)
                if bits is None:
                    bits = offsets[shift] = sum(
                        e * w for e, w in zip(ring.exponents(shift), weights))
                c = -c % p
                for g, v in reps[y].items():
                    acc[g] = acc.get(g, 0) + (v << bits) * c
                left -= 1
                if not left:               # before a slot can pass 255
                    acc = {g: translate(v, tables[1]) for g, v in acc.items()}
                    left = cadence
            table = tables[st.inv]         # reduce and scale by the inverse
            reps[x] = {g: v for g, v in ((g, translate(v, table))
                                         for g, v in acc.items()) if v}
        out, rep = [], reps[todo[-1]]
        for g in range(self.ngens):
            packed = {}
            for at, c in enumerate(rep.get(g, 0).to_bytes(size, "little")):
                if c:                      # a residue: the code itself
                    low = 0
                    for s in ring.shifts:
                        at, e = divmod(at, radix)
                        low |= e << s
                    packed[ring.key(low)] = c
            out.append(MultiPoly.from_packed(ring, packed))
        return out


def _slot_cadence(p):
    """Submuls a byte slot takes before its reduction: each adds at most
    (p-1)^2 to a slot that starts below p."""
    return (255 - (p - 1)) // (p - 1) ** 2


@functools.lru_cache(maxsize=None)
def _slot_tables(p):
    """tables[c] maps a byte b to c * b mod p, for c in 0..p-1."""
    return [bytes(c * b % p for b in range(256)) for c in range(p)]


def reduce_poly(f, basis):
    """Full reduction of f by the basis.

    Returns (quotients, remainder) with f = sum q_i * basis_i + remainder and
    no remainder term divisible by any basis leading monomial; each leading
    term goes to the first basis element whose leading monomial divides it.
    On MultiPolys the quotients are a list, one per basis element, and a
    zero basis element gets a zero quotient and divides nothing.  Inside
    the engine f is packed, basis is a `_Basis`, and the quotients are its
    flat trace: the submuls (basis index, shift, c) in reduction order.
    """
    if isinstance(basis, _Basis):
        return basis.reduce(f)
    ring = f.ring
    monic, rows = _Basis(ring), []             # rows: (position i, inv_i)
    for i, b in enumerate(basis):
        b = b.packed_in(ring)
        if b:                  # a zero element divides nothing: q_i = 0
            rows.append((i, ring.inverse(b[max(b)])))
            monic.append(ring.scale(b, rows[-1][1]))
    submuls, rem = monic.reduce(f.packed)
    quotients = [{} for _ in basis]    # f = sum c x^shift (inv_i b_i) + rem
    for r, shift, c in submuls:
        i, inv = rows[r]
        quotients[i][shift] = ring.times(c, inv)
    return ([MultiPoly.from_packed(ring, q) for q in quotients],
            MultiPoly.from_packed(ring, rem))


@dataclass
class IdealCertificate:
    """Cofactors witnessing 1 = sum cofactor_i * generator_i."""

    generators: list
    cofactors: list

    def verify(self):
        """Re-verify sum c_i g_i = 1 exactly, sharing no code with the engine,
        by one `kronecker.sum_is_one` call on the terms.  Unequal counts:
        False; a polynomial of another ring raises ValueError."""
        if not self.generators or len(self.cofactors) != len(self.generators):
            return False
        first = self.generators[0]
        if len({(f.domain, f.n) for f in [*self.cofactors, *self.generators]}) > 1:
            raise ValueError("cofactors and generators in different rings")
        return kronecker.sum_is_one(
            [(c.terms, g.terms) for c, g in zip(self.cofactors, self.generators)],
            first.n, first.domain)


@dataclass
class MembershipResult:
    """Outcome of a membership-of-1 run.

    status is one of:
      "certificate"  -- 1 is in the ideal; `certificate` re-verifies;
      "not_in_ideal" -- the basis completed with no unit, proving 1 is not
                        in the ideal;
      "exhausted"    -- the pair budget ran out before completion; nothing
                        is decided.
    """

    status: str
    certificate: IdealCertificate = None
    basis: list = field(default_factory=list)
    pairs_processed: int = 0


def buchberger(generators, max_pairs=50000, stop_at_unit=False):
    """Buchberger on packed polynomials, recording a reduction trace.

    Returns (status, basis, pairs, trace): status is "done", "unit" (only
    when stop_at_unit and a constant appeared, as the last basis element),
    or "exhausted"; basis is a list of monic MultiPolys; and
    trace.representation(k) replays the cofactors of basis[k] in terms of
    the nonzero generators.  Each S-polynomial is reduced by `reduce_poly`;
    max_pairs counts these, not the pairs the criteria prune.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return "done", [], 0, None
    ring = gens[0].ring
    basis, pairs = _Basis(ring, len(gens)), 0

    def finish(status):
        return (status, [MultiPoly.from_packed(ring, f) for f in basis.polys],
                pairs, basis)

    for idx, g in enumerate(gens):
        f = g.packed_in(ring)
        inv = ring.inverse(f[max(f)])
        basis.append(ring.scale(f, inv), _Step(inv, idx))
        if stop_at_unit and g.is_constant():
            return finish("unit")

    counter = itertools.count()
    heap, pending = [], {}            # pending: the live pairs {(i, j): lcm}
    leads, lows, guard = basis.leads, basis.lows, ring.guard

    def divides(a, b):                # exponent fields: a | b
        return ((b | guard) - a) & guard == guard

    def update(k):
        # Gebauer-Moller: drop the pending pairs that lead k chains past,
        # then add the pairs (i, k) whose lcm no other one's divides
        t = lows[k]
        lcms = [ring.lcm(lead, t) for lead in leads[:k]]
        for (i, j), low in list(pending.items()):
            if divides(t, low) and lcms[i] != low and lcms[j] != low:
                del pending[i, j]
        overlaps = [low != lead + t for low, lead in zip(lcms, lows)]
        minimal = []
        # a divisor sorts first; of equal lcms, a coprime pair, else the newest
        for i in sorted(reversed(range(k)), key=lambda i: (lcms[i], overlaps[i])):
            low = lcms[i]
            if not any(divides(m, low) for m in minimal):
                minimal.append(low)
                # product criterion: coprime leading monomials reduce to zero
                if overlaps[i]:
                    pending[i, k] = low
                    heapq.heappush(heap, (ring.key(low), next(counter), i, k))
    for k in range(len(leads)):
        update(k)

    while pending:
        lcm, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:     # dropped by the chain criterion
            continue
        if pairs >= max_pairs:
            return finish("exhausted")
        del pending[i, j]
        pairs += 1
        # every term of m_i f_i and m_j f_j is at most lcm, as are the terms
        # of its reduction: no key formed below can exceed MAX_DEGREE
        mi, mj = lcm - leads[i], lcm - leads[j]
        s = {k + mi: c for k, c in basis.polys[i].items()}
        ring.submul(s, basis.polys[j], mj, ring.one)
        submuls, rem = reduce_poly(s, basis)
        if not rem:
            continue
        inv = ring.inverse(rem[max(rem)])
        basis.append(ring.scale(rem, inv), _Step(inv, None, (
            (i, mi, ring.minus_one), (j, mj, ring.one), *submuls)))
        if stop_at_unit and max(rem) == 0:
            return finish("unit")
        update(len(leads) - 1)
    return finish("done")


def groebner_membership_one(generators, max_pairs=50000):
    """Decide whether 1 lies in the ideal of the generators.

    On success the certificate's cofactors re-verify by expansion.  A
    completed basis with no constant element proves 1 is not in the ideal;
    budget exhaustion is reported as its own status.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return MembershipResult(status="not_in_ideal", basis=[])
    status, basis, pairs, trace = buchberger(gens, max_pairs=max_pairs,
                                             stop_at_unit=True)
    if status == "unit":
        # the unit is the last basis element, and monic: its cofactors are 1's
        cert = IdealCertificate(generators=gens,
                                cofactors=trace.representation(len(basis) - 1))
        if not cert.verify():
            raise AssertionError("certificate failed re-verification")
        return MembershipResult(status="certificate", certificate=cert,
                                basis=basis, pairs_processed=pairs)
    return MembershipResult(status="exhausted" if status == "exhausted"
                            else "not_in_ideal", basis=basis,
                            pairs_processed=pairs)


def standard_monomial_count(basis):
    """Number of monomials outside the leading-term ideal, or None.

    Returns None when the ideal is not zero-dimensional (some variable has
    no pure-power leading monomial).  For a zero-dimensional ideal this is
    dim_k of the quotient ring, i.e. the number of solutions over the
    algebraic closure counted with multiplicity.
    """
    if not basis:
        return None
    n = basis[0].n
    leads = [leading_term(b)[0] for b in basis if not b.is_zero()]
    bounds = [None] * n
    for lm in leads:
        nz = [i for i in range(n) if lm[i] > 0]
        if len(nz) == 1:
            i = nz[0]
            if bounds[i] is None or lm[i] < bounds[i]:
                bounds[i] = lm[i]
        elif len(nz) == 0:
            return 0
    if any(b is None for b in bounds):
        return None
    count = 0
    for exps in itertools.product(*[range(b) for b in bounds]):
        if not any(_divides(lm, exps) for lm in leads):
            count += 1
    return count
