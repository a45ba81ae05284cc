"""Buchberger engine specialized for unit-ideal certificates.

Monomial order: graded reverse lexicographic.  The engine computes on the
packed terms of its MultiPolys (`monomials.py`): plain dicts {key: code},
whose integer key order is grevlex order, with the ring kernel's codes as
coefficients.  It takes them as they are and returns MultiPolys made from
its own dicts, with no conversion either way.  A degree above MAX_DEGREE
raises ValueError, never wraps.

Pairs pop by sugar (Giovini, Mora, Niesi, Robbiano & Traverso, ISSAC
1991), then lcm, then age: a generator's sugar is its degree, a new
element's max(sugar_x + deg shift) over its step's submuls (below).  The
product and chain criteria prune pairs, the latter as the Gebauer-Moller
update (Buchberger, EUROSAM 1979; Gebauer & Moller, JSC 1988); no basis
element is dropped.  An S-polynomial is reduced by its leading terms only,
and joins the basis from its first irreducible leading term down;
`reduce_poly` on MultiPolys runs the same loop to a full reduction.

Instead of carrying representations in terms of the generators, the engine
records a reduction trace: for each new basis element its normalising
inverse and one flat list of submuls, (x, shift, c) for
acc -= c * x^shift * basis_x: the S-polynomial's two multipliers, then the
quotient terms in reduction order.  A unit certificate replays the trace for
the ancestry of the unit only; its cofactors c_i with sum c_i * g_i = 1
re-verify in `kronecker.py`, with no trust in the engine itself.

Sugar bounds every cofactor before any product: deg c_i + deg g_i never
exceeds an element's sugar, which never falls from parent to child, so
D - 1 = sugar - (least generator degree) holds every cofactor of the
ancestry; a bound above MAX_DEGREE raises.  Over F_p with p <= 13 the
replay then runs on byte slots, as SIMD within a register (Fisher & Dietz,
LCPC 1998): each cofactor is one int with x^e at byte sum_j e_j D^j, and a
submul is acc += (rep << 8 * offset(shift)) * (-c mod p).  A slot below p
takes floor((255 - (p-1)) / (p-1)^2) submuls before it could pass 255;
then every slot is reduced by one `bytes.translate`, and the step ends
with one more that reduces and scales by its inverse (a table per
inverse).  F_{p^m} (Zech codes do not add as ints), k(t), p > 13 and more
than SLOT_CAP slots replay on packed dicts instead.

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
_Step = namedtuple("_Step", "inv gen submuls")


class _Basis:
    """Monic packed polynomials, with the leading keys and exponent fields
    the division loop reads, and the trace step and sugar of each."""

    def __init__(self, ring, ngens=0):
        self.ring, self.ngens = ring, ngens
        self.polys, self.leads, self.lows, self.steps, self.sugars = [], [], [], [], []

    def append(self, poly, gen=None, submuls=()):
        """Add poly made monic, with its step and sugar (see the module
        docstring)."""
        ring, lm = self.ring, max(poly)
        inv = ring.inverse(poly[lm])
        self.polys.append(ring.scale(poly, inv))
        self.leads.append(lm)
        self.lows.append(lm & ring.low_mask)
        self.steps.append(_Step(inv, gen, submuls))
        self.sugars.append(max((self.sugars[x] + (shift >> ring.top)
                                for x, shift, _ in submuls),
                               default=lm >> ring.top))

    def reduce(self, f):
        """(submuls, f), reducing f in place until no lead divides its
        leading term: f_in = sum c * x^shift * basis_i over the submuls
        (i, shift, c), in reduction order, plus f_out.  The leading
        monomial falls strictly, so no (i, shift) occurs twice."""
        low_mask, guard = self.ring.low_mask, self.ring.guard
        submul, leads, polys = self.ring.submul, self.leads, self.polys
        submuls = []
        while f:
            lm = max(f)
            g = (lm & low_mask) | guard
            for i, low in enumerate(self.lows):
                if (g - low) & guard == guard:       # lead i divides lm
                    c, shift = f[lm], lm - leads[i]
                    submuls.append((i, shift, c))
                    submul(f, polys[i], shift, c)
                    break
            else:
                break
        return submuls, f

    def representation(self, k):
        """Cofactors, one MultiPoly per generator, with element k equal to
        sum c_i g_i.  Replays the ancestry of k only, every cofactor in it
        of degree below D = sugar_k - (least generator degree) + 1 (see the
        module docstring): on byte slots when the ring is `Residues`, a slot
        takes `_slot_cadence(p)` >= 1 submuls and D^n <= SLOT_CAP; else on
        packed dicts."""
        ring, todo, stack = self.ring, set(), [k]
        while stack:
            x = stack.pop()
            if x not in todo:
                todo.add(x)
                stack += [y for y, _, _ in self.steps[x].submuls]
        todo = sorted(todo)                # parents before children
        top = self.sugars[k] - min(self.sugars[:self.ngens])
        _check_degree(top)
        if isinstance(ring, monomials.Residues) and \
                _slot_cadence(ring.domain.p) >= 1 and \
                (top + 1) ** ring.n <= SLOT_CAP:
            return self._replay_slots(todo, top + 1)
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
    """Full reduction of f by the basis; inside the engine, of its
    leading terms only.

    Returns (quotients, remainder) with f = sum q_i * basis_i + remainder and
    no remainder term divisible by any basis leading monomial; each leading
    term goes to the first basis element whose leading monomial divides it.
    On MultiPolys the quotients are a list, one per basis element, and a
    zero basis element gets a zero quotient and divides nothing.  Inside
    the engine f is packed, basis is a `_Basis`, and `_Basis.reduce`
    returns its flat trace, the submuls (basis index, shift, c) in
    reduction order, and f from its first irreducible leading term down.
    The full reduction moves that term to the remainder and loops again.
    """
    if isinstance(basis, _Basis):
        return basis.reduce(f)
    ring, monic = f.ring, _Basis(f.ring)
    for i, b in enumerate(basis):
        b = b.packed_in(ring)
        if b:                  # a zero element divides nothing: q_i = 0
            monic.append(b, i)
    work, rem, submuls = dict(f.packed), {}, []
    while work:
        submuls += monic.reduce(work)[0]      # reduces work in place
        if work:
            lm = max(work)
            rem[lm] = work.pop(lm)
    quotients = [{} for _ in basis]    # f = sum c x^shift (inv_i b_i) + rem
    for r, shift, c in submuls:
        st = monic.steps[r]
        quotients[st.gen][shift] = ring.times(c, st.inv)
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
    the nonzero generators.  Pairs pop in sugar order, and each
    S-polynomial is reduced by `reduce_poly` on the `_Basis`, by its
    leading terms only; max_pairs counts these, not the pairs the criteria
    prune.
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
        basis.append(g.packed_in(ring), idx)
        if stop_at_unit and g.is_constant():
            return finish("unit")

    counter = itertools.count()
    heap, pending = [], {}            # pending: the live pairs {(i, j): lcm}
    leads, lows, sugars = basis.leads, basis.lows, basis.sugars
    guard, top = ring.guard, ring.top

    def update(k):
        # Gebauer-Moller: drop the pending pairs that lead k chains past, then
        # add the (i, k) whose lcm no other's divides, at sugar deg lcm plus
        # the larger ecart, sugar - deg lead, of the two
        t = lows[k]
        lcms = [ring.lcm(low, t) for low in lows[:k]]
        for (i, j), low in list(pending.items()):
            if ((low | guard) - t) & guard == guard and \
                    lcms[i] != low and lcms[j] != low:        # t divides low
                del pending[i, j]
        minimal, ecart = [], sugars[k] - (leads[k] >> top)
        # a divisor sorts first; of equal lcms, a coprime pair, else the newest
        for low, overlap, i in sorted([(low, low != a + t, -i) for i, (low, a)
                                       in enumerate(zip(lcms, lows))]):
            g, i = low | guard, -i
            for m in minimal:
                if (g - m) & guard == guard:          # m divides low
                    break
            else:
                minimal.append(low)
                # product criterion: coprime leading monomials reduce to zero
                if overlap:
                    pending[i, k] = low
                    key = ring.key(low)
                    sugar = (key >> top) + max(ecart, sugars[i] - (leads[i] >> top))
                    heapq.heappush(heap, (sugar, key, next(counter), i, k))
    for k in range(len(leads)):
        update(k)

    while pending:
        _, lcm, _, i, j = heapq.heappop(heap)
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
        submuls, rest = reduce_poly(s, basis)
        if not rest:
            continue
        basis.append(rest, None, ((i, mi, ring.minus_one), (j, mj, ring.one),
                                  *submuls))
        if stop_at_unit and leads[-1] == 0:
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
