"""Ideals, the division algorithm, Buchberger's algorithm, elimination,
and combinatorial Krull dimension.

One heap reducer, `_reduce_dict`, does every reduction in exact field
arithmetic over Q or F_p.  Each divisor carries the inverse of its leading
coefficient, so a reduction step multiplies once and never scales the
dividend; Buchberger makes every basis element monic when it enters, so its
S-polynomials and reductions need no scale factors at all.
Buchberger pops the pair with the smallest lcm (ties by pair indices) and
prunes by Gebauer-Moeller.  Live pairs sit in a dict (i, j) -> lcm; a heap of
(order key of the lcm, i, j), each key computed once, orders them, and pairs
the chain criterion removes leave the dict only.  Output bases are reduced,
monic and sorted ascending by leading monomial, so identical inputs
reproduce bit-identical bases.
"""

import heapq
from itertools import chain

from .errors import AlgebraError
from .orders import GREVLEX, BlockOrder
from .poly import (Polynomial, PolyRing, _mono_div, _mono_divides, _mono_lcm,
                   fresh_names)


class Ideal:
    """A finite generating set in a fixed ring (zero generators allowed)."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring: PolyRing, gens):
        gens = list(gens)
        for g in gens:
            if g.ring != ring:
                raise AlgebraError("ideal generators in different rings")
        self.ring = ring
        self.gens = gens

    def nonzero_gens(self):
        return [g for g in self.gens if not g.is_zero()]

    def __repr__(self):
        inside = ", ".join(g.text() for g in self.gens) or "0"
        return f"<{inside}> in {self.ring!r}"


class GroebnerBasis:
    __slots__ = ("ring", "order", "polys")

    def __init__(self, ring, order, polys):
        self.ring = ring
        self.order = order
        self.polys = list(polys)

    def __iter__(self):
        return iter(self.polys)

    def cast(self, ring: PolyRing) -> "GroebnerBasis":
        """This grevlex basis in a larger `ring` that keeps its variables in
        their relative order, as the reduced basis there of the ideal it
        generates: grevlex on `ring` restricts to grevlex on this basis's
        ring, so the leads stay leads and the normal forms stay unique."""
        return GroebnerBasis(ring, self.order, [p.cast(ring) for p in self.polys])

    def dimension(self) -> int:
        """Krull dimension of ring/I, read off the leads; -1 for the unit ideal."""
        return lead_dimension([p.leading(self.order)[0] for p in self.polys], self.ring.nvars)

    def __repr__(self):
        inside = ", ".join(p.text() for p in self.polys) or "0"
        return f"GB[{self.order!r}]{{{inside}}}"


def poly_divmod(f: Polynomial, divisors, order=GREVLEX):
    """Multivariate division: f = sum q_i * d_i + r, no term of r divisible
    by any leading term.  Divisors are scanned in list order (deterministic)."""
    ring = f.ring
    rows = []
    for d in divisors:
        if d.ring != ring:
            raise AlgebraError("divisor in a different ring")
        if d.is_zero():
            raise AlgebraError("zero divisor in division algorithm")
        lead_exps, lead_coeff = d.leading(order)
        rows.append((lead_exps, ring.field.inv(lead_coeff), d.terms))
    quotients = [{} for _ in rows]
    remainder = _reduce_dict(f.terms, rows, order, ring.field.p, True, quotients)
    return [Polynomial(ring, q) for q in quotients], Polynomial(ring, remainder)


def normal_form(f: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Unique remainder of f modulo a reduced basis; zero iff f is in the ideal."""
    if f.ring != basis.ring:
        raise AlgebraError("polynomial and basis in different rings")
    return poly_divmod(f, basis.polys, basis.order)[1]


def _coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _update_pairs(pairs, leads, t):
    """Gebauer-Moeller pair update for the new basis element with index t.

    `pairs` is the live-pair dict (i, j) -> lcm of leads i and j.  Old pairs
    that the chain criterion removes are deleted from it, tested with their
    stored lcm; new pairs (i, t) are pruned by the lcm-divisibility and
    coprime criteria.  Returns the kept new pairs as (i, t, lcm) triples in
    index order; the caller adds them to the dict and the heap.
    Deterministic (index-order traversal)."""
    lt_t = leads[t]
    lcm_with = [_mono_lcm(leads[i], lt_t) for i in range(t)]
    kept_new = []
    for i in range(t):
        if _coprime(leads[i], lt_t) or not any(
                _mono_divides(lcm_with[j], lcm_with[i])
                for j in chain(range(i + 1, t), kept_new)):
            kept_new.append(i)

    dead = [(i, j) for (i, j), lcm_ij in pairs.items()
            if _mono_divides(lt_t, lcm_ij)
            and lcm_with[i] != lcm_ij and lcm_with[j] != lcm_ij]
    for ij in dead:
        del pairs[ij]
    return [(i, t, lcm_with[i]) for i in kept_new if not _coprime(leads[i], lt_t)]


class _Top:
    """Max-heap adapter for heapq: larger order key pops first."""

    __slots__ = ("key", "exps")

    def __init__(self, key, exps):
        self.key = key
        self.exps = exps

    def __lt__(self, other):
        return self.key > other.key


def _reduce_dict(f, divisors, order, p, full, quotients=None):
    """Reduction of a coefficient dict against (lead exponents, inverse of
    the lead coefficient, terms) divisors, largest monomial first, in exact
    field arithmetic (p None over Q, else the prime of F_p).

    Returns the remainder; with full=False only the leading term is
    guaranteed irreducible (enough for basis building).  `quotients`, one
    dict per divisor, receives shift -> factor at each subtraction; the
    reduced monomial strictly decreases, so each (divisor, shift) pair occurs
    once."""
    work = dict(f)
    heap = [_Top(order.key(e), e) for e in work]
    heapq.heapify(heap)
    remainder = {}
    while work and heap:
        top = heapq.heappop(heap)
        exps = top.exps
        if exps not in work:
            continue
        coeff = work[exps]
        for i, (d_exps, d_lead_inv, d_terms) in enumerate(divisors):
            if _mono_divides(d_exps, exps):
                factor = coeff * d_lead_inv
                if p is not None:
                    factor %= p
                shift = _mono_div(exps, d_exps)
                if quotients is not None:
                    quotients[i][shift] = factor
                for t_exps, t_coeff in d_terms.items():
                    e = tuple(a + b for a, b in zip(shift, t_exps))
                    c = work.get(e, 0) - factor * t_coeff
                    if p is not None:
                        c %= p
                    if c:
                        if e not in work:
                            heapq.heappush(heap, _Top(order.key(e), e))
                        work[e] = c
                    else:
                        work.pop(e, None)
                break
        else:
            if not full:
                return work
            remainder[exps] = coeff
            del work[exps]
    if not full:
        return work
    return remainder


def _spoly_dict(f, g, p):
    """S-polynomial of two monic (lead exponents, 1, dict) triples."""
    fe, _, fd = f
    ge, _, gd = g
    lcm = _mono_lcm(fe, ge)
    uf = _mono_div(lcm, fe)
    ug = _mono_div(lcm, ge)
    out = {tuple(x + y for x, y in zip(e, uf)): c for e, c in fd.items()}
    for e, c in gd.items():
        key = tuple(x + y for x, y in zip(e, ug))
        v = out.get(key, 0) - c
        if p is not None:
            v %= p
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def buchberger(gens, order=GREVLEX):
    """Reduced Groebner basis of the given generators (list of Polynomial)."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    field = ring.field
    p = field.p

    basis = []       # monic (leading exponents, 1, coefficient dict)
    leads = []       # leading exponents, indexed like basis
    pairs = {}       # live pairs (i, j) -> lcm of their leads
    queue = []       # heap of (order key of the lcm, i, j); dead pairs stay in it

    def push(d):
        exps = max(d, key=order.key)
        d = Polynomial(ring, d).scale(field.inv(d[exps])).terms
        basis.append((exps, 1, d))
        leads.append(exps)
        for i, t, lcm in _update_pairs(pairs, leads, len(leads) - 1):
            pairs[i, t] = lcm
            heapq.heappush(queue, (order.key(lcm), i, t))

    for g in gens:
        push(g.terms)

    while queue:
        _, i, j = heapq.heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue     # removed by the chain criterion
        s = _spoly_dict(basis[i], basis[j], p)
        if s:
            r = _reduce_dict(s, basis, order, p, full=False)
            if r:
                push(r)

    # minimal basis: ascending leading terms, drop anything an earlier lead divides
    ordered = sorted(range(len(basis)), key=lambda i: order.key(leads[i]))
    kept = []
    for i in ordered:
        if not any(_mono_divides(leads[k], leads[i]) for k in kept):
            kept.append(i)
    reduced = []
    for i in kept:
        others = [basis[k] for k in kept if k != i]
        # no other kept lead divides lead i, so it stays, with coefficient 1
        d = _reduce_dict(basis[i][2], others, order, p, full=True) if others \
            else basis[i][2]
        reduced.append(Polynomial(ring, d))
    reduced.sort(key=lambda g: order.key(g.leading(order)[0]))
    return reduced


def groebner(ideal: Ideal, order=GREVLEX) -> GroebnerBasis:
    return GroebnerBasis(ideal.ring, order, buchberger(ideal.nonzero_gens(), order))


def eliminate(ideal: Ideal, keep) -> Ideal:
    """Generators of I intersected with k[keep], via a block elimination basis.

    The result lives in the subring on `keep` (original declaration order).
    """
    ring = ideal.ring
    keep = set(keep)
    for name in keep:
        ring.index(name)
    front = [i for i, n in enumerate(ring.names) if n not in keep]
    order = BlockOrder(front, ring.nvars)
    basis = buchberger(ideal.nonzero_gens(), order)
    sub = PolyRing([n for n in ring.names if n in keep], ring.field)
    gens = [p.cast(sub) for p in basis if p.variables_used() <= keep]
    return Ideal(sub, gens)


def ideal_dimension(ideal: Ideal) -> int:
    """Krull dimension of ring/I, read off its GREVLEX leading terms; -1 for
    the unit ideal."""
    return groebner(ideal).dimension()


def lead_dimension(leads, nvars: int) -> int:
    """Krull dimension of k[x_1..x_nvars] modulo the monomial ideal of the
    exponent tuples `leads`; -1 when one of them is constant.

    A variable set is independent when no lead's support lies inside it, so
    the dimension is nvars minus the size of a smallest set of variables that
    meets every support.  Branch and bound finds that set: branch on the
    first support not yet met, the smallest as supports are sorted by size,
    and cut at the best size found so far (Kredel & Weispfenning, J. Symb.
    Comp. 6, 1988).
    """
    supports = sorted({sum(1 << i for i, e in enumerate(lead) if e) for lead in leads},
                      key=int.bit_count)
    if supports and not supports[0]:
        return -1
    best = nvars

    def search(chosen: int, size: int):
        nonlocal best
        if size >= best:
            return
        missed = next((m for m in supports if not m & chosen), 0)
        if not missed:
            best = size
            return
        while missed:
            bit = missed & -missed
            search(chosen | bit, size + 1)
            missed ^= bit

    search(0, 0)
    return nvars - best


def saturate(ideal: Ideal, f: Polynomial) -> Ideal:
    """I : f^infty via the fresh-variable trick (eliminate y from I + <1 - y*f>)."""
    ring = ideal.ring
    y = fresh_names("y", 1, ring.names)[0]
    big = ring.extend([y])
    gens = [g.cast(big) for g in ideal.nonzero_gens()]
    gens.append(big.one() - big.var(y) * f.cast(big))
    contracted = eliminate(Ideal(big, gens), ring.names)
    return Ideal(ring, [g.cast(ring) for g in contracted.gens])

