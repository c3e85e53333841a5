"""Ideals, the division algorithm, Buchberger's algorithm, elimination,
and combinatorial Krull dimension.

The engine is Buchberger with the normal selection strategy (pop the pair
with the smallest lcm, ties by pair indices) and Gebauer-Moeller pair
pruning.  Live pairs sit in a dict (i, j) -> lcm; a heap of (order key of
the lcm, i, j) orders them, each key computed once when its pair is made.
Pairs the chain criterion removes leave the dict only and are skipped when
the heap pops them.  Over Q the main loop runs on primitive integer
coefficients with fraction-free pseudo-reduction (exact, no modular or
tracing shortcuts); the final interreduction restores monic coefficients.
Output bases are reduced, monic, and sorted ascending by leading monomial,
so identical inputs reproduce bit-identical bases.
"""

import heapq
from fractions import Fraction
from itertools import chain, combinations
from math import gcd

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

    def is_unit_ideal(self) -> bool:
        return any(p.is_constant() and not p.is_zero() for p in self.polys)

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()

    def __repr__(self):
        inside = ", ".join(p.text() for p in self.polys) or "0"
        return f"GB[{self.order!r}]{{{inside}}}"


def poly_divmod(f: Polynomial, divisors, order=GREVLEX):
    """Multivariate division: f = sum q_i * d_i + r, no term of r divisible
    by any leading term.  Divisors are scanned in list order (deterministic)."""
    ring = f.ring
    field = ring.field
    leads = []
    for d in divisors:
        if d.ring != ring:
            raise AlgebraError("divisor in a different ring")
        if d.is_zero():
            raise AlgebraError("zero divisor in division algorithm")
        leads.append(d.leading(order))
    quotients = [dict() for _ in divisors]
    remainder = {}
    work = dict(f.terms)
    while work:
        exps = max(work, key=order.key)
        coeff = work.pop(exps)
        for i, (d_exps, d_coeff) in enumerate(leads):
            if _mono_divides(d_exps, exps):
                q_exps = _mono_div(exps, d_exps)
                q_coeff = field.div(coeff, d_coeff)
                quotients[i][q_exps] = field.add(
                    quotients[i].get(q_exps, field.zero()), q_coeff)
                for t_exps, t_coeff in divisors[i].terms.items():
                    if t_exps == d_exps:
                        continue
                    e = tuple(a + b for a, b in zip(q_exps, t_exps))
                    s = field.sub(work.get(e, field.zero()), field.mul(q_coeff, t_coeff))
                    if s:
                        work[e] = s
                    else:
                        work.pop(e, None)
                break
        else:
            remainder[exps] = coeff
    return [Polynomial(ring, q) for q in quotients], Polynomial(ring, remainder)


def reduce_full(f: Polynomial, divisors, order=GREVLEX) -> Polynomial:
    return poly_divmod(f, divisors, order)[1]


def normal_form(f: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Unique remainder of f modulo a reduced basis; zero iff f is in the ideal."""
    if f.ring != basis.ring:
        raise AlgebraError("polynomial and basis in different rings")
    return reduce_full(f, basis.polys, basis.order)


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


class _IntArith:
    """Primitive-integer lane for Q: fraction-free ops, exact throughout."""

    is_modular = False

    @staticmethod
    def from_field(terms):
        den_lcm = 1
        for c in terms.values():
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        return {e: int(c * den_lcm) for e, c in terms.items()}

    @staticmethod
    def normalize(d, lead_exps):
        if not d:
            return d
        content = 0
        for c in d.values():
            content = gcd(content, c)
            if content == 1:
                break
        if d[lead_exps] < 0:
            content = -content
        if content != 1:
            return {e: c // content for e, c in d.items()}
        return d

    @staticmethod
    def elim_factors(f_lead, d_lead):
        # scale*f_lead - factor*d_lead = 0 with the smallest integer pair
        g0 = gcd(f_lead, d_lead)
        return d_lead // g0, f_lead // g0

    @staticmethod
    def to_field(d, field):
        return {e: Fraction(c) for e, c in d.items()}


class _ModArith:
    """F_p lane: ordinary modular arithmetic."""

    is_modular = True

    def __init__(self, p):
        self.p = p

    @staticmethod
    def from_field(terms):
        return dict(terms)

    def normalize(self, d, lead_exps):
        if not d:
            return d
        inv = pow(d[lead_exps], -1, self.p)
        if inv == 1:
            return d
        return {e: c * inv % self.p for e, c in d.items()}

    def elim_factors(self, f_lead, d_lead):
        return 1, f_lead * pow(d_lead, -1, self.p) % self.p

    def to_field(self, d, field):
        return dict(d)


def _arith_for(field):
    return _ModArith(field.p) if field.p is not None else _IntArith()


def _reduce_dict(f, divisors, order, arith, full):
    """Pseudo-reduction of a coefficient dict against (lead exponents, lead
    coefficient, terms) divisors.

    Returns the remainder up to a positive scalar; with full=False only the
    leading term is guaranteed irreducible (enough for basis building)."""
    work = dict(f)
    heap = [_Top(order.key(e), e) for e in work]
    heapq.heapify(heap)
    remainder = {}
    p = arith.p if arith.is_modular else None
    while work and heap:
        top = heapq.heappop(heap)
        exps = top.exps
        if exps not in work:
            continue
        coeff = work[exps]
        for d_exps, d_lead, d_terms in divisors:
            if _mono_divides(d_exps, exps):
                scale, factor = arith.elim_factors(coeff, d_lead)
                if scale != 1:
                    for e in work:
                        work[e] *= scale
                    if remainder:
                        for e in remainder:
                            remainder[e] *= scale
                shift = _mono_div(exps, d_exps)
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
                if not arith.is_modular and work:
                    content = 0
                    for c in work.values():
                        content = gcd(content, c)
                        if content == 1:
                            break
                    for c in remainder.values():
                        if content == 1:
                            break
                        content = gcd(content, c)
                    if content > 1:
                        for e in work:
                            work[e] //= content
                        for e in remainder:
                            remainder[e] //= content
                break
        else:
            if not full:
                return work
            remainder[exps] = coeff
            del work[exps]
    if not full:
        return work
    return remainder


def _spoly_dict(f, g, order, arith):
    """S-polynomial of two (lead exponents, lead coefficient, dict) triples."""
    (fe, fc, fd) = f
    (ge, gc, gd) = g
    lcm = _mono_lcm(fe, ge)
    uf = _mono_div(lcm, fe)
    ug = _mono_div(lcm, ge)
    if arith.is_modular:
        a, b = 1, fc * pow(gc, -1, arith.p) % arith.p
    else:
        g0 = gcd(fc, gc)
        a, b = gc // g0, fc // g0
    out = {}
    for e, c in fd.items():
        out[tuple(x + y for x, y in zip(e, uf))] = a * c
    p = arith.p if arith.is_modular else None
    for e, c in gd.items():
        key = tuple(x + y for x, y in zip(e, ug))
        v = out.get(key, 0) - b * c
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
    arith = _arith_for(ring.field)

    basis = []       # (leading exponents, leading coefficient, coefficient dict)
    leads = []       # leading exponents, indexed like basis
    pairs = {}       # live pairs (i, j) -> lcm of their leads
    queue = []       # heap of (order key of the lcm, i, j); dead pairs stay in it

    def push(d):
        exps = max(d, key=order.key)
        d = arith.normalize(d, exps)
        basis.append((exps, d[exps], d))
        leads.append(exps)
        for i, t, lcm in _update_pairs(pairs, leads, len(leads) - 1):
            pairs[i, t] = lcm
            heapq.heappush(queue, (order.key(lcm), i, t))

    for g in gens:
        push(arith.from_field(g.terms))

    while queue:
        _, i, j = heapq.heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue     # removed by the chain criterion
        s = _spoly_dict(basis[i], basis[j], order, arith)
        if s:
            r = _reduce_dict(s, basis, order, arith, full=False)
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
        d = _reduce_dict(basis[i][2], others, order, arith, full=True) if others \
            else basis[i][2]
        poly = Polynomial(ring, arith.to_field(d, ring.field)).monic(order)
        reduced.append(poly)
    reduced.sort(key=lambda p: order.key(p.leading(order)[0]))
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
    """Krull dimension of ring/I via maximal independent variable sets modulo
    the leading-term ideal; -1 for the unit ideal."""
    n = ideal.ring.nvars
    basis = buchberger(ideal.nonzero_gens(), GREVLEX)
    if not basis:
        return n
    if any(p.is_constant() for p in basis):
        return -1
    leads = [p.leading(GREVLEX)[0] for p in basis]
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            inside = set(subset)
            if all(any(e[i] for i in range(n) if i not in inside) for e in leads):
                return size


def saturate(ideal: Ideal, f: Polynomial) -> Ideal:
    """I : f^infty via the fresh-variable trick (eliminate y from I + <1 - y*f>)."""
    ring = ideal.ring
    y = fresh_names("y", 1, ring.names)[0]
    big = ring.extend([y])
    gens = [g.cast(big) for g in ideal.nonzero_gens()]
    gens.append(big.one() - big.var(y) * f.cast(big))
    contracted = eliminate(Ideal(big, gens), ring.names)
    return Ideal(ring, [g.cast(ring) for g in contracted.gens])


def ideals_equal(a: Ideal, b: Ideal) -> bool:
    ga = groebner(a)
    gb = groebner(b)
    return all(ga.contains(g) for g in b.nonzero_gens()) and \
        all(gb.contains(g) for g in a.nonzero_gens())
