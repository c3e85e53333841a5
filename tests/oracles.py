"""Independent oracles the Groebner path is checked against: brute-force
ideal membership by linear algebra over monomials up to a degree bound, the
Krull dimension of a monomial ideal by trying every variable subset, ideal
equality by mutual membership, the identity's kernel test on the Groebner
route, and seeded random polynomial generation."""

import random
from fractions import Fraction
from itertools import combinations, product

from pairkit.gbasis import Ideal, groebner, normal_form
from pairkit.orders import BlockOrder
from pairkit.poly import Polynomial, PolyRing


def monomials_up_to(ring: PolyRing, degree: int):
    out = []
    for exps in product(range(degree + 1), repeat=ring.nvars):
        if sum(exps) <= degree:
            out.append(exps)
    return sorted(out)


def shifted(f: Polynomial, exps) -> Polynomial:
    """f times the monomial with exponents `exps`."""
    return Polynomial(f.ring, {tuple(a + b for a, b in zip(e, exps)): c
                               for e, c in f.terms.items()})


def in_ideal_bruteforce(f: Polynomial, gens, degree: int) -> bool:
    """Is f a combination sum q_i g_i with deg(q_i g_i) <= degree?  Solved as
    an exact linear system over the monomial basis (no division algorithm)."""
    ring = f.ring
    columns = []
    for g in gens:
        if g.is_zero():
            continue
        room = degree - g.total_degree()
        if room < 0:
            continue
        for exps in monomials_up_to(ring, room):
            columns.append(shifted(g, exps))
    rows_index = monomials_up_to(ring, degree)
    if f.total_degree() > degree:
        return False
    index = {e: i for i, e in enumerate(rows_index)}
    matrix = [[0] * (len(columns) + 1) for _ in rows_index]
    for j, col in enumerate(columns):
        for exps, coeff in col.terms.items():
            matrix[index[exps]][j] = coeff
    for exps, coeff in f.terms.items():
        matrix[index[exps]][len(columns)] = coeff
    return not _last_column_is_pivot(matrix, ring.field.p)


def _last_column_is_pivot(matrix, p):
    """Gauss-Jordan over Q (p None) or ints mod p, written apart from
    `pairkit.linalg`: each column's pivot is any unused row nonzero there, and
    it is cleared from every other row.  The system with the last column as
    right-hand side is inconsistent iff that column gets a pivot.  Over Q an
    entry is an int or a Fraction, and its inverse is a Fraction either way."""
    inverse = (lambda a: Fraction(1) / a) if p is None else (lambda a: pow(a, -1, p))
    used, last = set(), len(matrix[0]) - 1
    for col in range(last + 1):
        pivot = next((r for r, row in enumerate(matrix) if r not in used and row[col]), None)
        if pivot is None:
            continue
        if col == last:
            return True
        used.add(pivot)
        scale = inverse(matrix[pivot][col])
        top = [a * scale for a in matrix[pivot]]
        for r, row in enumerate(matrix):
            if r != pivot and row[col]:
                matrix[r] = [a - row[col] * b for a, b in zip(row, top)]
                if p is not None:
                    matrix[r] = [a % p for a in matrix[r]]
    return False


def lead_dimension_by_subsets(leads, nvars: int) -> int:
    """Krull dimension of k[x_1..x_nvars] modulo the monomial ideal of the
    exponent tuples `leads`: the largest variable subset containing no lead's
    support, tried largest first; -1 when a lead is constant."""
    if any(not any(e) for e in leads):
        return -1
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            inside = set(subset)
            if all(any(e[i] for i in range(nvars) if i not in inside) for e in leads):
                return size


def ideals_equal(a: Ideal, b: Ideal) -> bool:
    """Do a and b generate the same ideal?  Each generator of one reduces to
    zero modulo the other's Groebner basis."""
    ga = groebner(a)
    gb = groebner(b)
    return all(normal_form(g, ga).is_zero() for g in b.nonzero_gens()) and \
        all(normal_form(g, gb).is_zero() for g in a.nonzero_gens())


def identity_kernel_acts_trivially_by_groebner(action) -> bool:
    """Does the kernel of the identity, <t_1..t_s>, act trivially?  Decided
    on the Groebner route: the basis of <t_1..t_s> in k[Z, t] under the block
    order t >> Z, and the normal forms of every v_i - z_i against it."""
    big = action.big_ring
    front = [big.index(name) for name in action.law.coords]
    basis = groebner(Ideal(big, [big.var(name) for name in action.law.coords]),
                     BlockOrder(front, big.nvars))
    return all(normal_form(v - big.var(name), basis).is_zero()
               for v, name in zip(action.v, action.ring.names))


def random_polynomial(ring: PolyRing, rng: random.Random, degree: int,
                      terms: int, coeff_bound: int = 3) -> Polynomial:
    pool = monomials_up_to(ring, degree)
    out = ring.zero()
    for _ in range(terms):
        exps = pool[rng.randrange(len(pool))]
        c = rng.randint(-coeff_bound, coeff_bound)
        out = out + Polynomial(ring, {exps: ring.field.div(c, 1)})
    return out


def _random_monomial(ring, rng, max_degree):
    pool = [e for e in monomials_up_to(ring, max_degree) if sum(e) >= 1]
    exps = pool[rng.randrange(len(pool))]
    return Polynomial(ring, {exps: 1})


def random_rational_tuple(ring, rng: random.Random):
    """Random tuple of <= 3 rational functions of degree <= 3.

    Mixes monomial quotients, one sparse numerator per tuple (binomial cubic
    or trinomial quadratic), constants, and engineered algebraically
    dependent tuples, so trdeg values 0..3 and nonzero relation ideals all
    occur.  Several simultaneous dense numerators are excluded: that is an
    implicitization workload beyond the desk-scale Groebner engine.
    """
    from pairkit.poly import RationalFunction

    count = rng.randint(1, 3)
    if count >= 2 and rng.random() < 0.4:
        # dependent tuple: two sparse linear forms and a product/power
        l1 = random_polynomial(ring, rng, 1, 2)
        l2 = random_polynomial(ring, rng, 1, 2)
        if l1.is_zero():
            l1 = ring.var(ring.names[0])
        if l2.is_zero():
            l2 = ring.var(ring.names[-1])
        third = l1 * l2 if rng.random() < 0.5 else l1 * l1
        den = _random_monomial(ring, rng, 1) if rng.random() < 0.5 else ring.one()
        fs = [RationalFunction(l1, ring.one()),
              RationalFunction(l2, ring.one()),
              RationalFunction(third, den)]
        return fs[:count]

    fs = []
    heavy_used = False
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45 and not heavy_used:
            heavy_used = True
            num = random_polynomial(ring, rng, 3, 2) if rng.random() < 0.5 \
                else random_polynomial(ring, rng, 2, 3)
            den = _random_monomial(ring, rng, 1) if rng.random() < 0.6 \
                else ring.one()
        elif roll < 0.85:
            num = _random_monomial(ring, rng, 3).scale(
                ring.field.div(rng.choice([-3, -2, -1, 1, 2, 3]), 1))
            den = _random_monomial(ring, rng, 2) if rng.random() < 0.5 \
                else ring.one()
        else:
            num = ring.const(ring.field.div(rng.randint(-3, 3), 1))
            den = ring.one()
        fs.append(RationalFunction(num, den))
    return fs
