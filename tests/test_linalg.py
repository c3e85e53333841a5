import random
from fractions import Fraction
from itertools import product

import pytest

from pairkit.errors import UnsupportedMethodError
from pairkit.fields import QQ, FieldSpec
from pairkit.linalg import (ExactMatrix, echelon, formal_jacobian_rank, jacobian_matrix,
                            jacobian_rank)
from pairkit.poly import PolyRing, RationalFunction

from oracles import random_polynomial


def F(x):
    return Fraction(x)


class TestNullspace:
    def test_single_row(self):
        M = ExactMatrix(QQ, [[F(1), F(2)]])
        assert M.nullspace() == [[F(-2), F(1)]]

    def test_identity_has_empty_nullspace(self):
        M = ExactMatrix(QQ, [[F(1), F(0)], [F(0), F(1)]])
        assert M.nullspace() == []

    def test_two_equations(self):
        M = ExactMatrix(QQ, [[F(1), F(1), F(1)], [F(1), F(2), F(3)]])
        assert M.nullspace() == [[F(1), F(-2), F(1)]]

    def test_rank(self):
        M = ExactMatrix(QQ, [[F(1), F(2)], [F(2), F(4)]])
        assert M.rank() == 1

    def test_prime_field(self):
        M = ExactMatrix(FieldSpec.prime(5), [[2, 4]])
        (vec,) = M.nullspace()
        assert (2 * vec[0] + 4 * vec[1]) % 5 == 0 and vec != [0, 0]


class TestJacobianRank:
    def setup_method(self):
        self.R = PolyRing(["z1", "z2"], QQ)
        self.z1, self.z2 = self.R.gens()

    def test_coordinates(self):
        fs = [RationalFunction.from_poly(self.z1),
              RationalFunction.from_poly(self.z2)]
        assert jacobian_rank(fs) == 2

    def test_proportional_rows(self):
        fs = [RationalFunction.from_poly(self.z1),
              RationalFunction.from_poly(self.z1 * self.z1)]
        assert jacobian_rank(fs) == 1

    def test_single_fraction(self):
        assert jacobian_rank([RationalFunction(self.z2, self.z1)]) == 1

    def test_prime_field_refused(self):
        R2 = PolyRing(["z1"], FieldSpec.prime(2))
        f = RationalFunction.from_poly(R2.var("z1") ** 2)
        with pytest.raises(UnsupportedMethodError, match="elimination"):
            jacobian_rank([f])
        # the formal rank is still computable internally: d(z1^2) = 0 in char 2
        assert formal_jacobian_rank([f]) == 0

    def test_rational_matrix_rank_zero(self):
        zero = RationalFunction.from_poly(self.R.zero())
        assert bool(zero) is False
        assert len(echelon([[zero, zero]], RationalFunction.inverse)[1]) == 0

    def test_proportional_rational_rows(self):
        """[f, g] and [f*h, g*h] are dependent over k(z)."""
        one = self.R.one()
        f = RationalFunction(self.z1 + one, self.z2)
        g = RationalFunction(self.z2 * self.z2, self.z1 + self.z2)
        h = RationalFunction(self.z1 - self.z2, self.z1 * self.z1 + one)
        rows, pivots = echelon([[f, g], [f * h, g * h]], RationalFunction.inverse)
        assert pivots == [0] and not any(rows[1])


def test_jacobian_entries_match_sympy_derivatives():
    """Each entry of a polynomial row and of a fraction row is sympy's
    derivative of num/den, on seeded random functions over Q."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(19)
    ring = PolyRing(["z1", "z2", "z3"], QQ)
    functions = [RationalFunction(random_polynomial(ring, rng, 3, 4),
                                  ring.one() if i % 2 else
                                  random_polynomial(ring, rng, 2, 3) + ring.var("z3") ** 3)
                 for i in range(8)]
    expr = lambda p: sympy.sympify(p.text())
    for f, row in zip(functions, jacobian_matrix(functions)):
        for name, entry in zip(ring.names, row):
            expected = sympy.diff(expr(f.num) / expr(f.den), sympy.Symbol(name))
            assert sympy.cancel(expr(entry.num) / expr(entry.den) - expected) == 0


def matrices(rng, p):
    """Zero, empty, one-row, duplicate-row and rank-deficient matrices, then
    seeded random ones; entries are Fractions over Q (p None), else ints mod p.
    At most 4 columns, so F_p kernels can be enumerated."""
    entry = (lambda: Fraction(rng.randint(-3, 3))) if p is None \
        else (lambda: rng.randrange(p))
    zero = Fraction(0) if p is None else 0
    row = lambda n: [entry() for _ in range(n)]
    out = [[], [[]], [[zero] * 3] * 2, [row(4)], [row(3)] * 3]
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [row(ncols) for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:
            c = entry()
            rows[-1] = [c * a + b for a, b in zip(rows[0], rows[1])]
            if p is not None:
                rows[-1] = [v % p for v in rows[-1]]
        out.append(rows)
    return out


def check_basis(matrix, basis, p):
    """M*v = 0, ncols - rank vectors, and each is 1 on its own free column
    and 0 on the other free columns, free columns ascending."""
    reduce = (lambda v: v) if p is None else (lambda v: v % p)
    assert all(reduce(sum(a * b for a, b in zip(r, v))) == 0
               for r in matrix.rows for v in basis)
    assert len(basis) == matrix.ncols - matrix.rank()
    free = [next(j for j in reversed(range(matrix.ncols)) if v[j]) for v in basis]
    assert free == sorted(set(free))
    assert all(v[j] == (1 if j == own else 0) for v, own in zip(basis, free) for j in free)
    return free


def test_rank_and_nullspace_match_sympy_over_q():
    sympy = pytest.importorskip("sympy")
    for rows in matrices(random.Random(18), None):
        matrix = ExactMatrix(QQ, rows)
        reference = sympy.Matrix(len(rows), matrix.ncols,
                                 [sympy.Rational(a.numerator, a.denominator)
                                  for r in rows for a in r])
        assert matrix.rank() == reference.rank()
        basis = matrix.nullspace()
        check_basis(matrix, basis, None)
        expected = [[Fraction(int(x.p), int(x.q)) for x in v] for v in reference.nullspace()]
        assert basis == expected


@pytest.mark.parametrize("p", [2, 5])
def test_rank_and_nullspace_match_enumeration_over_fp(p):
    """The kernel, enumerated over F_p^n, has p^(n - rank) vectors, the basis
    spans it, and its free columns are where kernel vectors end."""
    field = FieldSpec.prime(p)
    for rows in matrices(random.Random(18 + p), p):
        matrix = ExactMatrix(field, rows)
        ncols = matrix.ncols
        kernel = {v for v in product(range(p), repeat=ncols)
                  if all(sum(a * b for a, b in zip(r, v)) % p == 0 for r in rows)}
        rank = matrix.rank()
        assert len(kernel) == p ** (ncols - rank)
        basis = matrix.nullspace()
        free = check_basis(matrix, basis, p)
        assert free == sorted({max(j for j in range(ncols) if v[j]) for v in kernel if any(v)})
        spanned = {tuple(sum(c * v[j] for c, v in zip(cs, basis)) % p for j in range(ncols))
                   for cs in product(range(p), repeat=len(basis))}
        assert spanned == kernel
