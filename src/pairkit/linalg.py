"""Exact linear algebra on one Gaussian elimination, `echelon`.

It runs over every field the package uses: Q (ints, and `Fraction`s where
a division leaves a non-integral rational), F_p (ints, reduced mod p) and
the rational function field k(z)
(`RationalFunction` entries).  `ExactMatrix` reads the rank and a nullspace
basis off it, and the Jacobian criterion reads the rank of a matrix of
rational functions."""

from .errors import AlgebraError, UnsupportedMethodError, ValidationError
from .fields import FieldSpec
from .poly import RationalFunction


def echelon(rows, inv, p=None):
    """Forward Gaussian elimination on a copy of `rows`; returns (rows,
    pivot columns).

    The pivot of each column is its first nonzero entry at or below the rank
    so far, and each lower row is cleared with factor = entry * inv(pivot).
    `p` is the field's modulus over F_p, where each new row is reduced mod p
    once, and None over Q and k(z).
    """
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        found = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        pivot = rows[rank]
        lower = [r for r in range(rank + 1, len(rows)) if rows[r][col]]
        scale = inv(pivot[col]) if lower else None
        for r in lower:
            factor = rows[r][col] * scale
            row = [a - factor * b for a, b in zip(rows[r], pivot)]
            rows[r] = row if p is None else [v % p for v in row]
        pivots.append(col)
    return rows, pivots


class ExactMatrix:
    """Dense matrix with exact entries from a FieldSpec, eliminated once by
    `echelon` when it is built."""

    __slots__ = ("field", "rows", "ncols", "echelon_rows", "pivots")

    def __init__(self, field: FieldSpec, rows):
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValidationError("ragged matrix")
        else:
            width = 0
        self.field = field
        self.rows = rows
        self.ncols = width
        self.echelon_rows, self.pivots = echelon(rows, field.inv, field.p)

    @property
    def nrows(self):
        return len(self.rows)

    def rank(self) -> int:
        return len(self.pivots)

    def nullspace(self):
        """Exact basis of the right null space, one vector per free column,
        in ascending free-column order (deterministic): each vector has 1 on
        its free column and 0 on the other free columns, which makes it
        unique, and is back-substituted through the echelon rows."""
        field, p, n = self.field, self.field.p, self.ncols
        bottom_up = [(col, row, field.inv(row[col]))
                     for col, row in zip(self.pivots, self.echelon_rows)][::-1]
        basis = []
        for free in range(n):
            if free in self.pivots:
                continue
            vec = [0] * n
            vec[free] = 1
            for col, row, scale in bottom_up:
                value = -sum(a * b for a, b in zip(row[col + 1:], vec[col + 1:])) * scale
                vec[col] = value if p is None else value % p
            basis.append(vec)
        return basis

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.field!r})"


def jacobian_matrix(functions):
    """Rows = functions, columns = the ring's variables; entries
    d(num/den)/dz as rational functions via the quotient rule, or d(num)/dz
    for a polynomial row (den = 1)."""
    if not functions:
        raise ValidationError("empty function list")
    ring = functions[0].ring
    for f in functions:
        if f.ring != ring:
            raise AlgebraError("functions live in different rings")
    rows = []
    for f in functions:
        if f.den.is_one():
            rows.append([RationalFunction.from_poly(f.num.derivative(z)) for z in ring.names])
            continue
        den2 = f.den * f.den
        rows.append([RationalFunction(f.num.derivative(z) * f.den - f.num * f.den.derivative(z),
                                      den2) for z in ring.names])
    return rows


def jacobian_rank(functions) -> int:
    """The Jacobian rank in characteristic 0, where it equals the
    transcendence degree of the functions.  Refused over prime fields, where
    a short rank proves nothing (see `formal_jacobian_rank`); use
    `pairs.trdeg_and_rank`, the route of every verb, which eliminates
    whenever the rank falls short.
    """
    if not functions:
        raise ValidationError("empty function list")
    if functions[0].ring.field.p is not None:
        raise UnsupportedMethodError(
            "jacobian_rank is refused over prime fields, where a short rank "
            "proves nothing; use the elimination-based transcendence degree")
    return formal_jacobian_rank(functions)


def formal_jacobian_rank(functions) -> int:
    """Rank of the formal Jacobian of `functions` over k(z), in any
    characteristic; 0 for none.

    Full rank, len(functions), certifies that the functions are algebraically
    independent, in every characteristic (k = Q and F_p are perfect).  Take a
    relation P(f) = 0 of least degree.  Not every dP/dT_i is zero, or P would
    be a p-th power; a nonzero one has lower degree, so it is nonzero at f;
    and the chain rule sum_i dP/dT_i(f) * grad f_i = 0 then makes the rows
    dependent.  Only the converse fails in characteristic p: z^p has rank 0
    and is transcendental (Mittmann, Saxena & Scheiblechner, Trans. AMS 2014).
    So a short rank certifies nothing, and the callers then eliminate; a rank
    below the transcendence degree witnesses inseparability.
    """
    if not functions:
        return 0
    return len(echelon(jacobian_matrix(functions), RationalFunction.inverse)[1])
