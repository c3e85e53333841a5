"""Exact linear algebra: RREF/nullspace over a coefficient field, and rank
of matrices of rational functions (used by the Jacobian criterion)."""

from .errors import AlgebraError, UnsupportedMethodError, ValidationError
from .fields import FieldSpec
from .poly import RationalFunction


class ExactMatrix:
    """Dense matrix with exact entries from a FieldSpec."""

    __slots__ = ("field", "rows", "ncols")

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

    @property
    def nrows(self):
        return len(self.rows)

    def rref(self):
        """Reduced row echelon form (first-nonzero pivoting); returns
        (rows, pivot column list)."""
        field = self.field
        rows = [list(r) for r in self.rows]
        pivots = []
        rank = 0
        for col in range(self.ncols):
            pivot_row = None
            for r in range(rank, len(rows)):
                if rows[r][col]:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            inv = field.inv(rows[rank][col])
            rows[rank] = [field.mul(inv, v) for v in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col]:
                    factor = rows[r][col]
                    rows[r] = [field.sub(a, field.mul(factor, b))
                               for a, b in zip(rows[r], rows[rank])]
            pivots.append(col)
            rank += 1
        return rows, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self):
        """Exact basis of the right null space, one vector per free column,
        in ascending free-column order (deterministic)."""
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        field = self.field
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            vec = [field.zero()] * self.ncols
            vec[free] = field.one()
            for r, pcol in enumerate(pivots):
                vec[pcol] = field.neg(rows[r][free])
            basis.append(vec)
        return basis

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.field!r})"


def rational_matrix_rank(rows) -> int:
    """Rank over the rational function field, by exact Gaussian elimination
    with cross-multiplication zero tests."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(work)):
            if not work[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for r in range(rank + 1, len(work)):
            if work[r][col].is_zero():
                continue
            factor = work[r][col] / pivot
            work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def jacobian_matrix(functions):
    """Rows = functions, columns = the ring's variables; entries
    d(num/den)/dz as rational functions via the quotient rule."""
    if not functions:
        raise ValidationError("empty function list")
    ring = functions[0].ring
    for f in functions:
        if f.ring != ring:
            raise AlgebraError("functions live in different rings")
    rows = []
    for f in functions:
        row = []
        for name in ring.names:
            num_d = f.num.derivative(name)
            den_d = f.den.derivative(name)
            row.append(RationalFunction(num_d * f.den - f.num * den_d,
                                        f.den * f.den))
        rows.append(row)
    return rows


def jacobian_rank(functions) -> int:
    """The Jacobian rank in characteristic 0, where it equals the
    transcendence degree of the functions.  Refused over prime fields, where
    a short rank proves nothing (see `formal_jacobian_rank`); use
    `transcendence_degree`, which eliminates whenever the rank falls short.
    """
    if not functions:
        raise ValidationError("empty function list")
    if functions[0].ring.field.p is not None:
        raise UnsupportedMethodError(
            "jacobian_rank is refused over prime fields, where a short rank "
            "proves nothing; use the elimination-based transcendence degree")
    return rational_matrix_rank(jacobian_matrix(functions))


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
    return rational_matrix_rank(jacobian_matrix(functions)) if functions else 0
