"""Coordinate group laws of connected unipotent groups and their
endomorphism monoid.

A law of dimension s is given by s multiplication polynomials in the fixed
left/right factor variables a1..as, b1..bs and s inversion polynomials in
the declared coordinates.  The identity element is always the origin;
presentations violating that are reported as failures, not re-coordinatized.
"""

from operator import sub

from .errors import ValidationError
from .fields import FieldSpec
from .poly import Polynomial, PolyRing
from .report import Report


def mult_var_names(s: int):
    return [f"a{i}" for i in range(1, s + 1)], [f"b{i}" for i in range(1, s + 1)]


class GroupLaw:
    __slots__ = ("coords", "field", "mult", "inv", "mult_ring", "coords_ring")

    def __init__(self, coords, field: FieldSpec, mult, inv):
        coords = tuple(coords)
        s = len(coords)
        a_names, b_names = mult_var_names(s)
        self.coords = coords
        self.field = field
        self.mult_ring = PolyRing(a_names + b_names, field)
        self.coords_ring = PolyRing(coords, field)
        if len(mult) != s or len(inv) != s:
            raise ValidationError("group law needs one mult and one inv polynomial per coordinate")
        self.mult = [p.cast(self.mult_ring) for p in mult]
        self.inv = [p.cast(self.coords_ring) for p in inv]

    @property
    def s(self) -> int:
        return len(self.coords)

    def identity_endomorphism(self) -> "Endomorphism":
        return Endomorphism(self, self.coords_ring.gens())

    def multiply_tuples(self, u, v):
        """m(u, v), componentwise: u and v are s-tuples of polynomials or
        rational functions in one ring; the product is rational when any
        entry is."""
        u, v = list(u), list(v)
        if len(u) != self.s or len(v) != self.s:
            raise ValidationError(f"tuple arity must be {self.s}")
        assignment = dict(zip(self.mult_ring.names, u + v))
        if all(isinstance(x, Polynomial) for x in u + v):
            return [m.subs_poly(assignment) for m in self.mult]
        return [m.subs_rational(assignment) for m in self.mult]

    def invert_tuple(self, u):
        u = list(u)
        if len(u) != self.s:
            raise ValidationError(f"tuple arity must be {self.s}")
        assignment = dict(zip(self.coords, u))
        return [p.subs_rational(assignment) for p in self.inv]

    def __eq__(self, other):
        return isinstance(other, GroupLaw) \
            and (self.coords, self.mult, self.inv) == (other.coords, other.mult, other.inv)

    def __repr__(self):
        return f"GroupLaw(dim {self.s}, coords {self.coords})"


class Endomorphism:
    """A polynomial self-map of the group coordinates (candidate member of
    the endomorphism monoid; run validate_endomorphism to certify)."""

    __slots__ = ("law", "phi", "_kernel")

    def __init__(self, law: GroupLaw, phi):
        phi = list(phi)
        if len(phi) != law.s:
            raise ValidationError(f"endomorphism needs {law.s} coordinate polynomials")
        self.law = law
        self.phi = [p.cast(law.coords_ring) for p in phi]
        self._kernel = None

    def kernel_basis(self) -> "GroebnerBasis":
        """The reduced grevlex basis of ker(alpha) = <phi> in k[coords],
        built once, at the first call."""
        if self._kernel is None:
            from .gbasis import groebner
            self._kernel = groebner(kernel_ideal(self.law, self))
        return self._kernel

    def apply(self, u):
        """phi(u) for an s-tuple u of polynomials in one ring."""
        return [p.subs_poly(dict(zip(self.law.coords, u))) for p in self.phi]

    def is_identity(self) -> bool:
        return self.phi == self.law.coords_ring.gens()

    def __eq__(self, other):
        return isinstance(other, Endomorphism) and self.law.coords == other.law.coords \
            and self.phi == other.phi

    def __repr__(self):
        inside = ", ".join(p.text() for p in self.phi)
        return f"Endomorphism({inside})"


def validate_group_law(law: GroupLaw) -> Report:
    """Exact polynomial identities on affine s-space: identity at the origin on
    both sides (which forces each linear part to be a_i + b_i), associativity
    and two-sided inverses.  Unipotence itself is not checked."""
    report = Report("group-law")
    s, mul = law.s, law.multiply_tuples
    t_gens = law.coords_ring.gens()
    zeros = [law.coords_ring.zero()] * s
    report.check_equal("identity-left", mul(t_gens, zeros), t_gens, sub, law.coords)
    report.check_equal("identity-right", mul(zeros, t_gens), t_gens, sub, law.coords)

    # associativity in 3s variables
    big = law.mult_ring.extend(f"c{i}" for i in range(1, s + 1))
    gens = big.gens()
    A, B, C = gens[:s], gens[s:2 * s], gens[2 * s:]
    report.check_equal("associativity", mul(mul(A, B), C), mul(A, mul(B, C)), sub)
    report.check_equal("inverse-right", mul(t_gens, law.inv), zeros, sub, law.coords)
    report.check_equal("inverse-left", mul(law.inv, t_gens), zeros, sub, law.coords)
    return report


def validate_endomorphism(law: GroupLaw, endo: Endomorphism) -> Report:
    """Membership in the endomorphism monoid: compatibility with the group
    multiplication and preservation of the origin."""
    report = Report("endomorphism")
    gens = law.mult_ring.gens()
    report.check_equal("multiplication-compatibility",
                       law.multiply_tuples(endo.apply(gens[:law.s]), endo.apply(gens[law.s:])),
                       endo.apply(law.mult), sub, law.coords)
    origin = {name: 0 for name in law.coords}
    report.check("fixes-origin", all(not p.evaluate(origin) for p in endo.phi))
    return report


def compose_endomorphisms(law: GroupLaw, outer: Endomorphism, inner: Endomorphism) -> Endomorphism:
    """outer after inner; the composite is re-validated."""
    composite = Endomorphism(law, outer.apply(inner.phi))
    report = validate_endomorphism(law, composite)
    if not report.passed:
        raise ValidationError("composite endomorphism failed validation: "
                              + ", ".join(report.failures))
    return composite


def kernel_ideal(law: GroupLaw, endo: Endomorphism) -> "Ideal":
    """Scheme-theoretic kernel ideal <phi_1,...,phi_s> in k[coords]; not
    radicalized, so infinitesimal kernels are preserved."""
    from .gbasis import Ideal
    return Ideal(law.coords_ring, list(endo.phi))


def is_surjective(law: GroupLaw, endo: Endomorphism) -> bool:
    """Finite (dimension-0) kernel criterion: for a connected group, an
    endomorphism with finite kernel has dense full-dimensional closed image.
    The identity's kernel <t_1..t_s> has dimension 0 without a basis."""
    return endo.is_identity() or endo.kernel_basis().dimension() == 0


SURJECTIVITY_NOTE = ("surjectivity decided by the finite-kernel criterion "
                     "(kernel ideal of dimension 0)")
