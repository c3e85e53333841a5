"""Coordinate group laws of connected unipotent groups and their
endomorphism monoid.

A law of dimension s is given by s multiplication polynomials in the fixed
left/right factor variables a1..as, b1..bs and s inversion polynomials in
the declared coordinates.  The identity element is always the origin;
presentations violating that are reported as failures, not re-coordinatized.
"""

from .errors import ValidationError
from .fields import FieldSpec
from .gbasis import Ideal, ideal_dimension
from .poly import PolyRing, RationalFunction
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
        """Componentwise group product of two rational s-tuples."""
        u, v = list(u), list(v)
        if len(u) != self.s or len(v) != self.s:
            raise ValidationError(f"tuple arity must be {self.s}")
        a_names, b_names = mult_var_names(self.s)
        assignment = {}
        assignment.update(dict(zip(a_names, u)))
        assignment.update(dict(zip(b_names, v)))
        return [m.subs_rational(assignment) for m in self.mult]

    def invert_tuple(self, u):
        u = list(u)
        if len(u) != self.s:
            raise ValidationError(f"tuple arity must be {self.s}")
        assignment = dict(zip(self.coords, u))
        return [p.subs_rational(assignment) for p in self.inv]

    def origin_tuple(self, ring: PolyRing):
        return [RationalFunction.zero(ring) for _ in range(self.s)]

    def __repr__(self):
        return f"GroupLaw(dim {self.s}, coords {self.coords})"


class Endomorphism:
    """A polynomial self-map of the group coordinates (candidate member of
    the endomorphism monoid; run validate_endomorphism to certify)."""

    __slots__ = ("law", "phi")

    def __init__(self, law: GroupLaw, phi):
        phi = list(phi)
        if len(phi) != law.s:
            raise ValidationError(f"endomorphism needs {law.s} coordinate polynomials")
        self.law = law
        self.phi = [p.cast(law.coords_ring) for p in phi]

    def is_identity(self) -> bool:
        return self.phi == self.law.coords_ring.gens()

    def __eq__(self, other):
        return isinstance(other, Endomorphism) and self.law.coords == other.law.coords \
            and self.phi == other.phi

    def __repr__(self):
        inside = ", ".join(p.text() for p in self.phi)
        return f"Endomorphism({inside})"


def validate_group_law(law: GroupLaw) -> Report:
    """Exact polynomial-identity checks: identity at the origin, associativity,
    two-sided inverses, and the unipotence proxy (linear part a_i + b_i)."""
    report = Report("group-law")
    cring = law.coords_ring
    a_names, b_names = mult_var_names(law.s)
    t_gens = cring.gens()
    zero = cring.zero()

    left_id = [law.mult[i].subs_poly(
        {**dict(zip(a_names, t_gens)), **dict(zip(b_names, [zero] * law.s))})
        for i in range(law.s)]
    report.check("identity-left", left_id == t_gens,
                 witness_first(left_id, t_gens, law.coords))
    right_id = [law.mult[i].subs_poly(
        {**dict(zip(a_names, [zero] * law.s)), **dict(zip(b_names, t_gens))})
        for i in range(law.s)]
    report.check("identity-right", right_id == t_gens,
                 witness_first(right_id, t_gens, law.coords))

    # associativity in 3s variables
    c_names = [f"c{i}" for i in range(1, law.s + 1)]
    big = PolyRing(a_names + b_names + c_names, law.field)
    a_vars = [big.var(n) for n in a_names]
    b_vars = [big.var(n) for n in b_names]
    c_vars = [big.var(n) for n in c_names]
    m_ab = [m.cast(big) for m in law.mult]
    m_bc = [m.cast(big, rename=dict(zip(a_names + b_names, b_names + c_names)))
            for m in law.mult]
    assoc_ok = True
    assoc_witness = None
    for i in range(law.s):
        lhs = law.mult[i].subs_poly({**dict(zip(a_names, m_ab)), **dict(zip(b_names, c_vars))})
        rhs = law.mult[i].subs_poly({**dict(zip(a_names, a_vars)), **dict(zip(b_names, m_bc))})
        if lhs != rhs:
            assoc_ok = False
            assoc_witness = (lhs - rhs).text()
            break
    report.check("associativity", assoc_ok, assoc_witness)

    inv_right = [law.mult[i].subs_poly(
        {**dict(zip(a_names, t_gens)), **dict(zip(b_names, law.inv))})
        for i in range(law.s)]
    report.check("inverse-right", all(p.is_zero() for p in inv_right),
                 witness_first(inv_right, [zero] * law.s, law.coords))
    inv_left = [law.mult[i].subs_poly(
        {**dict(zip(a_names, law.inv)), **dict(zip(b_names, t_gens))})
        for i in range(law.s)]
    report.check("inverse-left", all(p.is_zero() for p in inv_left),
                 witness_first(inv_left, [zero] * law.s, law.coords))

    lin_ok = True
    lin_witness = None
    for i in range(law.s):
        expected = law.mult_ring.var(a_names[i]) + law.mult_ring.var(b_names[i])
        if law.mult[i].homogeneous_part(1) != expected:
            lin_ok = False
            lin_witness = f"linear part of mult {law.coords[i]} is " \
                f"{law.mult[i].homogeneous_part(1).text()}"
            break
    report.check("unipotent-linear-part", lin_ok, lin_witness)
    report.info("note", "unipotence is enforced via the linear-part proxy only")
    return report


def witness_first(got, expected, labels):
    for g, e, label in zip(got, expected, labels):
        if g != e:
            return f"{label}: {(g - e).text()}"
    return None


def validate_endomorphism(law: GroupLaw, endo: Endomorphism) -> Report:
    """Membership in the endomorphism monoid: compatibility with the group
    multiplication and preservation of the origin."""
    report = Report("endomorphism")
    a_names, b_names = mult_var_names(law.s)
    phi_a = [p.cast(law.mult_ring, rename=dict(zip(law.coords, a_names))) for p in endo.phi]
    phi_b = [p.cast(law.mult_ring, rename=dict(zip(law.coords, b_names))) for p in endo.phi]
    hom_ok = True
    hom_witness = None
    for i in range(law.s):
        lhs = law.mult[i].subs_poly({**dict(zip(a_names, phi_a)), **dict(zip(b_names, phi_b))})
        rhs = endo.phi[i].subs_poly(dict(zip(law.coords, law.mult)))
        if lhs != rhs:
            hom_ok = False
            hom_witness = f"{law.coords[i]}: {(lhs - rhs).text()}"
            break
    report.check("multiplication-compatibility", hom_ok, hom_witness)
    origin = {name: law.field.zero() for name in law.coords}
    report.check("fixes-origin", all(not p.evaluate(origin) for p in endo.phi))
    return report


def compose_endomorphisms(law: GroupLaw, outer: Endomorphism, inner: Endomorphism) -> Endomorphism:
    """outer after inner; the composite is re-validated."""
    phi = [p.subs_poly(dict(zip(law.coords, inner.phi))) for p in outer.phi]
    composite = Endomorphism(law, phi)
    report = validate_endomorphism(law, composite)
    if not report.passed:
        raise ValidationError("composite endomorphism failed validation: "
                              + ", ".join(report.failures))
    return composite


def kernel_ideal(law: GroupLaw, endo: Endomorphism) -> Ideal:
    """Scheme-theoretic kernel ideal <phi_1,...,phi_s> in k[coords]; not
    radicalized, so infinitesimal kernels are preserved."""
    return Ideal(law.coords_ring, list(endo.phi))


def is_surjective(law: GroupLaw, endo: Endomorphism) -> bool:
    """Finite (dimension-0) kernel criterion: for a connected group, an
    endomorphism with finite kernel has dense full-dimensional closed image."""
    return ideal_dimension(kernel_ideal(law, endo)) == 0


SURJECTIVITY_NOTE = ("surjectivity decided by the finite-kernel criterion "
                     "(kernel ideal of dimension 0)")
