"""Co-actions of unipotent groups and of the multiplicative torus.

A unipotent co-action stores one polynomial v_i(Z, Y) per space variable,
in the combined ring k[Z, coords]; a torus co-action stores one Laurent
polynomial per space variable, as a weight -> polynomial map.
"""

from math import prod

from .errors import AlgebraError, ValidationError
from .groups import GroupLaw
from .poly import Polynomial, PolyRing, RationalFunction, fresh_names, power, power_table
from .report import Report


class CoAction:
    __slots__ = ("law", "ring", "big_ring", "v")

    def __init__(self, law: GroupLaw, ring: PolyRing, v):
        if set(ring.names) & set(law.coords):
            raise ValidationError("group coordinate names collide with ring variables")
        if ring.field != law.field:
            raise ValidationError("action ring and group law use different fields")
        v = list(v)
        if len(v) != ring.nvars:
            raise ValidationError("co-action needs one polynomial per ring variable")
        self.law = law
        self.ring = ring
        self.big_ring = PolyRing(ring.names + law.coords, ring.field)
        self.v = [p.cast(self.big_ring) for p in v]

    def v_for(self, name: str) -> Polynomial:
        return self.v[self.ring.index(name)]

    def apply(self, z, y):
        """v(z, y): the co-action polynomials with the space variables
        replaced by the tuple z and the group coordinates by the tuple y."""
        images = dict(zip(self.ring.names, z))
        images.update(zip(self.law.coords, y))
        return [p.subs_poly(images) for p in self.v]

    def is_trivial(self) -> bool:
        return all(v == self.big_ring.var(n) for v, n in zip(self.v, self.ring.names))

    def pushforward(self, f) -> RationalFunction:
        """Apply the co-action to a polynomial or rational function in k[Z]."""
        if isinstance(f, Polynomial):
            f = RationalFunction.from_poly(f)
        if f.ring != self.ring:
            raise AlgebraError("function lives in a different ring than the action")
        images = dict(zip(self.ring.names, self.v))
        den = f.den.subs_poly(images)
        if den.is_zero():
            raise AlgebraError(f"denominator {f.den.text()} maps to zero under the action")
        return RationalFunction(f.num.subs_poly(images), den)

    def is_invariant(self, f) -> bool:
        return self.pushforward(f) == f.cast(self.big_ring)

    def stabilizer_ideal(self, point) -> "Ideal":
        """<v_i(x, Y) - x_i> in k[coords]; the reduced basis equals the list
        of coordinates exactly when the stabilizer is trivial."""
        from .gbasis import Ideal
        point = list(point)
        if len(point) != self.ring.nvars:
            raise ValidationError(f"point arity must be {self.ring.nvars}")
        values = dict(zip(self.ring.names, point))
        target = self.law.coords_ring
        gens = []
        for i in range(self.ring.nvars):
            evaluated = self.v[i].eval_partial(values, target)
            gens.append(evaluated - target.const(point[i]))
        return Ideal(target, gens)

    def __repr__(self):
        return f"CoAction({self.law!r} on {self.ring!r})"


def validate_action(action: CoAction) -> Report:
    """Unit axiom and exact left-action compatibility
    v_i(v(Z, B), A) = v_i(Z, m(A, B))."""
    report = Report("action")
    ring = action.ring
    law = action.law
    report.check_equal("unit-axiom", action.apply(ring.gens(), [ring.zero()] * law.s),
                       ring.gens(), ring.names)

    avoid = set(ring.names) | set(law.coords)
    first_names = fresh_names("a", law.s, avoid)
    second_names = fresh_names("b", law.s, avoid | set(first_names))
    ext = ring.extend(first_names + second_names)
    gens = ext.gens()
    Z, A, B = gens[:ring.nvars], gens[ring.nvars:-law.s], gens[-law.s:]
    report.check_equal("compatibility", action.apply(action.apply(Z, B), A),
                       action.apply(Z, law.multiply_tuples(A, B)), ring.names)
    report.info("fully-trivial", "true" if action.is_trivial() else "false")
    return report


# -- torus (Laurent) actions ---------------------------------------------------


class LaurentPoly:
    """Finite weight -> Polynomial map: sum_d comps[d] * w^d."""

    __slots__ = ("ring", "comps")

    def __init__(self, ring: PolyRing, comps: dict):
        self.ring = ring
        self.comps = {d: p for d, p in comps.items() if not p.is_zero()}

    @staticmethod
    def from_poly(p: Polynomial, weight: int = 0) -> "LaurentPoly":
        return LaurentPoly(p.ring, {weight: p})

    @staticmethod
    def zero(ring: PolyRing) -> "LaurentPoly":
        return LaurentPoly(ring, {})

    @staticmethod
    def constant(ring: PolyRing, value) -> "LaurentPoly":
        return LaurentPoly.from_poly(ring.const(value))

    def is_zero(self) -> bool:
        return not self.comps

    def shift(self, d: int) -> "LaurentPoly":
        return LaurentPoly(self.ring, {k + d: p for k, p in self.comps.items()})

    def at_one(self) -> Polynomial:
        return sum(self.comps.values(), self.ring.zero())

    def __add__(self, other):
        out = dict(self.comps)
        for d, p in other.comps.items():
            out[d] = out[d] + p if d in out else p
        return LaurentPoly(self.ring, out)

    def __neg__(self):
        return LaurentPoly(self.ring, {d: -p for d, p in self.comps.items()})

    def __mul__(self, other):
        out = {}
        for d1, p1 in self.comps.items():
            for d2, p2 in other.comps.items():
                d = d1 + d2
                prod = p1 * p2
                out[d] = out[d] + prod if d in out else prod
        return LaurentPoly(self.ring, out)

    def __pow__(self, n: int):
        base = self
        if n < 0:
            # only units c*w^d are invertible
            if len(self.comps) != 1 or not self.at_one().is_constant():
                raise AlgebraError("negative power of a non-unit Laurent polynomial")
            ((d, p),) = self.comps.items()
            c = self.ring.field.inv(p.constant_value())
            base, n = LaurentPoly(self.ring, {-d: self.ring.const(c)}), -n
        return power(base, n, LaurentPoly.from_poly(self.ring.one()))

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.ring == other.ring \
            and self.comps == other.comps

    def weights(self):
        return sorted(self.comps)

    def text(self) -> str:
        if not self.comps:
            return "0"
        parts = []
        for d in sorted(self.comps):
            poly = self.comps[d]
            if d == 0:
                parts.append(poly.text())
                continue
            w = "w" if d == 1 else f"w^{d}"
            body = poly.text()
            if body == "1":
                parts.append(w)
            elif len(poly.terms) == 1:
                parts.append(f"{w}*{body}" if not body.startswith("-")
                             else f"-{w}*{body[1:]}")
            else:
                parts.append(f"{w}*({body})")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.text()}>"


class GmCoAction:
    """Torus co-action: one Laurent polynomial per ring variable."""

    __slots__ = ("ring", "v")

    def __init__(self, ring: PolyRing, v):
        v = list(v)
        if len(v) != ring.nvars:
            raise ValidationError("co-action needs one Laurent polynomial per ring variable")
        self.ring = ring
        self.v = v

    def v_for(self, name: str) -> LaurentPoly:
        return self.v[self.ring.index(name)]

    def pushforward_poly(self, f: Polynomial) -> LaurentPoly:
        """Substitute z_i -> v_i inside Laurent arithmetic."""
        if f.ring != self.ring:
            raise AlgebraError("polynomial lives in a different ring than the action")
        one = LaurentPoly.from_poly(self.ring.one())
        tables = [power_table(v, d, one) for v, d in zip(self.v, map(max, zip(*f.terms)))]
        terms = (prod((table[e] for table, e in zip(tables, exps) if e),
                      start=LaurentPoly.constant(self.ring, c))
                 for exps, c in f.terms.items())
        return sum(terms, LaurentPoly.zero(self.ring))

    def __repr__(self):
        return f"GmCoAction on {self.ring!r}"


def validate_gm_action(action: GmCoAction) -> Report:
    """Unit axiom v_i(Z, 1) = z_i and torus compatibility
    v_i(v(Z, w2), w1) = v_i(Z, w1*w2), checked on bi-weight components."""
    report = Report("gm-action")
    report.check_equal("unit-axiom", [v.at_one() for v in action.v], action.ring.gens(),
                       action.ring.names)

    witness = None
    for name, v in zip(action.ring.names, action.v):
        lhs = {}
        for d1, comp in v.comps.items():
            for d2, p in action.pushforward_poly(comp).comps.items():
                lhs[d1, d2] = lhs[d1, d2] + p if (d1, d2) in lhs else p
        if {k: p for k, p in lhs.items() if p} != {(d, d): p for d, p in v.comps.items()}:
            witness = name
            break
    report.check("compatibility", witness is None, witness)
    return report


def gm_weight_components(action: GmCoAction, f) -> dict:
    """Weight decomposition of f.

    Polynomials always decompose; a rational function decomposes only when
    its denominator is itself a semi-invariant (single weight)."""
    if isinstance(f, Polynomial):
        return dict(sorted(action.pushforward_poly(f).comps.items()))
    if not isinstance(f, RationalFunction):
        raise ValidationError("expected a polynomial or rational function")
    den_comps = action.pushforward_poly(f.den).comps
    if len(den_comps) != 1:
        raise AlgebraError("denominator is not a semi-invariant; "
                           "no weight decomposition exists")
    ((dw, _),) = den_comps.items()
    num_comps = action.pushforward_poly(f.num).comps
    return {q - dw: RationalFunction(p, f.den) for q, p in sorted(num_comps.items())}


def is_semi_invariant(action: GmCoAction, g: Polynomial, h: Polynomial,
                      e: int, q: int) -> bool:
    """Whether g/h^e scales exactly by w^q under the torus action, that is
    pushforward(g)*h^e = g*pushforward(h)^e*w^q; both e-th powers are taken
    by squaring, so h^e is never pushed forward."""
    if h.is_zero():
        raise ValidationError("h must be nonzero")
    if e < 0:
        raise ValidationError("e must be non-negative")
    lhs = action.pushforward_poly(g) * LaurentPoly.from_poly(h) ** e
    rhs = (LaurentPoly.from_poly(g) * action.pushforward_poly(h) ** e).shift(q)
    return lhs == rhs
