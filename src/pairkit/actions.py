"""Co-actions of unipotent groups and of the multiplicative torus.

A unipotent co-action stores one polynomial v_i(Z, Y) per space variable,
in the combined ring k[Z, coords]; a torus co-action stores one Laurent
polynomial per space variable, as a weight -> polynomial map.
"""

from .errors import AlgebraError, ValidationError
from .gbasis import Ideal
from .groups import GroupLaw, mult_var_names
from .poly import Polynomial, PolyRing, RationalFunction, fresh_names
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
        if isinstance(f, Polynomial):
            f = RationalFunction.from_poly(f)
        return self.pushforward(f) == f.cast(self.big_ring)

    def stabilizer_ideal(self, point) -> Ideal:
        """<v_i(x, Y) - x_i> in k[coords]; the reduced basis equals the list
        of coordinates exactly when the stabilizer is trivial."""
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
    origin = {name: law.field.zero() for name in law.coords}
    unit_ok = True
    unit_witness = None
    for i, name in enumerate(ring.names):
        at_zero = action.v[i].eval_partial(origin, ring)
        if at_zero != ring.var(name):
            unit_ok = False
            unit_witness = f"{name}: {(at_zero - ring.var(name)).text()}"
            break
    report.check("unit-axiom", unit_ok, unit_witness)

    avoid = set(ring.names) | set(law.coords)
    first_names = fresh_names("a", law.s, avoid)
    second_names = fresh_names("b", law.s, avoid | set(first_names))
    ext = PolyRing(ring.names + tuple(first_names) + tuple(second_names), law.field)
    z_vars = {n: ext.var(n) for n in ring.names}
    v_second = [p.cast(ext, rename=dict(zip(law.coords, second_names))) for p in action.v]
    a_names, b_names = mult_var_names(law.s)
    m_images = [m.cast(ext, rename=dict(zip(a_names + b_names,
                                            first_names + second_names)))
                for m in law.mult]
    compat_ok = True
    compat_witness = None
    for i, name in enumerate(ring.names):
        lhs = action.v[i].subs_poly({
            **{zn: v_second[ring.index(zn)] for zn in ring.names},
            **dict(zip(law.coords, [ext.var(n) for n in first_names]))})
        rhs = action.v[i].subs_poly({**z_vars, **dict(zip(law.coords, m_images))})
        if lhs != rhs:
            compat_ok = False
            compat_witness = f"{name}: {(lhs - rhs).text()}"
            break
    report.check("compatibility", compat_ok, compat_witness)
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
        total = self.ring.zero()
        for p in self.comps.values():
            total = total + p
        return total

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
        result = LaurentPoly.from_poly(self.ring.one())
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

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
        return f._substitute(dict(zip(self.ring.names, self.v)), LaurentPoly.constant)

    def __repr__(self):
        return f"GmCoAction on {self.ring!r}"


def validate_gm_action(action: GmCoAction) -> Report:
    """Unit axiom v_i(Z, 1) = z_i and torus compatibility
    v_i(v(Z, w2), w1) = v_i(Z, w1*w2), checked on bi-weight components."""
    report = Report("gm-action")
    unit_ok = True
    unit_witness = None
    for i, name in enumerate(action.ring.names):
        if action.v[i].at_one() != action.ring.var(name):
            unit_ok = False
            unit_witness = f"{name}: {(action.v[i].at_one() - action.ring.var(name)).text()}"
            break
    report.check("unit-axiom", unit_ok, unit_witness)

    compat_ok = True
    compat_witness = None
    for i, name in enumerate(action.ring.names):
        lhs = {}
        for d1, comp in action.v[i].comps.items():
            pushed = action.pushforward_poly(comp)
            for d2, p in pushed.comps.items():
                key = (d1, d2)
                lhs[key] = lhs[key] + p if key in lhs else p
        lhs = {k: p for k, p in lhs.items() if not p.is_zero()}
        rhs = {(d, d): p for d, p in action.v[i].comps.items()}
        if lhs != rhs:
            compat_ok = False
            compat_witness = name
            break
    report.check("compatibility", compat_ok, compat_witness)
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
    """Whether g/h^e scales exactly by w^q under the torus action."""
    if h.is_zero():
        raise ValidationError("h must be nonzero")
    if e < 0:
        raise ValidationError("e must be non-negative")
    he = h ** e
    lhs = action.pushforward_poly(g) * LaurentPoly.from_poly(he)
    rhs = (LaurentPoly.from_poly(g) * action.pushforward_poly(he)).shift(q)
    return lhs == rhs
