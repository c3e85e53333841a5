"""Co-actions of unipotent groups and of the multiplicative torus.

Each co-action owns the coordinate ring A = k[Z]/I it acts on: the ring
k[Z] and the generators of the relation ideal I, and `CoAction.residue` is
the one place equality in A is decided.  A unipotent co-action stores one
polynomial v_i(Z, Y) per space variable, in the combined ring k[Z, coords].
A torus co-action stores one Laurent polynomial per space variable, as the
rational function F / w^k of k[Z, w] (w last, F not divisible by w unless
k = 0), so it runs on the same substitution kernel and the same identity
checks; `laurent_components` reads off its weights.
"""

from .errors import AlgebraError, ValidationError
from .groups import GroupLaw
from .poly import Polynomial, PolyRing, RationalFunction, fresh_names
from .report import Report


class CoAction:
    __slots__ = ("law", "ring", "big_ring", "v", "relations", "_basis")

    def __init__(self, law: GroupLaw, ring: PolyRing, v, relations):
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
        self.relations = [r.cast(ring) for r in relations]
        self._basis = None

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

    def residue(self, lhs: RationalFunction, rhs) -> Polynomial:
        """The cross-multiplied numerator of lhs - rhs in normal form modulo I,
        zero exactly when lhs = rhs in A (in A[Y] on k[Z, coords]); rhs is cast
        into lhs's ring.  The reduced grevlex basis of I is built in k[Z] once,
        at the first nonzero numerator, and cast into the numerator's ring:
        grevlex there restricts to grevlex on k[Z], so the leads stay leads."""
        from .gbasis import GroebnerBasis, Ideal, groebner, normal_form
        ring = lhs.ring
        rhs = RationalFunction.one(ring) * rhs.cast(ring)     # rhs may be a polynomial
        diff = lhs.num * rhs.den - rhs.num * lhs.den
        if diff.is_zero() or not self.relations:
            return diff
        self._basis = self._basis or groebner(Ideal(self.ring, self.relations))
        basis = GroebnerBasis(ring, self._basis.order, [p.cast(ring) for p in self._basis])
        return normal_form(diff, basis)

    def is_invariant(self, f) -> bool:
        """Whether v(f) = f in A[Y], that is modulo I."""
        return not self.residue(self.pushforward(f), f)

    def stabilizer_ideal(self, point) -> "Ideal":
        """<v_i(x, Y) - x_i> in k[coords]; the reduced basis equals the list
        of coordinates exactly when the stabilizer is trivial."""
        from .gbasis import Ideal
        point = list(point)
        if len(point) != self.ring.nvars:
            raise ValidationError(f"point arity must be {self.ring.nvars}")
        target = self.law.coords_ring
        x = [target.const(c) for c in point]
        return Ideal(target, [vi - xi for vi, xi in zip(self.apply(x, target.gens()), x)])

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


def laurent_components(f: RationalFunction, ring: PolyRing) -> dict:
    """Weight d -> the coefficient of w^d, a polynomial of `ring`, for the
    Laurent polynomial f = F / w^k of ring.extend(["w"]) (w last): the
    coefficient of w^(d+k) in F, in ascending order of d."""
    ((den, _),) = f.den.terms.items()       # the monic w^k
    comps = {}
    for exps, c in f.num.terms.items():
        comps.setdefault(exps[-1] - den[-1], {})[exps[:-1]] = c
    return {d: Polynomial(ring, comps[d]) for d in sorted(comps)}


def laurent_text(f: RationalFunction, ring: PolyRing) -> str:
    """Canonical text of a Laurent polynomial: its weight components in
    ascending order, each as `w^d*(...)`, a bare component for d = 0."""
    parts = []
    for d, poly in laurent_components(f, ring).items():
        body = poly.text()
        w = "w" if d == 1 else f"w^{d}"
        if d == 0:
            parts.append(body)
        elif body == "1":
            parts.append(w)
        elif len(poly.terms) == 1:
            parts.append(f"-{w}*{body[1:]}" if body.startswith("-") else f"{w}*{body}")
        else:
            parts.append(f"{w}*({body})")
    return " + ".join(parts) or "0"


class GmCoAction:
    """Torus co-action: one Laurent polynomial F / w^k of k[Z, w] per ring
    variable, w the ring's last variable."""

    __slots__ = ("ring", "v", "relations")

    def __init__(self, ring: PolyRing, v, relations):
        v = list(v)
        if len(v) != ring.nvars:
            raise ValidationError("co-action needs one Laurent polynomial per ring variable")
        ext = ring.extend(["w"])
        for name, f in zip(ring.names, v):
            if f.ring != ext:
                raise ValidationError(f"image of {name} lies in {f.ring!r}, not in {ext!r}")
            (exps, c), *rest = f.den.terms.items()
            if rest or c != 1 or any(exps[:-1]):
                raise ValidationError(f"image of {name} is not a Laurent polynomial: its "
                                      f"denominator {f.den.text()} is not a power of w")
        self.ring = ring
        self.v = v
        self.relations = [r.cast(ring) for r in relations]

    def v_for(self, name: str) -> RationalFunction:
        return self.v[self.ring.index(name)]

    def apply(self, z, w):
        """v(z, w): the co-action fractions with the space variables replaced
        by the tuple z and the weight variable by w."""
        images = dict(zip(self.ring.names, z), w=w)
        return [p.subs_rational(images) for p in self.v]

    def pushforward_poly(self, f: Polynomial) -> RationalFunction:
        """f(v(Z, w)), the Laurent polynomial F / w^k of k[Z, w]."""
        if f.ring != self.ring:
            raise AlgebraError("polynomial lives in a different ring than the action")
        return f.subs_rational(dict(zip(self.ring.names, self.v)))

    def __repr__(self):
        return f"GmCoAction on {self.ring!r}"


def validate_gm_action(action: GmCoAction) -> Report:
    """Unit axiom v(Z, 1) = Z and torus compatibility
    v(v(Z, w2), w1) = v(Z, w1*w2), each one identity of fractions."""
    report = Report("gm-action")
    ring = action.ring
    report.check_equal("unit-axiom", action.apply(ring.gens(), ring.one()), ring.gens(),
                       ring.names)

    ext = ring.extend(fresh_names("w", 2, ring.names))
    *Z, w1, w2 = ext.gens()
    report.check_equal("compatibility", action.apply(action.apply(Z, w2), w1),
                       action.apply(Z, w1 * w2), ring.names)
    return report


def gm_weight_components(action: GmCoAction, f) -> dict:
    """Weight decomposition of f.

    Polynomials always decompose; a rational function decomposes only when
    its denominator is itself a semi-invariant (single weight)."""
    if isinstance(f, Polynomial):
        return laurent_components(action.pushforward_poly(f), action.ring)
    if not isinstance(f, RationalFunction):
        raise ValidationError("expected a polynomial or rational function")
    den_comps = laurent_components(action.pushforward_poly(f.den), action.ring)
    if len(den_comps) != 1:
        raise AlgebraError("denominator is not a semi-invariant; "
                           "no weight decomposition exists")
    (dw,) = den_comps
    num_comps = laurent_components(action.pushforward_poly(f.num), action.ring)
    return {q - dw: RationalFunction(p, f.den) for q, p in num_comps.items()}


def is_semi_invariant(action: GmCoAction, g: Polynomial, h: Polynomial,
                      e: int, q: int) -> bool:
    """Whether g/h^e scales exactly by w^q under the torus action, that is
    pushforward(g)*h^e = g*pushforward(h)^e*w^q as fractions of k[Z, w];
    both e-th powers are taken by squaring, so h^e is never pushed
    forward."""
    if h.is_zero():
        raise ValidationError("h must be nonzero")
    if e < 0:
        raise ValidationError("e must be non-negative")
    ext = action.ring.extend(["w"])
    w = RationalFunction.from_poly(ext.var("w"))
    return action.pushforward_poly(g) * h.cast(ext) ** e == \
        action.pushforward_poly(h) ** e * g.cast(ext) * w ** q
