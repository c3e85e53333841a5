"""Co-actions of unipotent groups and of the multiplicative torus.

Both kinds share one base: the coordinate ring A = k[Z]/I they act on (k[Z]
and the generators of the relation ideal I), one image per space variable in
k[Z, coords], `pushforward`, and `BaseCoAction.residue`, the one place
equality in A is decided.  A unipotent co-action stores polynomials
v_i(Z, Y).  A torus co-action stores Laurent polynomials as the fractions
F / w^k of k[Z, w] (w last, F not divisible by w unless k = 0), so both run
on one substitution kernel and one axiom check; `laurent_components` reads
off the torus weights.
"""

from .errors import AlgebraError, ValidationError
from .groups import GroupLaw
from .poly import Polynomial, PolyRing, RationalFunction, fresh_names
from .report import Report


class BaseCoAction:
    """A co-action on A = k[Z]/I.  A subclass sets `title` and defines how it
    checks and substitutes its images, and its group's identity, product and
    `fresh_points`, the coordinate names of two generic points."""

    __slots__ = ("ring", "coords", "big_ring", "v", "relations", "_basis")

    def __init__(self, ring: PolyRing, coords, v, relations):
        v = list(v)
        if len(v) != ring.nvars:
            raise ValidationError("co-action needs one image per ring variable")
        self.ring = ring
        self.coords = tuple(coords)
        self.big_ring = ring.extend(self.coords)
        self.v = [self._checked(name, f) for name, f in zip(ring.names, v)]
        self.relations = [r.cast(ring) for r in relations]
        self._basis = None

    def v_for(self, name: str):
        return self.v[self.ring.index(name)]

    def apply(self, z, y):
        """v(z, y): the images with the space variables replaced by the tuple
        z and the group coordinates by the tuple y."""
        images = dict(zip(self.ring.names, z))
        images.update(zip(self.coords, y))
        return [self._substituted(p, images) for p in self.v]

    def pushforward(self, f) -> RationalFunction:
        """f(v(Z, Y)), a fraction of k[Z, coords], for a polynomial or
        rational function f of k[Z]."""
        if isinstance(f, Polynomial):
            f = RationalFunction.from_poly(f)
        if f.ring != self.ring:
            raise AlgebraError("function lives in a different ring than the action")
        return self._substituted(f, dict(zip(self.ring.names, self.v)))

    def residue(self, lhs, rhs) -> Polynomial:
        """The cross-multiplied numerator of lhs - rhs in normal form modulo I,
        zero exactly when lhs = rhs in A (in A[Y] on k[Z, coords]); rhs is cast
        into lhs's ring.  The reduced grevlex basis of I is built in k[Z] once,
        at the first nonzero numerator, and cast into the numerator's ring."""
        ring = lhs.ring
        lhs = RationalFunction.from_poly(lhs) if isinstance(lhs, Polynomial) else lhs
        rhs = RationalFunction.one(ring) * rhs.cast(ring)     # rhs may be a polynomial
        diff = lhs.num * rhs.den - rhs.num * lhs.den
        if diff.is_zero() or not self.relations:
            return diff
        from .gbasis import Ideal, groebner, normal_form
        self._basis = self._basis or groebner(Ideal(self.ring, self.relations))
        return normal_form(diff, self._basis.cast(ring))

    def equal(self, got, expected) -> bool:
        """Whether two tuples agree in A componentwise: as written or, if I != 0, by `residue`."""
        return all(g == e or (self.relations and not self.residue(g, e))
                   for g, e in zip(got, expected))

    def is_invariant(self, f) -> bool:
        """Whether v(f) = f in A[Y], that is modulo I."""
        return not self.residue(self.pushforward(f), f)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(self.coords)} on {self.ring!r})"


class CoAction(BaseCoAction):
    """Unipotent co-action: one polynomial v_i(Z, Y) of k[Z, coords] per
    ring variable, for the group law `law`."""

    __slots__ = ("law",)
    title = "action"

    def __init__(self, law: GroupLaw, ring: PolyRing, v, relations):
        if set(ring.names) & set(law.coords):
            raise ValidationError("group coordinate names collide with ring variables")
        if ring.field != law.field:
            raise ValidationError("action ring and group law use different fields")
        self.law = law
        super().__init__(ring, law.coords, v, relations)

    def _checked(self, name, f):
        return f.cast(self.big_ring)

    @staticmethod
    def _substituted(p, images):
        """p at polynomial images by `subs_poly`; a fraction stays one."""
        if isinstance(p, Polynomial):
            return p.subs_poly(images)
        return RationalFunction(p.num.subs_poly(images), p.den.subs_poly(images))

    def identity(self, ring):
        return [ring.zero()] * self.law.s

    def multiply(self, u, v):
        return self.law.multiply_tuples(u, v)

    def fresh_points(self, avoid):
        first = fresh_names("a", self.law.s, avoid)
        return first, fresh_names("b", self.law.s, avoid | set(first))

    def is_trivial(self) -> bool:
        """Whether v(Z, Y) = Z in A[Y]."""
        return self.equal(self.v, self.big_ring.gens()[:self.ring.nvars])

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


class GmCoAction(BaseCoAction):
    """Torus co-action: one Laurent polynomial F / w^k of k[Z, w] per ring
    variable, w last; G_m has the identity 1 and the product w1*w2."""

    __slots__ = ()
    title = "gm-action"

    def __init__(self, ring: PolyRing, v, relations):
        super().__init__(ring, ["w"], v, relations)

    def _checked(self, name, f):
        if f.ring != self.big_ring:
            raise ValidationError(f"image of {name} lies in {f.ring!r}, not in {self.big_ring!r}")
        (exps, c), *rest = f.den.terms.items()
        if rest or c != 1 or any(exps[:-1]):
            raise ValidationError(f"image of {name} is not a Laurent polynomial: its "
                                  f"denominator {f.den.text()} is not a power of w")
        return f

    @staticmethod
    def _substituted(p, images):
        return p.subs_rational(images)

    def identity(self, ring):
        return [ring.one()]

    def multiply(self, u, v):
        return [u[0] * v[0]]

    def fresh_points(self, avoid):
        w1, w2 = fresh_names("w", 2, avoid)
        return [w1], [w2]


def validate_action(action: BaseCoAction) -> Report:
    """The unit axiom v(Z, e) = Z, compatibility v(v(Z, B), A) = v(Z, m(A, B))
    and, when I != 0, that v maps I into I[Y] (v(r) = r for each generator
    r): each one identity of tuples in A, decided by `residue`."""
    report = Report(action.title)
    ring = action.ring
    report.check_equal("unit-axiom", action.apply(ring.gens(), action.identity(ring)),
                       ring.gens(), action.residue, ring.names)

    first, second = action.fresh_points(set(ring.names) | set(action.coords))
    ext = ring.extend(first + second)
    Z, A, B = ([ext.var(n) for n in names] for names in (ring.names, first, second))
    report.check_equal("compatibility", action.apply(action.apply(Z, B), A),
                       action.apply(Z, action.multiply(A, B)), action.residue, ring.names)
    if action.relations:
        report.check_equal("ideal-preserved", map(action.pushforward, action.relations),
                           action.relations, action.residue)
    if isinstance(action, CoAction):
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


def gm_weight_components(action: GmCoAction, f) -> dict:
    """Weight decomposition of f.

    Polynomials always decompose; a rational function decomposes only when
    its denominator is itself a semi-invariant (single weight)."""
    if isinstance(f, Polynomial):
        return laurent_components(action.pushforward(f), action.ring)
    if not isinstance(f, RationalFunction):
        raise ValidationError("expected a polynomial or rational function")
    den_comps = laurent_components(action.pushforward(f.den), action.ring)
    if len(den_comps) != 1:
        raise AlgebraError("denominator is not a semi-invariant; "
                           "no weight decomposition exists")
    (dw,) = den_comps
    num_comps = laurent_components(action.pushforward(f.num), action.ring)
    return {q - dw: RationalFunction(p, f.den) for q, p in num_comps.items()}


def is_semi_invariant(action: GmCoAction, g: Polynomial, h: Polynomial,
                      e: int, q: int) -> bool:
    """Whether g/h^e scales exactly by w^q under the torus action, that is
    pushforward(g)*h^e = g*pushforward(h)^e*w^q in A[w, 1/w], decided by
    `residue` modulo I; both e-th powers are taken by squaring, so h^e is
    never pushed forward."""
    if h.is_zero():
        raise ValidationError("h must be nonzero")
    if e < 0:
        raise ValidationError("e must be non-negative")
    ext = action.big_ring
    w = RationalFunction.from_poly(ext.var("w"))
    return not action.residue(action.pushforward(g) * h.cast(ext) ** e,
                              action.pushforward(h) ** e * g.cast(ext) * w ** q)
