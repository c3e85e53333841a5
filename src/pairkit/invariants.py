"""The generalized van den Essen/Dixmier construction and its companions:
factoring an action through ker(alpha), generator verification, finite
presentations, cross sections, Nagata actions, and the Mukai predicate.

The localized invariant ring of a principle pair is returned as the n
substituted co-action polynomials f_i = v_i(Z, b) together with the
designated inverted element Hbar = prod h_i(f); the invariant ring equals
k[f_1..f_n] after inverting Hbar.
"""

from fractions import Fraction

from .actions import CoAction, validate_action
from .errors import AlgebraError, InternalCheckError, ValidationError
from .fields import QQ
from .gbasis import Ideal, buchberger, eliminate, poly_divmod, reduce_full
from .groups import (Endomorphism, GroupLaw, is_surjective, mult_var_names,
                     validate_group_law)
from .linalg import ExactMatrix
from .orders import BlockOrder
from .pairs import AlphaPair, graph_ideal, kernel_acts_trivially
from .poly import Polynomial, PolyRing, RationalFunction, fresh_names
from .problem import ProblemFile
from .report import Report


class InvariantBasis:
    """Generators of the localized invariant ring produced by a principle pair."""

    __slots__ = ("action", "pair", "f", "numerators", "powers", "Hbar")

    def __init__(self, action, pair, f, numerators, powers, Hbar):
        self.action = action
        self.pair = pair
        self.f = f
        self.numerators = numerators    # f_i = numerators[i] / H^powers[i]
        self.powers = powers
        self.Hbar = Hbar

    def substitution(self):
        """Variable -> f_i map for evaluating functions at the generators."""
        return dict(zip(self.action.ring.names, self.f))


def _present_over_H(f: RationalFunction, H: Polynomial):
    """Minimal e with f = numerator / H^e; exists because f lies in A_H."""
    if f.den.is_one():
        return f.num, 0
    cap = f.den.total_degree() + 1
    shifted = f.num
    for e in range(cap + 1):
        quotients, remainder = poly_divmod(shifted, [f.den])
        if remainder.is_zero():
            return quotients[0], e
        shifted = shifted * H
    raise InternalCheckError(
        f"denominator {f.den.text()} does not divide any H-power multiple "
        f"of {f.num.text()}")


def dixmier_generators(action: CoAction, pair: AlphaPair) -> InvariantBasis:
    """f_i = v_i(Z, b) for b the group inverse of the pair tuple.

    Every f_i must pass is_invariant (hard postcondition); the result also
    carries the denominator-power bookkeeping and Hbar = prod h_i(f).
    """
    if not (pair.checked and pair.verified and pair.principle):
        raise ValidationError("dixmier_generators requires a verified principle pair")
    law = pair.law
    ring = action.ring
    b = law.invert_tuple(pair.fractions())
    assignment = {name: RationalFunction.from_poly(ring.var(name))
                  for name in ring.names}
    assignment.update(dict(zip(law.coords, b)))
    f = [v.subs_rational(assignment) for v in action.v]

    for name, fi in zip(ring.names, f):
        if not action.is_invariant(fi):
            raise AlgebraError(
                f"dixmier postcondition failed: f for {name} = {fi.text()} is not "
                "invariant (the input pair or action is inconsistent)")

    H = pair.H
    numerators, powers = [], []
    for fi in f:
        num, e = _present_over_H(fi, H)
        numerators.append(num)
        powers.append(e)

    Hbar = RationalFunction.one(ring)
    f_map = dict(zip(ring.names, f))
    for h in pair.h:
        Hbar = Hbar * h.subs_rational(f_map)
    return InvariantBasis(action, pair, f, numerators, powers, Hbar)


def verify_generators(action: CoAction, basis: InvariantBasis, probes) -> Report:
    """Check r = r(f_1..f_n) exactly for each invariant probe r."""
    report = Report("generators")
    f_map = basis.substitution()
    for probe in probes:
        if isinstance(probe, Polynomial):
            probe = RationalFunction.from_poly(probe)
        if not action.is_invariant(probe):
            raise ValidationError(f"probe {probe.text()} is not invariant")
        evaluated = probe.subs_rational(f_map)
        diff = evaluated.num * probe.den - probe.num * evaluated.den
        report.check(f"probe[{probe.text()}]", diff.is_zero(),
                     None if diff.is_zero() else diff.text())
    return report


def relations_presentation(basis: InvariantBasis) -> Ideal:
    """Kernel of W_i -> f_i: all relations among the generators, by
    elimination with an auxiliary denominator-inverting variable."""
    return eliminate(*graph_ideal(basis.f, "W"))


def cross_section_ideal(pair: AlphaPair) -> Ideal:
    """<g_1,...,g_s>; V of it inside D(H) is the cross section K."""
    if not (pair.checked and pair.verified and pair.principle):
        raise ValidationError("cross_section_ideal requires a verified principle pair")
    ring = pair.g[0].ring
    return Ideal(ring, list(pair.g))


def stabilizer_is_trivial(action: CoAction, point) -> bool:
    basis = buchberger(action.stabilizer_ideal(point).nonzero_gens())
    expected = sorted(p.text() for p in action.law.coords_ring.gens())
    return sorted(p.text() for p in basis) == expected


def cross_section_report(action: CoAction, pair: AlphaPair, points=()) -> Report:
    """Cross-section ideal, the non-vanishing certificate H, and stabilizer
    triviality at the supplied points of K."""
    ideal = cross_section_ideal(pair)
    report = Report("cross-section")
    for i, g in enumerate(ideal.gens, start=1):
        report.info(f"generator{i}", g.text())
    report.info("H", pair.H.text())
    values_of = lambda pt: dict(zip(action.ring.names, pt))
    for pt in points:
        label = "(" + ", ".join(str(c) for c in pt) + ")"
        on_K = all(not g.evaluate(values_of(pt)) for g in ideal.gens) \
            and bool(pair.H.evaluate(values_of(pt)))
        if not on_K:
            report.info(f"point{label}", "not on the cross section")
            continue
        report.check(f"stabilizer-trivial{label}", stabilizer_is_trivial(action, pt))
    return report


# -- factoring through the kernel ------------------------------------------------


def _rewrite_through(polys, generators_of, front_names, ring: PolyRing,
                     forbidden, what: str):
    """Normal forms of `polys` against <x - image(x)> under front >> back;
    residual dependence on `forbidden` raises."""
    front = [ring.index(n) for n in front_names]
    order = BlockOrder(front, ring.nvars)
    basis = buchberger(generators_of, order)
    out = []
    for p in polys:
        reduced = reduce_full(p, basis, order) if basis else p
        left = reduced.variables_used() & set(forbidden)
        if left:
            raise ValidationError(
                f"{what} cannot be rewritten through alpha: residual "
                f"dependence on {sorted(left)} in {reduced.text()}")
        out.append(reduced)
    return out


def factor_through_kernel(action: CoAction, alpha: Endomorphism):
    """Induced co-action of G = G/ker(alpha) on fresh coordinates U, with
    v_i(Z, Y) = v'_i(Z, alpha#(Y)) as exact identities.

    Returns (new CoAction, Report).  The induced group law is recomputed by
    the same rewriting and re-validated rather than assumed.
    """
    law = alpha.law
    if not is_surjective(law, alpha):
        raise ValidationError("factor_through_kernel requires a surjective alpha")
    if not kernel_acts_trivially(action, alpha):
        raise ValidationError("ker(alpha) does not act trivially; "
                              "the action does not factor")
    ring = action.ring
    field = ring.field
    u_names = fresh_names("u", law.s, set(ring.names) | set(law.coords))

    # co-action: rewrite v_i over <u_j - alpha_j(Y)> with Y >> (Z, U)
    big = PolyRing(ring.names + law.coords + tuple(u_names), field)
    gens = [big.var(u) - a.cast(big) for u, a in zip(u_names, alpha.phi)]
    v_new = _rewrite_through([v.cast(big) for v in action.v], gens, law.coords,
                             big, law.coords, "co-action")
    new_ring_full = PolyRing(ring.names + tuple(u_names), field)
    v_new = [p.cast(new_ring_full) for p in v_new]

    # induced multiplication: rewrite alpha(m(A, B)) over the alpha-images of
    # both factors, then rename the primed variables to the standard a/b ones
    a_names, b_names = mult_var_names(law.s)
    ap_names = fresh_names("ap", law.s, a_names + b_names, numbered=True)
    bp_names = fresh_names("bp", law.s, a_names + b_names + ap_names,
                           numbered=True)
    big2 = PolyRing(tuple(a_names + b_names) + tuple(ap_names + bp_names), field)
    alpha_a = [p.cast(big2, rename=dict(zip(law.coords, a_names))) for p in alpha.phi]
    alpha_b = [p.cast(big2, rename=dict(zip(law.coords, b_names))) for p in alpha.phi]
    gens2 = [big2.var(ap) - img for ap, img in zip(ap_names, alpha_a)]
    gens2 += [big2.var(bp) - img for bp, img in zip(bp_names, alpha_b)]
    q = [p.subs_poly(dict(zip(law.coords, law.mult))).cast(big2) for p in alpha.phi]
    m_new = _rewrite_through(q, gens2, a_names + b_names, big2,
                             a_names + b_names, "multiplication")
    mult_ring = PolyRing(a_names + b_names, field)
    m_new = [p.cast(mult_ring, rename=dict(zip(ap_names + bp_names,
                                               a_names + b_names))) for p in m_new]

    # induced inversion: rewrite alpha(inv(T)) over <u - alpha(T)>
    big3 = PolyRing(law.coords + tuple(u_names), field)
    gens3 = [big3.var(u) - a.cast(big3) for u, a in zip(u_names, alpha.phi)]
    q_inv = [p.subs_poly(dict(zip(law.coords, law.inv))).cast(big3) for p in alpha.phi]
    inv_new = _rewrite_through(q_inv, gens3, law.coords, big3, law.coords, "inversion")
    new_coords_ring = PolyRing(u_names, field)
    inv_new = [p.cast(new_coords_ring) for p in inv_new]

    new_law = GroupLaw(u_names, field, m_new, inv_new)
    new_action = CoAction(new_law, ring, [p for p in v_new])

    report = Report("factor-through-kernel")
    law_report = validate_group_law(new_law)
    report.check("induced-law-valid", law_report.passed,
                 ", ".join(law_report.failures) or None)
    action_report = validate_action(new_action)
    report.check("induced-action-valid", action_report.passed,
                 ", ".join(action_report.failures) or None)

    # defining identity v_i(Z, Y) = v'_i(Z, alpha#(Y))
    check_ring = PolyRing(ring.names + law.coords, field)
    identity_ok = True
    witness = None
    for name, v_prime in zip(ring.names, new_action.v):
        mapping = {zn: check_ring.var(zn) for zn in ring.names}
        mapping.update({u: a.cast(check_ring) for u, a in zip(u_names, alpha.phi)})
        recomposed = v_prime.subs_poly(mapping)
        original = action.v_for(name).cast(check_ring)
        if recomposed != original:
            identity_ok = False
            witness = f"{name}: {(recomposed - original).text()}"
            break
    report.check("defining-identity", identity_ok, witness)
    if not report.passed:
        raise InternalCheckError("factor_through_kernel self-checks failed: "
                                 + ", ".join(report.failures))
    return new_action, report


def induced_problem(problem: ProblemFile, new_action: CoAction) -> ProblemFile:
    """Problem file for the induced action: same ring and pairs, no endo."""
    return ProblemFile(problem.field, problem.ring, list(problem.relations),
                       new_action.law, None, new_action, dict(problem.pairs),
                       list(problem.points))


# -- Nagata actions ----------------------------------------------------------------


class NagataSpec:
    """Parameters (n, r) with n points of affine r-space in general position."""

    __slots__ = ("n", "r", "points")

    def __init__(self, n: int, r: int, points):
        if not 0 < r < n:
            raise ValidationError("need 0 < r < n")
        points = [list(row) for row in points]
        if len(points) != n or any(len(row) != r for row in points):
            raise ValidationError(f"need {n} points with {r} coordinates each")
        self.n = n
        self.r = r
        self.points = [[Fraction(v) for v in row] for row in points]
        self._check_general_position()

    def _check_general_position(self):
        from itertools import combinations
        rows = [tuple(row) for row in self.points]
        for i, j in combinations(range(self.n), 2):
            if rows[i] == rows[j]:
                raise ValidationError(
                    f"degenerate points: rows {i + 1} and {j + 1} coincide")
        for subset in combinations(range(self.n), self.r):
            minor = ExactMatrix(QQ, [self.points[i] for i in subset])
            if minor.rank() < self.r:
                rows_text = ", ".join(str(i + 1) for i in subset)
                raise ValidationError(
                    f"degenerate points: rows ({rows_text}) give a zero minor")


def nagata_build(spec: NagataSpec) -> ProblemFile:
    """The Nagata action of the vector subgroup cut out by the points.

    Group coordinates parameterize t = N*s for N the RREF nullspace basis of
    the transposed point matrix; the emitted pair system takes the rows where
    N is the identity block (the free-variable rows), which is principle with
    no change of coordinates.
    """
    n, r = spec.n, spec.r
    s = n - r
    transpose = ExactMatrix(QQ, [[spec.points[i][j] for i in range(n)]
                                 for j in range(r)])
    basis_vectors = transpose.nullspace()
    if len(basis_vectors) != s:
        raise ValidationError("point matrix does not have full rank")
    _, pivots = transpose.rref()
    free_rows = [i for i in range(n) if i not in set(pivots)]

    ring = PolyRing([f"x{i}" for i in range(1, 2 * n + 1)], QQ)
    coord_names = fresh_names("s", s, ring.names)
    a_names, b_names = mult_var_names(s)
    mult_ring = PolyRing(a_names + b_names, QQ)
    coords_ring = PolyRing(coord_names, QQ)
    law = GroupLaw(coord_names, QQ,
                   [mult_ring.var(a) + mult_ring.var(b)
                    for a, b in zip(a_names, b_names)],
                   [-coords_ring.var(c) for c in coord_names])

    big = PolyRing(ring.names + tuple(coord_names), QQ)
    v = [big.var(f"x{i}") for i in range(1, n + 1)]
    for i in range(n):
        translation = big.zero()
        for m, vec in enumerate(basis_vectors):
            translation = translation + big.var(coord_names[m]).scale(vec[i])
        v.append(big.var(f"x{n + i + 1}") + translation * big.var(f"x{i + 1}"))
    action = CoAction(law, ring, v)

    g = [ring.var(f"x{n + i + 1}") for i in free_rows]
    h = [ring.var(f"x{i + 1}") for i in free_rows]
    return ProblemFile(QQ, ring, [], law, None, action, {1: (g, h)}, [])


def nagata_oracle_invariants(spec: NagataSpec, problem: ProblemFile):
    """The classical generators on D(x_1...x_n): the first n coordinates and
    one point-weighted sum per column; each is checked invariant."""
    ring = problem.ring
    n, r = spec.n, spec.r
    out = [RationalFunction.from_poly(ring.var(f"x{i}")) for i in range(1, n + 1)]
    for j in range(r):
        total = ring.zero()
        for i in range(n):
            term = ring.var(f"x{n + i + 1}").scale(QQ.from_fraction(spec.points[i][j]))
            for l in range(n):
                if l != i:
                    term = term * ring.var(f"x{l + 1}")
            total = total + term
        out.append(RationalFunction.from_poly(total))
    for probe in out:
        if not problem.action.is_invariant(probe):
            raise InternalCheckError(f"oracle invariant {probe.text()} failed "
                                     "the invariance check")
    return out


def mukai_predicate(n: int, r: int) -> bool:
    """Finite generation of the Nagata invariant ring: 1/r + 1/(n-r) >= 1/2,
    decided by exact rational comparison."""
    if not 0 < r < n:
        raise ValidationError("need 0 < r < n")
    return Fraction(1, r) + Fraction(1, n - r) >= Fraction(1, 2)
