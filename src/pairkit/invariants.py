"""The generalized van den Essen/Dixmier construction and its companions:
factoring an action through ker(alpha), generator verification, finite
presentations, cross sections, Nagata actions, and the Mukai predicate.

The localized invariant ring of a principle pair is returned as the n
substituted co-action polynomials f_i = v_i(Z, b) together with the
designated inverted element Hbar = prod h_i(f); the invariant ring equals
k[f_1..f_n] after inverting Hbar.
"""

import math

from .actions import CoAction, validate_action
from .errors import AlgebraError, InternalCheckError, ValidationError
from .fields import QQ, rational
from .gbasis import Ideal, eliminate, groebner, normal_form, poly_divmod
from .groups import (Endomorphism, GroupLaw, is_surjective, mult_var_names,
                     validate_endomorphism, validate_group_law)
from .linalg import ExactMatrix, formal_jacobian_rank
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

    Every f_i must be invariant modulo the action's relations (hard
    postcondition); the result also carries the denominator-power
    bookkeeping and Hbar = prod h_i(f).
    """
    if not pair.principle:
        raise ValidationError("dixmier_generators requires a verified principle pair")
    law = pair.law
    ring = action.ring
    b = law.invert_tuple(pair.fractions())
    assignment = dict(zip(ring.names + law.coords, ring.gens() + b))
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

    f_map = dict(zip(ring.names, f))
    Hbar = math.prod((h.subs_rational(f_map) for h in pair.h),
                     start=RationalFunction.one(ring))
    return InvariantBasis(action, pair, f, numerators, powers, Hbar)


def verify_generators(action: CoAction, basis: InvariantBasis, probes) -> Report:
    """Check r = r(f_1..f_n) in A for each probe r invariant in A[Y]."""
    report = Report("generators")
    f_map = basis.substitution()
    for probe in probes:
        if not action.is_invariant(probe):
            raise ValidationError(f"probe {probe.text()} is not invariant")
        report.check_equal(f"probe[{probe.text()}]", [probe.subs_rational(f_map)], [probe],
                           action.residue)
    return report


def relations_presentation(basis: InvariantBasis) -> Ideal:
    """Kernel of W_i -> f_i modulo the relations I of the basis's action:
    all relations among the generators in k[z]/I, as the contraction to k[W]
    of the graph ideal (which inverts the denominators) plus I.

    Without relations, when the Jacobian certifies the nonzero f_i
    independent, that contraction is <W_i : f_i = 0>; the small ideal is then
    eliminated instead, in the same ring, and gives the same reduced basis.
    """
    relations = basis.action.relations
    graph, tags = graph_ideal(basis.f, "W", relations)
    nonzero = [f for f in basis.f if not f.is_zero()]
    if not relations and formal_jacobian_rank(nonzero) == len(nonzero):
        graph = Ideal(graph.ring, [graph.ring.var(tag)
                                   for tag, f in zip(tags, basis.f) if f.is_zero()])
    return eliminate(graph, tags)


def cross_section_ideal(pair: AlphaPair) -> Ideal:
    """<g_1,...,g_s>; V of it inside D(H) is the cross section K."""
    if not pair.principle:
        raise ValidationError("cross_section_ideal requires a verified principle pair")
    ring = pair.g[0].ring
    return Ideal(ring, list(pair.g))


def stabilizer_is_trivial(action: CoAction, point) -> bool:
    basis = groebner(action.stabilizer_ideal(point))
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


def factor_through_kernel(action: CoAction, alpha: Endomorphism):
    """Induced co-action of G = G/ker(alpha) on fresh coordinates U, with
    v_i(Z, Y) = v'_i(Z, alpha#(Y)) in A[Y], each v'_i a normal form modulo I.

    Returns (new CoAction, Report).  The induced group law is the law itself
    in u = alpha(Y), as alpha(m(A, B)) = m(alpha(A), alpha(B)) and
    alpha(inv(Y)) = inv(alpha(Y)); it is re-validated rather than assumed.
    """
    law = alpha.law
    endo_report = validate_endomorphism(law, alpha)
    if not endo_report.passed:
        raise ValidationError("factor_through_kernel requires an endomorphism of the "
                              "group law; failed: " + ", ".join(endo_report.failures))
    if not is_surjective(law, alpha):
        raise ValidationError("factor_through_kernel requires a surjective alpha")
    if not kernel_acts_trivially(action, alpha):
        raise ValidationError("ker(alpha) does not act trivially; "
                              "the action does not factor")
    ring = action.ring
    field = ring.field
    u_names = fresh_names("u", law.s, set(ring.names) | set(law.coords))

    # rewrite v_i over <u_j - alpha_j(Y)> + I with Y >> (Z, U); the v'_i come
    # out reduced mod I
    big = PolyRing(ring.names + law.coords + tuple(u_names), field)
    gens = [big.var(u) - a.cast(big) for u, a in zip(u_names, alpha.phi)]
    basis = groebner(Ideal(big, gens + [r.cast(big) for r in action.relations]),
                     BlockOrder([big.index(y) for y in law.coords], big.nvars))
    new_ring_full = PolyRing(ring.names + tuple(u_names), field)
    v_new = []
    for v in action.v:
        reduced = normal_form(v.cast(big), basis)
        left = reduced.variables_used() & set(law.coords)
        if left:
            raise ValidationError(
                "co-action cannot be rewritten through alpha: residual "
                f"dependence on {sorted(left)} in {reduced.text()}")
        v_new.append(reduced.cast(new_ring_full))

    u_ring = PolyRing(u_names, field)
    new_law = GroupLaw(u_names, field, law.mult,
                       [p.cast(u_ring, rename=dict(zip(law.coords, u_names))) for p in law.inv])
    new_action = CoAction(new_law, ring, v_new, action.relations)

    report = Report("factor-through-kernel")
    law_report = validate_group_law(new_law)
    report.check("induced-law-valid", law_report.passed,
                 ", ".join(law_report.failures) or None)
    action_report = validate_action(new_action)
    report.check("induced-action-valid", action_report.passed,
                 ", ".join(action_report.failures) or None)

    # defining identity v_i(Z, Y) = v'_i(Z, alpha#(Y)) in A[Y]
    zy = action.big_ring.gens()
    Z, Y = zy[:ring.nvars], zy[ring.nvars:]
    report.check_equal("defining-identity", new_action.apply(Z, alpha.apply(Y)), action.v,
                       action.residue, ring.names)
    if not report.passed:
        raise InternalCheckError("factor_through_kernel self-checks failed: "
                                 + ", ".join(report.failures))
    return new_action, report


def induced_problem(problem: ProblemFile, new_action: CoAction) -> ProblemFile:
    """Problem file for the induced action: same ring and pairs, no endo."""
    return ProblemFile(problem.field, problem.ring, new_action.law, None, new_action,
                       dict(problem.pairs), list(problem.points))


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
        self.points = [[rational(v) for v in row] for row in points]
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

    Group coordinates parameterize t = N*s for N the nullspace basis of the
    transposed point matrix, which is the identity on the free columns; the
    emitted pair system takes those rows of N (the free-variable rows), which
    is principle with no change of coordinates.
    """
    n, r = spec.n, spec.r
    s = n - r
    transpose = ExactMatrix(QQ, [[spec.points[i][j] for i in range(n)]
                                 for j in range(r)])
    basis_vectors = transpose.nullspace()
    if len(basis_vectors) != s:
        raise ValidationError("point matrix does not have full rank")
    free_rows = [i for i in range(n) if i not in transpose.pivots]

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
    action = CoAction(law, ring, v, [])

    g = [ring.var(f"x{n + i + 1}") for i in free_rows]
    h = [ring.var(f"x{i + 1}") for i in free_rows]
    return ProblemFile(QQ, ring, law, None, action, {1: (g, h)}, [])


def nagata_oracle_invariants(spec: NagataSpec, problem: ProblemFile):
    """The classical generators on D(x_1...x_n): the first n coordinates and
    one point-weighted sum per column; each is checked invariant."""
    ring = problem.ring
    n, r = spec.n, spec.r
    out = [RationalFunction.from_poly(ring.var(f"x{i}")) for i in range(1, n + 1)]
    for j in range(r):
        total = ring.zero()
        for i in range(n):
            term = ring.var(f"x{n + i + 1}").scale(spec.points[i][j])
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

