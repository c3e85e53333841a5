"""Verification and classification of pairs, transcendence degree,
pedestal ideals, affine stability, and the fppf cover construction.

A pair for an s-dimensional group is two s-tuples (g, h) of ring elements;
it is checked against an action and a surjective endomorphism alpha: the
tuple of g_i/h_i must transform by left multiplication through alpha, and
the g_i/h_i must be algebraically independent.
"""

from .actions import CoAction, validate_action
from .errors import InternalCheckError, ValidationError
from .gbasis import (GroebnerBasis, Ideal, buchberger, eliminate, groebner,
                     ideal_dimension, normal_form, reduce_full, saturate)
from .groups import Endomorphism, GroupLaw, is_surjective, kernel_ideal, mult_var_names
from .linalg import formal_jacobian_rank, jacobian_rank
from .orders import GREVLEX, BlockOrder
from .poly import Polynomial, PolyRing, RationalFunction, fresh_names
from .problem import ProblemFile
from .report import Report


class AlphaPair:
    """(alpha, g, h) with verification flags filled in by check_alpha_pair."""

    __slots__ = ("alpha", "g", "h", "identity_holds", "trdeg_ok",
                 "quasi_principle", "principle", "checked")

    def __init__(self, alpha: Endomorphism, g, h):
        g, h = list(g), list(h)
        s = alpha.law.s
        if len(g) != s or len(h) != s:
            raise ValidationError(f"pair needs {s} g and {s} h polynomials")
        for p in h:
            if p.is_zero():
                raise ValidationError("h polynomials must be nonzero")
        self.alpha = alpha
        self.g = g
        self.h = h
        self.identity_holds = False
        self.trdeg_ok = False
        self.quasi_principle = False
        self.principle = False
        self.checked = False

    @property
    def law(self) -> GroupLaw:
        return self.alpha.law

    @property
    def H(self) -> Polynomial:
        total = self.h[0].ring.one()
        for p in self.h:
            total = total * p
        return total

    def fractions(self):
        return [RationalFunction(g, h) for g, h in zip(self.g, self.h)]

    @property
    def verified(self) -> bool:
        return self.checked and self.identity_holds and self.trdeg_ok


def pair_from_problem(problem: ProblemFile, idx: int) -> AlphaPair:
    """Pair `idx` of a problem, with alpha = the endo section or the identity."""
    if problem.is_gm:
        raise ValidationError("pairs require a unipotent action")
    g, h = problem.pair(idx)
    alpha = problem.endo if problem.endo is not None \
        else problem.group.identity_endomorphism()
    return AlphaPair(alpha, g, h)


def _relations_basis(action: CoAction, relations) -> GroebnerBasis | None:
    if not relations:
        return None
    big = action.big_ring
    return groebner(Ideal(big, [r.cast(big) for r in relations]), GREVLEX)


def _require_same_law(action: CoAction, law: GroupLaw):
    if (action.law.coords != law.coords or action.law.mult != law.mult
            or action.law.inv != law.inv):
        raise ValidationError("the pair's group law does not match the action's")


def check_pair_identity(action: CoAction, pair: AlphaPair, relations=None):
    """Compare (g_i/h_i)(w*x) against alpha(w) . (g_i/h_i)(x) componentwise.

    Returns (ok, witness): witness is the first nonzero cross-multiplied
    difference numerator (reduced modulo the relation ideal if given).
    """
    law = pair.law
    big = action.big_ring
    rel_basis = relations if isinstance(relations, GroebnerBasis) else \
        _relations_basis(action, relations)
    alpha_tuple = [RationalFunction.from_poly(p.cast(big)) for p in pair.alpha.phi]
    gh_tuple = [RationalFunction(g.cast(big), h.cast(big))
                for g, h in zip(pair.g, pair.h)]
    rhs = law.multiply_tuples(alpha_tuple, gh_tuple)
    for i in range(law.s):
        lhs_i = action.pushforward(RationalFunction(pair.g[i], pair.h[i]))
        diff = lhs_i.num * rhs[i].den - rhs[i].num * lhs_i.den
        if rel_basis is not None and not diff.is_zero():
            diff = normal_form(diff, rel_basis)
        if not diff.is_zero():
            return False, diff.text()
    return True, None


def graph_ideal(functions, tag: str, relations=None):
    """Graph of the map to the functions f_i, with every denominator inverted.

    Returns (ideal, tags): the ideal <tag_i*den_i - num_i, u*prod den_i - 1>
    plus the given relations, in the functions' ring extended by a fresh u
    and the fresh numbered tags.  Its contraction to k[tags] is the ideal of
    all relations among the f_i.
    """
    ring = functions[0].ring
    tags = fresh_names(tag, len(functions), ring.names, numbered=True)
    u_name = fresh_names("u", 1, set(ring.names) | set(tags))[0]
    big = ring.extend([u_name] + tags)
    gens = []
    den_product = big.one()
    for name, f in zip(tags, functions):
        gens.append(big.var(name) * f.den.cast(big) - f.num.cast(big))
        den_product = den_product * f.den.cast(big)
    gens.append(big.var(u_name) * den_product - big.one())
    for rel in relations or []:
        gens.append(rel.cast(big))
    return Ideal(big, gens), tags


def transcendence_degree(functions, relations=None, crosscheck=True) -> int:
    """trdeg of k[functions] by elimination, valid in any characteristic.

    The answer is the dimension of the graph ideal's contraction to the tags
    T_i.  In characteristic 0 (and without ambient relations) the Jacobian
    rank is recomputed as a cross-check and any disagreement raises.
    """
    functions = list(functions)
    if not functions:
        raise ValidationError("transcendence degree of an empty list")
    degree = ideal_dimension(eliminate(*graph_ideal(functions, "T", relations)))
    if crosscheck and not relations and functions[0].ring.field.p is None:
        jac = jacobian_rank(functions)
        if jac != degree:
            raise InternalCheckError(
                f"transcendence degree disagreement: elimination gives {degree}, "
                f"Jacobian rank gives {jac}")
    return degree


def kernel_acts_trivially(action: CoAction, alpha: Endomorphism) -> bool:
    """Scheme-theoretic test: every v_i - z_i must reduce to zero against the
    kernel ideal of alpha, coefficient-wise over k[Z] (so infinitesimal
    kernels such as <t^2> are honored)."""
    big = action.big_ring
    kernel = [p.cast(big) for p in kernel_ideal(alpha.law, alpha).nonzero_gens()]
    front = [big.index(n) for n in alpha.law.coords]
    order = BlockOrder(front, big.nvars)
    basis = buchberger(kernel, order)
    for i, name in enumerate(action.ring.names):
        diff = action.v[i] - big.var(name)
        if basis and not reduce_full(diff, basis, order).is_zero():
            return False
        if not basis and not diff.is_zero():
            return False
    return True


def check_alpha_pair(action: CoAction, pair: AlphaPair, relations=None) -> Report:
    """Full pair verification: identity, transcendence degree, and the
    quasi-principle / principle classification flags."""
    law = pair.law
    _require_same_law(action, law)
    if action.is_trivial():
        raise ValidationError("the action is fully trivial; the standing "
                              "finiteness assumption fails and pairs are rejected")
    if not is_surjective(law, pair.alpha):
        raise ValidationError("alpha is not surjective (kernel has positive "
                              "dimension); it is not a pair-monoid member")
    report = Report("alpha-pair")
    ok, witness = check_pair_identity(action, pair, relations)
    report.check("identity", ok, witness)

    functions = pair.fractions()
    degree = transcendence_degree(functions, relations=relations)
    report.info("trdeg", degree)
    report.check("trdeg-full", degree == law.s)
    if law.field.p is not None:
        report.info("separable",
                    "true" if formal_jacobian_rank(functions) == degree else "false")

    quasi = kernel_acts_trivially(action, pair.alpha)
    principle = pair.alpha.is_identity()
    report.info("quasi-principle", "true" if quasi else "false")
    report.info("principle", "true" if principle else "false")
    label = "principle" if principle else ("quasi-principle" if quasi else "general")
    report.info("classification", label)
    H = pair.H
    report.info("H", H.text())
    report.info("H-invariant", "true" if action.is_invariant(H) else "false")

    pair.identity_holds = ok
    pair.trdeg_ok = degree == law.s
    pair.quasi_principle = quasi and pair.identity_holds and pair.trdeg_ok
    pair.principle = principle and pair.identity_holds and pair.trdeg_ok
    pair.checked = True
    return report


def pedestal_ideal_from_pairs(pairs, which: str = "quasi-principle-only",
                              ring: PolyRing | None = None) -> Ideal:
    """Ideal generated by the H of the selected verified pairs (a lower bound
    for the pedestal ideal, relative to the supplied pairs; <0> if none)."""
    if which not in ("quasi-principle-only", "all"):
        raise ValidationError(f"unknown pedestal selector {which!r}")
    gens = []
    for pair in pairs:
        if not pair.checked or not pair.verified:
            raise ValidationError("pedestal ideal requires verified pairs only")
        ring = pair.H.ring
        if which == "all" or pair.quasi_principle:
            gens.append(pair.H)
    if ring is None:
        raise ValidationError("pedestal ideal of an empty pair list needs an "
                              "explicit ring")
    return Ideal(ring, buchberger(gens, GREVLEX))


def is_affine_stable(point, pedestal: Ideal) -> bool:
    """x lies outside V(P): some generator is nonzero at x.  Stability is
    relative to the supplied pairs."""
    point = list(point)
    if len(point) != pedestal.ring.nvars:
        raise ValidationError(f"point arity must be {pedestal.ring.nvars}")
    values = dict(zip(pedestal.ring.names, point))
    return any(g.evaluate(values) for g in pedestal.gens)


def build_fppf_cover(action: CoAction, pair: AlphaPair):
    """Explicit fppf neighborhood on which the action trivializes.

    New ring Z + W, relation ideal <h_i * alpha#(w_i) - g_i>, extended
    co-action (w translates by m(Y, W)), canonical pair ((w_1..w_s),(1..1)).
    Returns (ProblemFile, Report); the canonical pair is re-verified as
    principle modulo the relation ideal before returning.
    """
    if not pair.verified:
        raise ValidationError("build_fppf_cover requires a verified pair")
    law = pair.law
    ring = action.ring
    field = ring.field
    w_names = fresh_names("w", law.s, set(ring.names) | set(law.coords))
    cover_ring = PolyRing(ring.names + tuple(w_names), field)

    relations = []
    for i in range(law.s):
        alpha_w = pair.alpha.phi[i].cast(cover_ring,
                                         rename=dict(zip(law.coords, w_names)))
        relations.append(pair.h[i].cast(cover_ring) * alpha_w - pair.g[i].cast(cover_ring))

    big = PolyRing(cover_ring.names + law.coords, field)
    v_new = [p.cast(big) for p in action.v]
    a_names, b_names = mult_var_names(law.s)
    y_vars = [big.var(c) for c in law.coords]
    w_vars = [big.var(w) for w in w_names]
    for i in range(law.s):
        v_new.append(law.mult[i].subs_poly(
            {**dict(zip(a_names, y_vars)), **dict(zip(b_names, w_vars))}))
    cover_action = CoAction(law, cover_ring, v_new)

    action_report = validate_action(cover_action)
    if not action_report.passed:
        raise InternalCheckError("fppf cover action failed validation: "
                                 + ", ".join(action_report.failures))

    canonical = AlphaPair(law.identity_endomorphism(),
                          [cover_ring.var(w) for w in w_names],
                          [cover_ring.one() for _ in w_names])
    report = Report("fppf-cover")
    for i, rel in enumerate(relations, start=1):
        report.info(f"relation{i}", rel.text())
    saturated = False
    self_check = check_alpha_pair(cover_action, canonical, relations=relations)
    if not self_check.passed:
        H_new = pair.H.cast(cover_ring)
        sat = saturate(Ideal(cover_ring, relations), H_new)
        saturated = True
        self_check = check_alpha_pair(cover_action, canonical, relations=sat.gens)
        if not self_check.passed:
            raise InternalCheckError("canonical cover pair failed verification: "
                                     + ", ".join(self_check.failures))
        relations = list(sat.gens)
    report.info("saturated", "true" if saturated else "false")
    report.merge(self_check, prefix="cover-pair-")

    problem = ProblemFile(field, cover_ring, relations, law, None, cover_action,
                          {1: (list(canonical.g), list(canonical.h))}, [])
    return problem, report
