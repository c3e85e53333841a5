"""Verification and classification of pairs, transcendence degree,
pedestal ideals, affine stability, and the fppf cover construction.

A pair for an s-dimensional group is two s-tuples (g, h) of ring elements;
it is checked against an action and a surjective endomorphism alpha: the
tuple of g_i/h_i must transform by left multiplication through alpha, and
the g_i/h_i must be algebraically independent.
"""

import math

from .actions import CoAction, validate_action
from .errors import InternalCheckError, ValidationError
from .gbasis import Ideal, eliminate, groebner, lead_dimension, normal_form, saturate
from .groups import Endomorphism, GroupLaw, is_surjective
from .linalg import formal_jacobian_rank
from .orders import GREVLEX
from .poly import Polynomial, PolyRing, RationalFunction, fresh_names
from .problem import ProblemFile
from .report import Report


class AlphaPair:
    """(alpha, g, h) with three verdicts, False until check_alpha_pair alone
    sets them: verified (an alpha-pair), quasi_principle and principle."""

    __slots__ = ("alpha", "g", "h", "verified", "quasi_principle", "principle")

    def __init__(self, alpha: Endomorphism, g, h):
        g, h = list(g), list(h)
        s = alpha.law.s
        if len(g) != s or len(h) != s:
            raise ValidationError(f"pair needs {s} g and {s} h polynomials")
        if any(p.is_zero() for p in h):
            raise ValidationError("h polynomials must be nonzero")
        self.alpha, self.g, self.h = alpha, g, h
        self.verified = self.quasi_principle = self.principle = False

    @property
    def law(self) -> GroupLaw:
        return self.alpha.law

    @property
    def H(self) -> Polynomial:
        return math.prod(self.h, start=self.h[0].ring.one())

    def fractions(self):
        return [RationalFunction(g, h) for g, h in zip(self.g, self.h)]


def pair_from_problem(problem: ProblemFile, idx: int) -> AlphaPair:
    """Pair `idx` of a problem, with alpha = the endo section or the identity.

    The g_i/h_i live on D(H) in Spec(A), so a pair whose H is nilpotent in
    A = k[Z]/I, that is I : H^infty = <1>, is refused; a zero-divisor H is
    kept."""
    if problem.is_gm:
        raise ValidationError("pairs require a unipotent action")
    g, h = problem.pair(idx)
    alpha = problem.endo if problem.endo is not None \
        else problem.group.identity_endomorphism()
    pair = AlphaPair(alpha, g, h)
    H, relations = pair.H, problem.action.relations
    if relations and not H.is_constant() and any(
            p.is_constant() for p in saturate(Ideal(problem.ring, relations), H).gens):
        raise ValidationError(f"pair {idx}: H = {H.text()} is nilpotent modulo the "
                              "relations, so g/h is undefined in A")
    return pair


def check_pair_identity(action: CoAction, pair: AlphaPair) -> Report:
    """The alpha-pair report's first check, `identity`: (g_i/h_i)(w*x) =
    alpha(w) . (g_i/h_i)(x) componentwise in A[Y], decided by `residue`."""
    big = action.big_ring
    fractions = pair.fractions()
    rhs = pair.law.multiply_tuples(pair.alpha.apply(big.gens()[action.ring.nvars:]),
                                   [f.cast(big) for f in fractions])
    report = Report("alpha-pair")
    report.check_equal("identity", map(action.pushforward, fractions), rhs, action.residue)
    return report


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
    dens = [f.den.cast(big) for f in functions]
    gens = [big.var(name) * den - f.num.cast(big)
            for name, f, den in zip(tags, functions, dens)]
    gens.append(big.var(u_name) * math.prod(dens, start=big.one()) - big.one())
    return Ideal(big, gens + [rel.cast(big) for rel in relations or []]), tags


def trdeg_by_elimination(functions, relations=None) -> int:
    """trdeg of k[functions] (modulo the relations) by elimination: the
    dimension of the graph ideal's contraction to the tags T_i, read off the
    leads of its generators, a grevlex basis already.  The authoritative
    route, valid in any characteristic.  The graph ideal is the unit ideal,
    which raises, when the denominators are nilpotent modulo the relations."""
    contraction = eliminate(*graph_ideal(functions, "T", relations))
    degree = lead_dimension([p.leading(GREVLEX)[0] for p in contraction.gens],
                            contraction.ring.nvars)
    if degree < 0:
        raise ValidationError("the denominators are nilpotent modulo the relations")
    return degree


def trdeg_and_rank(functions, relations=None) -> tuple[int, int]:
    """(trdeg of k[functions], formal Jacobian rank), certificate first.

    A full Jacobian rank is the answer.  A short rank, or any ambient
    relations, sends the functions to `trdeg_by_elimination`; in
    characteristic 0 without relations the rank must then equal the
    elimination's answer, and any disagreement raises.
    """
    functions = list(functions)
    if not functions:
        raise ValidationError("transcendence degree of an empty list")
    rank = formal_jacobian_rank(functions)
    if rank == len(functions) and not relations:
        return rank, rank
    degree = trdeg_by_elimination(functions, relations)
    if not relations and functions[0].ring.field.p is None and rank != degree:
        raise InternalCheckError(
            f"transcendence degree disagreement: elimination gives {degree}, "
            f"Jacobian rank gives {rank}")
    return degree, rank


def transcendence_degree(functions, relations=None) -> int:
    """trdeg of k[functions] (modulo the relations), valid in any
    characteristic: certified by a full Jacobian rank, else by elimination."""
    return trdeg_and_rank(functions, relations)[0]


def kernel_acts_trivially(action: CoAction, alpha: Endomorphism) -> bool:
    """Scheme-theoretic test: v(Z, Y) = Z in A[Y]/K, K the kernel ideal of alpha
    (so infinitesimal kernels such as <t^2> are honored).  Reduced modulo
    alpha's basis of K, which lies in k[Y], v_i - z_i is a sum of K's standard
    monomials over k[Z]; it lies in K + I exactly when each coefficient lies
    in I, which `residue` decides.  For the identity: v(Z, 0) = Z, with no
    Groebner basis."""
    ring = action.ring
    if alpha.is_identity():
        return action.equal(action.apply(ring.gens(), action.identity(ring)), ring.gens())
    big = action.big_ring
    basis = alpha.kernel_basis().cast(big)
    return action.equal([normal_form(v, basis) for v in action.v], big.gens()[:ring.nvars])


def check_alpha_pair(action: CoAction, pair: AlphaPair) -> Report:
    """Full pair verification on the action's ring modulo its relations:
    identity, transcendence degree, and the quasi-principle / principle
    classification, stored as the pair's verdicts."""
    law = pair.law
    if action.law != law:
        raise ValidationError("the pair's group law does not match the action's")
    if action.is_trivial():
        raise ValidationError("the action is fully trivial; the standing "
                              "finiteness assumption fails and pairs are rejected")
    if not is_surjective(law, pair.alpha):
        raise ValidationError("alpha is not surjective (kernel has positive "
                              "dimension); it is not a pair-monoid member")
    report = check_pair_identity(action, pair)

    degree, rank = trdeg_and_rank(pair.fractions(), action.relations)
    report.info("trdeg", degree)
    report.check("trdeg-full", degree == law.s)
    if law.field.p is not None:
        report.info("separable", "true" if rank == degree else "false")

    quasi = kernel_acts_trivially(action, pair.alpha)
    principle = pair.alpha.is_identity()
    report.info("quasi-principle", "true" if quasi else "false")
    report.info("principle", "true" if principle else "false")
    label = "principle" if principle else ("quasi-principle" if quasi else "general")
    report.info("classification", label)
    H = pair.H
    report.info("H", H.text())
    report.info("H-invariant", "true" if action.is_invariant(H) else "false")

    pair.verified = report.passed        # the identity and trdeg-full
    pair.quasi_principle = quasi and pair.verified
    pair.principle = principle and pair.verified
    return report


def pedestal_ideal_from_pairs(pairs, which: str = "quasi-principle-only",
                              ring: PolyRing | None = None) -> Ideal:
    """Ideal generated by the H of the selected verified pairs (a lower bound
    for the pedestal ideal, relative to the supplied pairs; <0> if none)."""
    if which not in ("quasi-principle-only", "all"):
        raise ValidationError(f"unknown pedestal selector {which!r}")
    pairs = list(pairs)
    if not all(pair.verified for pair in pairs):
        raise ValidationError("pedestal ideal requires verified pairs only")
    gens = [pair.H for pair in pairs if which == "all" or pair.quasi_principle]
    ring = pairs[-1].h[0].ring if pairs else ring
    if ring is None:
        raise ValidationError("pedestal ideal of an empty pair list needs an "
                              "explicit ring")
    return Ideal(ring, groebner(Ideal(ring, gens), GREVLEX).polys)


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

    New ring Z + W, relation ideal <relations, h_i * alpha#(w_i) - g_i>, the
    action's relations first, extended co-action (w translates by
    m(Y, W)), canonical pair ((w_1..w_s),(1..1)).
    Returns (ProblemFile, Report); the canonical pair is re-verified as
    principle modulo the relation ideal before returning.  That cannot fail:
    both sides of its identity are m(Y, W), and no nonzero P(w) lies in the
    ideal, as its zeros' w are dense (g/h is dominant, alpha surjective).
    """
    if not pair.verified:
        raise ValidationError("build_fppf_cover requires a verified pair")
    law = pair.law
    ring = action.ring
    field = ring.field
    w_names = fresh_names("w", law.s, set(ring.names) | set(law.coords))
    cover_ring = PolyRing(ring.names + tuple(w_names), field)

    alpha_w = pair.alpha.apply(cover_ring.gens()[ring.nvars:])
    relations = [r.cast(cover_ring) for r in action.relations] + \
        [h.cast(cover_ring) * a - g.cast(cover_ring)
         for g, h, a in zip(pair.g, pair.h, alpha_w)]

    big = PolyRing(cover_ring.names + law.coords, field)
    gens = big.gens()
    W, Y = gens[ring.nvars:cover_ring.nvars], gens[cover_ring.nvars:]
    v_new = [p.cast(big) for p in action.v] + law.multiply_tuples(Y, W)
    cover_action = CoAction(law, cover_ring, v_new, relations)

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
    self_check = check_alpha_pair(cover_action, canonical)
    if not self_check.passed:
        raise InternalCheckError("canonical cover pair failed verification: "
                                 + ", ".join(self_check.failures))
    # reports keep this key; the relation ideal never needs saturating by H
    report.info("saturated", "false")
    report.merge(self_check, prefix="cover-pair-")

    problem = ProblemFile(field, cover_ring, law, None, cover_action,
                          {1: (list(canonical.g), list(canonical.h))}, [])
    return problem, report
