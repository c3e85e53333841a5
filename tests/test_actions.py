import random
from fractions import Fraction

import pytest

from pairkit.actions import (BaseCoAction, CoAction, GmCoAction, gm_weight_components,
                             is_semi_invariant, laurent_components, validate_action)
from pairkit.errors import AlgebraError, ParseError, ValidationError
from pairkit.fields import QQ, FieldSpec
from pairkit.gbasis import Ideal, buchberger, groebner
from pairkit.poly import PolyRing, RationalFunction
from pairkit.problem import parse_polynomial, parse_problem

from conftest import load
from oracles import in_ideal_bruteforce, random_polynomial
from test_groups import vector_law


class TestValidateAction:
    def test_e1_passes(self, e1):
        report = validate_action(e1.action)
        assert report.passed
        assert report.get("fully-trivial") == "false"

    def test_remark_action_passes(self, remark):
        assert validate_action(remark.action).passed

    def test_scaling_coaction_fails_compatibility(self):
        # v = (z1, z2 + t*z2): the unit axiom holds, but (1+t) is not
        # additive, so v(v(Z,b),a) picks up a cross term z2*a*b
        law = vector_law(1, QQ, coord_prefix="t")
        ring = PolyRing(["z1", "z2"], QQ)
        big = PolyRing(["z1", "z2", "t"], QQ)
        action = CoAction(law, ring,
                          [big.var("z1"), big.var("z2") + big.var("t") * big.var("z2")], [])
        report = validate_action(action)
        assert report.failures == ["compatibility"]

    def test_trivial_action_reported(self):
        law = vector_law(1, QQ)
        ring = PolyRing(["z1"], QQ)
        big = PolyRing(["z1", "t"], QQ)
        action = CoAction(law, ring, [big.var("z1")], [])
        report = validate_action(action)
        assert report.passed and report.get("fully-trivial") == "true"

    QUOTIENT = ("field Q\nring z1 z2\nrelation z2\ngroup dim 1 coords t\n"
                "mult t = a1 + b1\ninv t = -t\nact z1 = z1\n")

    def test_action_must_preserve_the_relations(self):
        """z2 -> z2 + t*z1 acts on Q[z1, z2], but not on Q[z1, z2]/<z2>:
        v(z2) - z2 = t*z1 is not 0 in A[t].  The unit axiom and
        compatibility still pass."""
        report = validate_action(parse_problem(self.QUOTIENT + "act z2 = z2 + t*z1\n").action)
        assert report.failures == ["ideal-preserved"]
        assert report.get("ideal-preserved-witness") == "z1*t"

    def test_relations_moved_inside_the_ideal_pass(self):
        """z1 -> z1 + t*z2 moves the relation z1 to z1 + t*z2, which lies in
        <z1, z2>: the origin is a fixed point."""
        action = parse_problem("field Q\nring z1 z2\nrelation z1\nrelation z2\n"
                               "group dim 1 coords t\nmult t = a1 + b1\ninv t = -t\n"
                               "act z1 = z1 + t*z2\nact z2 = z2\n").action
        report = validate_action(action)
        assert report.passed and report.get("ideal-preserved") == "pass"
        assert action._basis is not None

    def test_axioms_and_triviality_hold_modulo_the_relations(self):
        """z1 -> z1 + t + t^2*z2 breaks compatibility by 2*a*b*z2 in the free
        ring only, and z1 -> z1 + t*z2 is trivial on A though not on k[z]."""
        head = "field Q\nring z1 z2\nrelation z2\ngroup dim 1 coords t\n" \
               "mult t = a1 + b1\ninv t = -t\nact z2 = z2\n"
        cases = {"z1 + t + t^2*z2": ("false", ["compatibility"]), "z1 + t*z2": ("true", [])}
        for image, (trivial, free_failures) in cases.items():
            action = parse_problem(head + f"act z1 = {image}\n").action
            report = validate_action(action)
            assert report.passed and report.get("fully-trivial") == trivial, image
            free = validate_action(CoAction(action.law, action.ring, action.v, []))
            assert free.failures == free_failures, image
            assert free.get("fully-trivial") == "false", image

    def test_free_ring_identities_build_no_residue(self, e1, heisenberg, monkeypatch):
        """An identity that holds as written is settled by the comparison
        alone: validating a valid action and testing triviality call
        `residue` only for a component that differs."""
        calls = []
        real = BaseCoAction.residue
        monkeypatch.setattr(BaseCoAction, "residue",
                            lambda self, *args: calls.append(args) or real(self, *args))
        for problem in (e1, heisenberg):
            assert validate_action(problem.action).passed
        assert calls == []
        law = vector_law(1, QQ)
        big = PolyRing(["z", "t"], QQ)
        bad = CoAction(law, PolyRing(["z"], QQ), [big.var("z") + big.var("t") * big.var("z")], [])
        assert validate_action(bad).failures == ["compatibility"] and len(calls) == 1

    def test_free_ring_reports_no_ideal_key(self, e1, gm_diag):
        for action in (e1.action, gm_diag.action):
            assert "ideal-preserved" not in dict(validate_action(action).entries)

    def test_name_collision_rejected(self):
        law = vector_law(1, QQ)
        ring = PolyRing(["t", "z"], QQ)
        with pytest.raises(ValidationError, match="collide"):
            CoAction(law, ring, [ring.var("t"), ring.var("z")], [])


class TestPushforward:
    def test_e1_fraction(self, e1):
        ring = e1.ring
        z1, z2 = ring.gens()
        out = e1.action.pushforward(RationalFunction(z2, z1))
        big = e1.action.big_ring
        expected = RationalFunction(big.var("z2") + big.var("t") * big.var("z1"),
                                    big.var("z1"))
        assert out == expected

    def test_constant(self, e1):
        out = e1.action.pushforward(RationalFunction.from_poly(e1.ring.const(Fraction(5))))
        assert out == RationalFunction.from_poly(e1.action.big_ring.const(Fraction(5)))

    def test_heisenberg_regular(self, heisenberg):
        v3 = heisenberg.action.pushforward(
            RationalFunction.from_poly(heisenberg.ring.var("z3")))
        big = heisenberg.action.big_ring
        expected = big.var("z3") + big.var("t3") + big.var("t1") * big.var("z2")
        assert v3 == RationalFunction.from_poly(expected)

    def test_ring_homomorphism(self, e1):
        ring = e1.ring
        z1, z2 = ring.gens()
        a = RationalFunction(z2, z1)
        b = RationalFunction.from_poly(z1 + z2)
        push = e1.action.pushforward
        assert push(a * b) == push(a) * push(b)
        assert push(a + b) == push(a) + push(b)


class TestIsInvariant:
    def test_untouched_variable(self, e1):
        assert e1.action.is_invariant(e1.ring.var("z1"))

    def test_moved_variable(self, e1):
        assert not e1.action.is_invariant(e1.ring.var("z2"))

    def test_nagata_probe(self):
        from pairkit.invariants import NagataSpec, nagata_build
        problem = nagata_build(NagataSpec(2, 1, [[1], [2]]))
        ring = problem.ring
        probe = ring.var("x2") * ring.var("x3") \
            + (ring.var("x1") * ring.var("x4")).scale(Fraction(2))
        assert problem.action.is_invariant(probe)

    def test_closed_under_ring_operations(self, e1):
        ring = e1.ring
        z1 = ring.var("z1")
        invariants = [RationalFunction.from_poly(z1),
                      RationalFunction(ring.one(), z1),
                      RationalFunction.from_poly(z1 * z1 - z1)]
        for f in invariants:
            for g in invariants:
                assert e1.action.is_invariant(f * g)
                assert e1.action.is_invariant(f + g)


class TestResidue:
    """`CoAction.residue` is zero exactly when the cross-multiplied numerator
    of lhs - rhs lies in I, by the linear-algebra oracle, over seeded random
    relation ideals of k[z1, z2] and fractions of k[z1, z2] and k[z1, z2, t]."""

    @staticmethod
    def fraction(ring, rng):
        den = random_polynomial(ring, rng, 1, 2) + ring.one()
        return RationalFunction(random_polynomial(ring, rng, 2, 3),
                                ring.one() if den.is_zero() else den)

    @pytest.mark.parametrize("field", [QQ, FieldSpec.prime(2), FieldSpec.prime(7)],
                             ids=["Q", "F2", "F7"])
    def test_agrees_with_bruteforce_membership(self, field):
        rng = random.Random(20261020)
        ring = PolyRing(["z1", "z2"], field)
        big = PolyRing(["z1", "z2", "t"], field)
        for _ in range(5):
            relations = [g for g in (random_polynomial(ring, rng, 2, 2) for _ in range(2))
                         if not g.is_zero()] or [ring.var("z2")]
            action = CoAction(vector_law(1, field), ring,
                              [big.var("z1") + big.var("t"), big.var("z2")], relations)
            for target in (ring, big):
                gens = [r.cast(target) for r in relations]
                lhs = self.fraction(target, rng)
                # a difference planted in I, then an unrelated one
                q = random_polynomial(target, rng, 1, 2)
                for rhs in (RationalFunction(lhs.num + q * rng.choice(gens), lhs.den),
                            self.fraction(target, rng)):
                    numerator = lhs.num * rhs.den - rhs.num * lhs.den
                    degree = max([numerator.total_degree(), 0]
                                 + [g.total_degree() for g in gens]) + 2
                    assert action.residue(lhs, rhs).is_zero() == \
                        in_ideal_bruteforce(numerator, gens, degree)
            assert [p.cast(big) for p in action._basis] == \
                groebner(Ideal(big, [r.cast(big) for r in relations])).polys

    def test_basis_is_built_at_the_first_nonzero_difference(self):
        """On A = Q[z1, z2]/<z2> under z1 -> z1 + t, z2 is invariant in the
        free ring already and builds no basis; z1*z2 moves there by t*z2,
        which is 0 in A[t], and z1 moves by t, which is not."""
        action = parse_problem(
            "field Q\nring z1 z2\nrelation z2\ngroup dim 1 coords t\n"
            "mult t = a1 + b1\ninv t = -t\nact z1 = z1 + t\nact z2 = z2\n").action
        z1, z2 = action.ring.gens()
        assert action.is_invariant(z2) and action._basis is None
        assert action.is_invariant(z1 * z2) and not action.is_invariant(z1)
        assert [p.text() for p in action._basis] == ["z2"]
        assert action.residue(action.pushforward(z1), z1).text() == "t"


class TestStabilizer:
    def test_e1_off_axis(self, e1):
        ideal = e1.action.stabilizer_ideal([Fraction(1), Fraction(0)])
        basis = buchberger(ideal.nonzero_gens())
        assert [p.text() for p in basis] == ["t"]

    def test_e1_on_fixed_locus(self, e1):
        ideal = e1.action.stabilizer_ideal([Fraction(0), Fraction(1)])
        assert all(g.is_zero() for g in ideal.gens)

    def test_heisenberg_free(self, heisenberg):
        point = [Fraction(3), Fraction(-1), Fraction(2)]
        basis = buchberger(heisenberg.action.stabilizer_ideal(point).nonzero_gens())
        assert sorted(p.text() for p in basis) == ["t1", "t2", "t3"]

    def test_arity(self, e1):
        with pytest.raises(ValidationError):
            e1.action.stabilizer_ideal([Fraction(1)])


def laurent(text):
    """The Laurent polynomial `text` in w, parsed as the image of x."""
    return parse_problem(f"field Q\nring x\ngmact x = {text}\n").action.v_for("x")


class TestLaurentPower:
    def test_power_equals_repeated_product(self):
        f = "(w^-1*x + 3*w^2)"
        for n in range(7):
            assert laurent(f"{f}^{n}") == laurent("*".join([f] * n) or "1")

    def test_negative_power_of_a_unit(self):
        assert laurent("(2*w^2)^-3") == laurent("1/8*w^-6")
        assert laurent("(2*w^2)^-3*(2*w^2)^3") == laurent("1")
        with pytest.raises(ParseError, match="non-unit"):
            laurent("(w*x)^-1")
        with pytest.raises(ParseError, match="non-unit"):
            laurent("0^-1")

    def test_huge_weight_power_is_immediate(self):
        ring = PolyRing(["x"], QQ)
        assert list(laurent_components(laurent("w^1000000000"), ring)) == [10**9]
        assert list(laurent_components(laurent("w^-1000000000"), ring)) == [-10**9]


def test_one_base_serves_both_kinds():
    """Both co-actions inherit A = k[Z]/I, its pushforward, its residue and
    its invariance test from one base."""
    for name in ("v_for", "apply", "pushforward", "residue", "is_invariant"):
        assert getattr(CoAction, name) is getattr(GmCoAction, name) \
            is getattr(BaseCoAction, name)


class TestGmAction:
    def test_validate(self, gm_diag):
        report = validate_action(gm_diag.action)
        assert report.passed and report.title == "gm-action"

    def test_weight_zero_fraction_is_invariant(self, gm_diag):
        x, y = gm_diag.ring.gens()
        assert gm_diag.action.is_invariant(RationalFunction(x, y))
        assert not gm_diag.action.is_invariant(x)

    def test_action_must_preserve_the_relations(self):
        """x and y have the weights 1 and 2, so v(x - y) = w*x - w^2*y, which
        is (w - w^2)*y modulo <x - y>."""
        action = parse_problem("field Q\nring x y\nrelation x - y\n"
                               "gmact x = w*x\ngmact y = w^2*y\n").action
        report = validate_action(action)
        assert report.failures == ["ideal-preserved"]
        assert report.get("ideal-preserved-witness") == "-y*w^2 + y*w"

    def test_semi_invariant_modulo_the_relations(self):
        """In A = Q[x, y]/<x^2 - y>, x^2 - y + x is x, of weight 1, though its
        image in Q[x, y] has a weight-2 part."""
        action = load("gm_quotient.prob").action
        x, y = action.ring.gens()
        g, one = x * x - y + x, action.ring.one()
        assert validate_action(action).passed
        assert is_semi_invariant(action, g, one, 1, 1)
        assert not is_semi_invariant(action, g, one, 1, 2)
        assert is_semi_invariant(action, x * x, y, 1, 0)

    @pytest.mark.parametrize("num, den", [("x", "x + w"), ("y", "x")])
    def test_image_must_be_a_laurent_polynomial(self, num, den):
        """x / (x + w) and y / x are fractions of k[x, y, w] whose
        denominators are not powers of w, so they have no weight components."""
        ring = PolyRing(["x", "y"], QQ)
        ext = ring.extend(["w"])
        image = RationalFunction(parse_polynomial(num, ext), parse_polynomial(den, ext))
        with pytest.raises(ValidationError, match="image of x is not a Laurent"):
            GmCoAction(ring, [image, RationalFunction.from_poly(ext.var("y"))], [])

    def test_image_must_lie_in_the_weight_ring(self):
        """Fractions of k[x, y] itself would be read with y taken for w."""
        ring = PolyRing(["x", "y"], QQ)
        x, y = ring.gens()
        with pytest.raises(ValidationError, match="image of x lies in Q\\[x, y\\], "
                                                  "not in Q\\[x, y, w\\]"):
            GmCoAction(ring, [RationalFunction.from_poly(x * y),
                              RationalFunction.from_poly(y)], [])

    def test_unit_axiom_violation_detected(self):
        ring = PolyRing(["x"], QQ)
        x, w = ring.extend(["w"]).gens()
        bad = GmCoAction(ring, [RationalFunction.from_poly(w * x + x)], [])
        report = validate_action(bad)
        assert "unit-axiom" in report.failures

    def test_weight_one_for_coordinate(self, gm_diag):
        ring = gm_diag.ring
        assert is_semi_invariant(gm_diag.action, ring.var("x"), ring.var("y"), 0, 1)

    def test_weight_zero_ratio(self, gm_diag):
        ring = gm_diag.ring
        assert is_semi_invariant(gm_diag.action, ring.var("x"), ring.var("y"), 1, 0)

    def test_false_weight_claim_rejected(self, gm_diag):
        ring = gm_diag.ring
        assert not is_semi_invariant(gm_diag.action, ring.var("x") ** 2,
                                     ring.var("y"), 1, 2)
        assert is_semi_invariant(gm_diag.action, ring.var("x") ** 2,
                                 ring.var("y"), 1, 1)

    def test_components_reassemble(self, gm_diag):
        ring = gm_diag.ring
        x, y = ring.gens()
        f = x * x + x * y + x + ring.one()
        comps = gm_weight_components(gm_diag.action, f)
        assert sorted(comps) == [0, 1, 2]
        total = ring.zero()
        for p in comps.values():
            total = total + p
        assert total == f

    def test_components_multiply_additively(self, gm_diag):
        ring = gm_diag.ring
        x, y = ring.gens()
        f = x + x * y
        g = y     # single component, so each product component is exact
        cf = gm_weight_components(gm_diag.action, f)
        cg = gm_weight_components(gm_diag.action, g)
        ((dg, pg),) = cg.items()
        product = gm_weight_components(gm_diag.action, f * g)
        assert product == {df + dg: pf * pg for df, pf in cf.items()}

    def test_rational_components_need_semi_invariant_denominator(self, gm_diag):
        ring = gm_diag.ring
        x, y = ring.gens()
        comps = gm_weight_components(gm_diag.action, RationalFunction(x * x, y))
        assert sorted(comps) == [1]
        with pytest.raises(AlgebraError):
            gm_weight_components(gm_diag.action,
                                 RationalFunction(x, y + ring.one()))

    def test_zero_h_rejected(self, gm_diag):
        ring = gm_diag.ring
        with pytest.raises(ValidationError):
            is_semi_invariant(gm_diag.action, ring.var("x"), ring.zero(), 1, 1)
        with pytest.raises(ValidationError, match="e must be non-negative"):
            is_semi_invariant(gm_diag.action, ring.var("x"), ring.var("y"), -1, 0)
