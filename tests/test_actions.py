from fractions import Fraction

import pytest

from pairkit.actions import (CoAction, GmCoAction, LaurentPoly,
                             gm_weight_components, is_semi_invariant,
                             validate_action, validate_gm_action)
from pairkit.errors import AlgebraError, ValidationError
from pairkit.fields import QQ
from pairkit.gbasis import buchberger
from pairkit.poly import PolyRing, RationalFunction

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
                          [big.var("z1"), big.var("z2") + big.var("t") * big.var("z2")])
        report = validate_action(action)
        assert report.failures == ["compatibility"]

    def test_trivial_action_reported(self):
        law = vector_law(1, QQ)
        ring = PolyRing(["z1"], QQ)
        big = PolyRing(["z1", "t"], QQ)
        action = CoAction(law, ring, [big.var("z1")])
        report = validate_action(action)
        assert report.passed and report.get("fully-trivial") == "true"

    def test_name_collision_rejected(self):
        law = vector_law(1, QQ)
        ring = PolyRing(["t", "z"], QQ)
        with pytest.raises(ValidationError, match="collide"):
            CoAction(law, ring, [ring.var("t"), ring.var("z")])


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
        out = e1.action.pushforward(RationalFunction.constant(
            e1.ring, Fraction(5)))
        assert out == RationalFunction.constant(e1.action.big_ring, Fraction(5))

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


class TestLaurentPower:
    def test_power_equals_repeated_product(self):
        ring = PolyRing(["x"], QQ)
        f = LaurentPoly(ring, {-1: ring.var("x"), 2: ring.const(Fraction(3))})
        product = LaurentPoly.from_poly(ring.one())
        for n in range(7):
            assert f ** n == product
            product = product * f

    def test_negative_power_of_a_unit(self):
        ring = PolyRing(["x"], QQ)
        unit = LaurentPoly(ring, {2: ring.const(Fraction(2))})
        assert unit ** -3 == LaurentPoly(ring, {-6: ring.const(Fraction(1, 8))})
        assert (unit ** -3) * (unit ** 3) == LaurentPoly.from_poly(ring.one())
        with pytest.raises(AlgebraError, match="non-unit"):
            LaurentPoly(ring, {1: ring.var("x")}) ** -1
        with pytest.raises(AlgebraError, match="non-unit"):
            LaurentPoly.zero(ring) ** -1

    def test_huge_weight_power_is_immediate(self):
        ring = PolyRing(["x"], QQ)
        w = LaurentPoly(ring, {1: ring.one()})
        assert (w ** 10**9).weights() == [10**9]
        assert (w ** -10**9).weights() == [-10**9]


class TestGmAction:
    def test_validate(self, gm_diag):
        assert validate_gm_action(gm_diag.action).passed

    def test_unit_axiom_violation_detected(self):
        ring = PolyRing(["x"], QQ)
        bad = GmCoAction(ring, [LaurentPoly(ring, {1: ring.var("x"),
                                                   0: ring.var("x")})])
        report = validate_gm_action(bad)
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
