from fractions import Fraction

import pytest

from pairkit import invariants
from pairkit.cli import mukai_predicate
from pairkit.errors import AlgebraError, ValidationError
from pairkit.fields import QQ
from pairkit.gbasis import Ideal
from pairkit.invariants import (InvariantBasis, NagataSpec, cross_section_ideal,
                                cross_section_report, dixmier_generators,
                                factor_through_kernel, induced_problem,
                                nagata_build, nagata_oracle_invariants,
                                relations_presentation, verify_generators)
from pairkit.pairs import check_alpha_pair, pair_from_problem
from pairkit.poly import PolyRing, RationalFunction
from pairkit.problem import parse_problem, parse_rational, render_problem

from conftest import load
from oracles import ideals_equal


def verified_pair(problem, idx=1):
    pair = pair_from_problem(problem, idx)
    check_alpha_pair(problem.action, pair)
    return pair


class TestDixmier:
    def test_e1(self, e1):
        basis = dixmier_generators(e1.action, verified_pair(e1))
        z1 = e1.ring.var("z1")
        assert basis.f[0] == RationalFunction.from_poly(z1)
        assert basis.f[1].is_zero()
        assert basis.Hbar == RationalFunction.from_poly(z1)
        assert basis.powers == [0, 0]

    def test_heisenberg_free_action_has_constant_invariants(self, heisenberg):
        basis = dixmier_generators(heisenberg.action, verified_pair(heisenberg))
        assert all(fi.is_zero() for fi in basis.f)

    def test_nagata21(self):
        problem = nagata_build(NagataSpec(2, 1, [[1], [2]]))
        basis = dixmier_generators(problem.action, verified_pair(problem))
        ring = problem.ring
        x1, x2, x3, x4 = ring.gens()
        expected = RationalFunction(x2 * x3 + (x1 * x4).scale(Fraction(2)), x2)
        assert basis.f[2] == expected
        assert basis.f[3].is_zero()
        assert basis.Hbar == RationalFunction.from_poly(x2)
        assert basis.powers[2] == 1

    def test_requires_principle_pair(self, e2):
        pair = verified_pair(e2)
        assert pair.quasi_principle and not pair.principle
        with pytest.raises(ValidationError, match="principle"):
            dixmier_generators(e2.action, pair)

    def test_postcondition_guards_forged_flags(self, e1):
        pair = pair_from_problem(e1, 2)
        check_alpha_pair(e1.action, pair)
        pair.verified = pair.principle = True
        with pytest.raises(AlgebraError, match="not\\s+invariant"):
            dixmier_generators(e1.action, pair)


class TestVerifyGenerators:
    def test_e1_probes(self, e1):
        basis = dixmier_generators(e1.action, verified_pair(e1))
        probes = [parse_rational("z1", e1.ring), parse_rational("1/z1", e1.ring)]
        report = verify_generators(e1.action, basis, probes)
        assert report.passed

    def test_nagata_probe(self):
        spec = NagataSpec(2, 1, [[1], [2]])
        problem = nagata_build(spec)
        basis = dixmier_generators(problem.action, verified_pair(problem))
        report = verify_generators(problem.action, basis,
                                   nagata_oracle_invariants(spec, problem))
        assert report.passed

    def test_non_invariant_probe_rejected(self, e1):
        basis = dixmier_generators(e1.action, verified_pair(e1))
        with pytest.raises(ValidationError, match="not invariant"):
            verify_generators(e1.action, basis, [parse_rational("z2", e1.ring)])


class TestRelationsPresentation:
    # the quotient file of test_cli.TestRelationLines: z1/(1 + z2) is a pair
    # for z1 -> z1 + t modulo <z2> only
    QUOTIENT = ("field Q\nring z1 z2\nrelation z2\ngroup dim 1 coords t\n"
                "mult t = a1 + b1\ninv t = -t\nact z1 = z1 + t\nact z2 = z2\n"
                "pair 1 g z1\npair 1 h 1 + z2\n")

    def test_library_calls_honour_the_relation_lines(self):
        """README's library snippet agrees with `check-pair` and
        `invariants --relations` on a quotient ring: the action carries I."""
        problem = parse_problem(self.QUOTIENT)
        pair = pair_from_problem(problem, 1)
        assert check_alpha_pair(problem.action, pair).get("identity") == "pass"
        presentation = relations_presentation(dixmier_generators(problem.action, pair))
        assert [g.text() for g in presentation.gens] == ["W2", "W1"]

    def test_e1(self, e1):
        basis = dixmier_generators(e1.action, verified_pair(e1))
        presentation = relations_presentation(basis)
        assert [g.text() for g in presentation.gens] == ["W2"]

    def test_heisenberg(self, heisenberg):
        basis = dixmier_generators(heisenberg.action, verified_pair(heisenberg))
        presentation = relations_presentation(basis)
        assert sorted(g.text() for g in presentation.gens) == ["W1", "W2", "W3"]

    def test_nagata21(self):
        problem = nagata_build(NagataSpec(2, 1, [[1], [2]]))
        basis = dixmier_generators(problem.action, verified_pair(problem))
        presentation = relations_presentation(basis)
        assert [g.text() for g in presentation.gens] == ["W4"]

    def test_relations_vanish_at_generators(self):
        problem = nagata_build(NagataSpec(2, 1, [[1], [2]]))
        basis = dixmier_generators(problem.action, verified_pair(problem))
        presentation = relations_presentation(basis)
        f_map = {w: fi for w, fi in zip(presentation.ring.names, basis.f)}
        for g in presentation.gens:
            assert g.subs_rational(f_map).is_zero()


    @pytest.mark.parametrize("problem", [
        "e1.prob", "e1_stable.prob", "ga2_q.prob", "ga3_f2.prob", "heisenberg.prob",
        NagataSpec(2, 1, [[1], [2]]), NagataSpec(4, 2, [[1, 0], [0, 1], [1, 1], [1, 2]]),
    ], ids=lambda p: p if isinstance(p, str) else f"nagata-{p.n}-{p.r}")
    def test_certified_presentation_is_the_full_elimination(self, problem, monkeypatch):
        """With the certificate denied, the full graph ideal is eliminated;
        the generators and their order are the same either way."""
        problem = load(problem) if isinstance(problem, str) else nagata_build(problem)
        basis = dixmier_generators(problem.action, verified_pair(problem))
        certified = relations_presentation(basis)
        monkeypatch.setattr(invariants, "formal_jacobian_rank", lambda fs: -1)
        full = relations_presentation(basis)
        assert certified.ring.names == full.ring.names
        assert [g.text() for g in certified.gens] == [g.text() for g in full.gens]

    def test_dependent_generators_fall_back(self, e1):
        """Generators of e1's ring z1 z2, which has no relations."""
        z1 = e1.ring.var("z1")
        fs = [RationalFunction.from_poly(z1), RationalFunction.from_poly(z1 * z1),
              RationalFunction.from_poly(e1.ring.zero())]
        presentation = relations_presentation(InvariantBasis(e1.action, None, fs,
                                                             None, None, None))
        assert [g.text() for g in presentation.gens] == ["W3", "W1^2 - W2"]


class TestFactorThroughKernel:
    def test_e2_frobenius(self, e2):
        new_action, report = factor_through_kernel(e2.action, e2.endo)
        assert report.passed
        big = new_action.big_ring
        assert new_action.v_for("z2") == big.var("z2") + big.var("u") * big.var("z1")
        # induced law is the additive group again
        a1 = new_action.law.mult_ring.var("a1")
        b1 = new_action.law.mult_ring.var("b1")
        assert new_action.law.mult == [a1 + b1]

    def test_identity_factors_verbatim(self, e1):
        alpha = e1.group.identity_endomorphism()
        new_action, _ = factor_through_kernel(e1.action, alpha)
        rename = dict(zip(new_action.law.coords, e1.group.coords))
        assert [v.cast(e1.action.big_ring, rename=rename) for v in new_action.v] \
            == list(e1.action.v)

    def test_artin_schreier_square(self, e2_sep):
        new_action, report = factor_through_kernel(e2_sep.action, e2_sep.endo)
        assert report.passed
        big = new_action.big_ring
        expected = big.var("z2") + big.var("u") ** 2 * big.var("z1")
        assert new_action.v_for("z2") == expected

    def test_kernel_must_act_trivially(self):
        text = ("field Fp 2\nring z1 z2\ngroup dim 1 coords t\n"
                "mult t = a1 + b1\ninv t = -t\nendo t = t^2\n"
                "act z1 = z1\nact z2 = z2 + t*z1\n")
        problem = parse_problem(text)
        with pytest.raises(ValidationError, match="does not act trivially|factor"):
            factor_through_kernel(problem.action, problem.endo)

    def test_induced_dixmier_pulls_back(self, e2):
        new_action, _ = factor_through_kernel(e2.action, e2.endo)
        induced = induced_problem(e2, new_action)
        pair = verified_pair(induced)
        assert pair.principle
        basis = dixmier_generators(induced.action, pair)
        assert basis.f[0] == RationalFunction.from_poly(induced.ring.var("z1"))
        assert basis.f[1].is_zero()
        for fi in basis.f:
            assert e2.action.is_invariant(fi)

    def test_heisenberg_frobenius_twist(self):
        # non-commutative case: Heisenberg over F_2 acting through Frobenius;
        # the induced action must be the plain regular action again
        from pairkit.actions import CoAction, validate_action
        from pairkit.fields import FieldSpec
        from pairkit.groups import Endomorphism, mult_var_names
        from pairkit.poly import PolyRing
        from test_groups import heisenberg_law

        F2 = FieldSpec.prime(2)
        law = heisenberg_law(F2)
        ring = PolyRing(["z1", "z2", "z3"], F2)
        big = PolyRing(ring.names + law.coords, F2)
        a_names, b_names = mult_var_names(3)
        z_vars = [big.var(n) for n in ring.names]
        frob_y = [big.var(c) ** 2 for c in law.coords]
        v = [m.subs_poly({**dict(zip(a_names, frob_y)),
                          **dict(zip(b_names, z_vars))})
             for m in law.mult]
        action = CoAction(law, ring, v, [])
        assert validate_action(action).passed
        alpha = Endomorphism(law, [law.coords_ring.var(c) ** 2 for c in law.coords])
        new_action, report = factor_through_kernel(action, alpha)
        assert report.passed
        # induced law is Heisenberg again: m3 = a3 + b3 + a1*b2
        mring = new_action.law.mult_ring
        assert new_action.law.mult[2] == mring.var("a3") + mring.var("b3") \
            + mring.var("a1") * mring.var("b2")
        nbig = new_action.big_ring
        u = new_action.law.coords
        assert new_action.v_for("z3") == nbig.var(u[2]) + nbig.var("z3") \
            + nbig.var(u[0]) * nbig.var("z2")


class TestCrossSection:
    def test_e1(self, e1):
        pair = verified_pair(e1)
        ideal = cross_section_ideal(pair)
        assert [g.text() for g in ideal.gens] == ["z2"]
        report = cross_section_report(e1.action, pair, e1.points)
        assert report.get("H") == "z1"
        assert report.get("stabilizer-trivial(1, 0)") == "pass"
        assert report.get("point(0, 5)") == "not on the cross section"

    def test_heisenberg_origin_section(self, heisenberg):
        pair = verified_pair(heisenberg)
        ideal = cross_section_ideal(pair)
        assert ideals_equal(ideal, Ideal(heisenberg.ring, heisenberg.ring.gens()))

    def test_nagata(self):
        problem = nagata_build(NagataSpec(2, 1, [[1], [2]]))
        pair = verified_pair(problem)
        ideal = cross_section_ideal(pair)
        assert [g.text() for g in ideal.gens] == ["x4"]
        assert pair.H.text() == "x2"


class TestNagata:
    def test_build_2_1(self):
        problem = nagata_build(NagataSpec(2, 1, [[1], [2]]))
        act = problem.action
        big = act.big_ring
        assert act.v_for("x3") == big.var("x3") - (big.var("s") * big.var("x1")).scale(Fraction(2))
        assert act.v_for("x4") == big.var("x4") + big.var("s") * big.var("x2")
        g, h = problem.pairs[1]
        assert [p.text() for p in g] == ["x4"]
        assert [p.text() for p in h] == ["x2"]

    def test_build_3_1(self):
        problem = nagata_build(NagataSpec(3, 1, [[1], [2], [3]]))
        g, h = problem.pairs[1]
        assert [p.text() for p in g] == ["x5", "x6"]
        assert [p.text() for p in h] == ["x2", "x3"]
        assert problem.group.s == 2

    def test_identical_rows_rejected(self):
        with pytest.raises(ValidationError, match="coincide"):
            NagataSpec(3, 1, [[1], [1], [1]])

    def test_zero_minor_rejected(self):
        with pytest.raises(ValidationError, match="zero minor"):
            NagataSpec(2, 1, [[1], [0]])

    def test_emitted_problem_roundtrips(self):
        problem = nagata_build(NagataSpec(2, 1, [[1], [2]]))
        assert parse_problem(render_problem(problem)) == problem

    def test_oracle_invariants(self):
        spec = NagataSpec(2, 1, [[1], [2]])
        problem = nagata_build(spec)
        oracle = nagata_oracle_invariants(spec, problem)
        assert [o.text() for o in oracle] == ["x1", "x2", "x2*x3 + 2*x1*x4"]

        spec31 = NagataSpec(3, 1, [[1], [2], [3]])
        problem31 = nagata_build(spec31)
        oracle31 = nagata_oracle_invariants(spec31, problem31)
        assert oracle31[-1].text() == "x2*x3*x4 + 2*x1*x3*x5 + 3*x1*x2*x6"

    def test_rational_points(self):
        spec = NagataSpec(2, 1, [[Fraction(1, 2)], [Fraction(3)]])
        problem = nagata_build(spec)
        assert verified_pair(problem).principle

    def test_float_point_is_refused(self):
        with pytest.raises(ValidationError, match=r"not an exact rational: 0\.1"):
            NagataSpec(3, 1, [[0.1], [1], [2]])


class TestVerifyOracleUpToN4:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_oracle_probes_verify(self, n):
        spec = NagataSpec(n, 1, [[i] for i in range(1, n + 1)])
        problem = nagata_build(spec)
        basis = dixmier_generators(problem.action, verified_pair(problem))
        report = verify_generators(problem.action, basis,
                                   nagata_oracle_invariants(spec, problem))
        assert report.passed


class TestMukai:
    def test_boundary(self):
        assert mukai_predicate(9, 3) is True

    def test_beyond_boundary(self):
        assert mukai_predicate(10, 3) is False

    def test_small(self):
        assert mukai_predicate(4, 2) is True

    def test_monotone_in_n(self):
        for r in (2, 3, 4):
            seen_false = False
            for n in range(r + 1, r + 16):
                value = mukai_predicate(n, r)
                if seen_false:
                    assert value is False
                seen_false = seen_false or not value

    def test_matches_the_rational_inequality(self):
        for n in range(2, 40):
            for r in range(1, n):
                expected = Fraction(1, r) + Fraction(1, n - r) >= Fraction(1, 2)
                assert mukai_predicate(n, r) is expected, (n, r)

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            mukai_predicate(3, 3)
        with pytest.raises(ValidationError):
            mukai_predicate(3, 0)
