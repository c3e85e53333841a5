import random
from fractions import Fraction

import pytest

from pairkit.actions import CoAction
from pairkit import gbasis, pairs
from pairkit.errors import InternalCheckError, ValidationError
from pairkit.fields import QQ, FieldSpec
from pairkit.gbasis import (eliminate, groebner, ideal_dimension, Ideal,
                            normal_form)
from pairkit.groups import Endomorphism
from pairkit.linalg import formal_jacobian_rank, jacobian_rank
from pairkit.pairs import (AlphaPair, build_fppf_cover, check_alpha_pair,
                           check_pair_identity, graph_ideal, is_affine_stable,
                           kernel_acts_trivially, pair_from_problem, pedestal_ideal_from_pairs,
                           transcendence_degree, trdeg_by_elimination)
from pairkit.poly import PolyRing, RationalFunction
from pairkit.problem import parse_polynomial, parse_problem

from conftest import PROBLEMS, load
from oracles import (identity_kernel_acts_trivially_by_groebner, ideals_equal,
                     random_polynomial, random_rational_tuple)
from test_groups import heisenberg_law, vector_law


class TestPairIdentity:
    def test_e1_translation(self, e1):
        pair = pair_from_problem(e1, 1)
        report = check_pair_identity(e1.action, pair)
        assert report.entries == [("identity", "pass")]

    def test_e2_frobenius(self, e2):
        pair = pair_from_problem(e2, 1)
        assert check_pair_identity(e2.action, pair).passed

    def test_swapped_pair_fails_with_witness(self, e1):
        pair = pair_from_problem(e1, 2)
        report = check_pair_identity(e1.action, pair)
        assert not report.passed
        assert "t" in report.get("identity-witness")

    def test_scaling_invariance(self, e1):
        # (g, h) -> (c*g, c*h) leaves the identity check unchanged
        pair = pair_from_problem(e1, 1)
        scaled = AlphaPair(pair.alpha,
                           [g.scale(Fraction(7)) for g in pair.g],
                           [h.scale(Fraction(7)) for h in pair.h])
        assert check_pair_identity(e1.action, scaled).passed


class TestTranscendenceDegree:
    def setup_method(self):
        self.R = PolyRing(["z1", "z2"], QQ)

    def test_coordinates(self):
        fs = [RationalFunction.from_poly(g) for g in self.R.gens()]
        assert transcendence_degree(fs) == 2

    def test_algebraic_relation(self):
        z1 = self.R.var("z1")
        fs = [RationalFunction.from_poly(z1),
              RationalFunction.from_poly(z1 * z1)]
        assert transcendence_degree(fs) == 1

    def test_char2_square_is_still_transcendental(self):
        R = PolyRing(["z1"], FieldSpec.prime(2))
        f = RationalFunction.from_poly(R.var("z1") ** 2)
        assert transcendence_degree([f]) == 1

    def test_constants_give_zero(self):
        fs = [RationalFunction.from_poly(self.R.const(Fraction(3)))]
        assert transcendence_degree(fs) == 0

    def test_monotone_under_dropping(self):
        z1, z2 = self.R.gens()
        fs = [RationalFunction(z2, z1), RationalFunction.from_poly(z1 * z2),
              RationalFunction.from_poly(z1)]
        full = transcendence_degree(fs)
        for i in range(len(fs)):
            smaller = transcendence_degree(fs[:i] + fs[i + 1:])
            assert smaller <= full

    def test_agrees_with_jacobian_on_random_instances(self):
        rng = random.Random(97)
        R = PolyRing(["z1", "z2", "z3"], QQ)
        for _ in range(10):
            fs = random_rational_tuple(R, rng)
            fs = [f for f in fs if not f.is_zero()]
            if not fs:
                continue
            # crosscheck is internal: any disagreement raises
            degree = transcendence_degree(fs)
            assert degree == jacobian_rank(fs)


class TestJacobianCertificate:
    """A full formal Jacobian rank decides trdeg; anything short of it, and
    any ambient relation, goes to the elimination, which must agree."""

    @staticmethod
    def compare(ring, rng, count):
        """trdeg by the certificate route against the elimination on `count`
        seeded tuples; returns (certified, fell back) counts."""
        routes = [0, 0]
        compared = 0
        while compared < count:
            fs = [f for f in random_rational_tuple(ring, rng) if not f.is_zero()]
            if not fs:
                continue
            by_elimination = trdeg_by_elimination(fs)
            assert transcendence_degree(fs) == by_elimination, [f.text() for f in fs]
            assert by_elimination == ideal_dimension(eliminate(*graph_ideal(fs, "T")))
            routes[formal_jacobian_rank(fs) != len(fs)] += 1
            compared += 1
        return routes

    def test_agrees_with_elimination_over_q(self):
        """The criterion-07 generator and seed."""
        certified, fell_back = self.compare(PolyRing(["z1", "z2", "z3"], QQ),
                                            random.Random(20260808), 30)
        assert certified and fell_back

    @pytest.mark.parametrize("p, seed", [(2, 11), (7, 13)])
    def test_agrees_with_elimination_over_fp(self, p, seed):
        ring = PolyRing(["z1", "z2", "z3"], FieldSpec.prime(p))
        certified, fell_back = self.compare(ring, random.Random(seed), 25)
        assert certified and fell_back

    @pytest.fixture()
    def eliminations(self, monkeypatch):
        """The argument tuples of every `trdeg_by_elimination` call."""
        calls = []
        real = pairs.trdeg_by_elimination
        monkeypatch.setattr(pairs, "trdeg_by_elimination",
                            lambda *args: calls.append(args) or real(*args))
        return calls

    @pytest.mark.parametrize("p, texts, rank, degree", [
        (2, ["z1^2"], 0, 1),                 # inseparable: d(z1^2) = 0
        (7, ["z1^7 + z2", "z2"], 1, 2),      # inseparable pair
        (7, ["z1^7 + z2"], 1, 1),            # certified despite the z1^7
        (7, ["z1*z2", "z1*z2"], 1, 1),       # repeated function
        (2, ["1"], 0, 0),                    # constant
        (7, ["z1 + z2", "z1^2 + 2*z1*z2 + z2^2"], 1, 1),
    ])
    def test_only_a_short_rank_eliminates(self, p, texts, rank, degree, eliminations):
        ring = PolyRing(["z1", "z2"], FieldSpec.prime(p))
        fs = [RationalFunction.from_poly(parse_polynomial(t, ring)) for t in texts]
        assert formal_jacobian_rank(fs) == rank
        assert transcendence_degree(fs) == degree
        assert len(eliminations) == (rank < len(fs))
        assert pairs.trdeg_by_elimination(fs) == degree

    @pytest.mark.parametrize("field, texts, relations, degree", [
        (QQ, ["z1", "z1^2"], [], 1),
        (FieldSpec.prime(2), ["z1^2", "z2"], [], 2),
        (FieldSpec.prime(7), ["z1", "z2"], ["z2 - z1^2"], 1),
    ])
    def test_elimination_runs_buchberger_once(self, monkeypatch, field, texts,
                                              relations, degree):
        """The eliminated generators are already a grevlex basis of the
        contraction, so its dimension needs no second Buchberger run."""
        ring = PolyRing(["z1", "z2"], field)
        fs = [RationalFunction.from_poly(parse_polynomial(t, ring)) for t in texts]
        relations = [parse_polynomial(t, ring) for t in relations]
        calls = []
        real = gbasis.buchberger
        monkeypatch.setattr(gbasis, "buchberger",
                            lambda *args: calls.append(args) or real(*args))
        assert trdeg_by_elimination(fs, relations) == degree
        assert len(calls) == 1

    def test_relations_always_eliminate(self, eliminations):
        R = PolyRing(["z1", "z2"], QQ)
        fs = [RationalFunction.from_poly(g) for g in R.gens()]
        assert transcendence_degree(fs, relations=[R.var("z2")]) == 1
        assert len(eliminations) == 1

    def test_fallback_keeps_the_q_crosscheck(self, monkeypatch):
        R = PolyRing(["z1", "z2"], QQ)
        z1 = R.var("z1")
        fs = [RationalFunction.from_poly(z1), RationalFunction.from_poly(z1 * z1)]
        monkeypatch.setattr(pairs, "trdeg_by_elimination", lambda *args: 2)
        with pytest.raises(InternalCheckError, match="disagreement"):
            transcendence_degree(fs)


class TestKernelActsTrivially:
    def test_e2_infinitesimal_kernel(self, e2):
        assert kernel_acts_trivially(e2.action, e2.endo)

    def test_identity_kernel(self, e1):
        alpha = e1.group.identity_endomorphism()
        assert kernel_acts_trivially(e1.action, alpha)

    @pytest.mark.parametrize("field", [QQ, FieldSpec.prime(2), FieldSpec.prime(5)],
                             ids=["Q", "F2", "F5"])
    def test_identity_agrees_with_the_groebner_route(self, field):
        """For alpha the identity the test is the unit axiom v_i(Z, 0) = z_i;
        the oracle reduces each v_i - z_i modulo <t_1..t_s> in k[Z, t].  The
        co-actions are seeded perturbations z_i + p or z_i + t_j*p, valid
        actions or not, plus the failing table's `action-unit` case."""
        rng = random.Random(16 if field.p is None else field.p)
        ring = PolyRing(["z1", "z2"], field)
        line = vector_law(1, field)
        big = PolyRing(["z1", "z2", "t"], field)
        z1, z2, t = big.gens()
        cases = [CoAction(line, ring, [z1 + t, z2 + big.one() + t * z1], [])]
        for _ in range(30):
            law = rng.choice([line, vector_law(2, field), heisenberg_law(field)])
            big = PolyRing(ring.names + law.coords, field)
            v = []
            for z in big.gens()[:ring.nvars]:
                shift = random_polynomial(big, rng, 2, 2)
                if rng.random() < 0.6:
                    shift = shift * big.var(rng.choice(law.coords))
                v.append(z + shift)
            cases.append(CoAction(law, ring, v, []))
        verdicts = []
        for action in cases:
            alpha = action.law.identity_endomorphism()
            verdict = kernel_acts_trivially(action, alpha)
            assert verdict == identity_kernel_acts_trivially_by_groebner(action), action.v
            verdicts.append(verdict)
        assert not verdicts[0] and set(verdicts) == {True, False}

    def test_kernel_acts_trivially_modulo_the_relations(self):
        """Over F_2, v(z1) - z1 = t^2 + t*z2 is t*z2 modulo ker(t -> t^2) =
        <t^2>, which lies in I = <z2>; and z1 -> z1 + z2 breaks the unit
        axiom in the free ring only.  Without I both tests fail."""
        f2 = FieldSpec.prime(2)
        law = vector_law(1, f2)
        ring = PolyRing(["z1", "z2"], f2)
        z1, z2, t = PolyRing(["z1", "z2", "t"], f2).gens()
        frobenius = Endomorphism(law, [law.coords_ring.var("t") ** 2])
        for v, alpha in (([z1 + t * t + t * z2, z2], frobenius),
                         ([z1 + z2, z2], law.identity_endomorphism())):
            assert kernel_acts_trivially(CoAction(law, ring, v, [ring.var("z2")]), alpha)
            assert not kernel_acts_trivially(CoAction(law, ring, v, []), alpha)

    def test_linear_action_with_frobenius_fails(self):
        # z2 -> z2 + t*z1 but alpha = t^2: t*z1 is not in <t^2>
        law = vector_law(1, FieldSpec.prime(2))
        ring = PolyRing(["z1", "z2"], FieldSpec.prime(2))
        big = PolyRing(["z1", "z2", "t"], FieldSpec.prime(2))
        action = CoAction(law, ring,
                          [big.var("z1"), big.var("z2") + big.var("t") * big.var("z1")], [])
        alpha = Endomorphism(law, [law.coords_ring.var("t") ** 2])
        assert not kernel_acts_trivially(action, alpha)


class TestCheckAlphaPair:
    def test_e1_principle(self, e1):
        pair = pair_from_problem(e1, 1)
        report = check_alpha_pair(e1.action, pair)
        assert report.passed
        assert report.get("identity") == "pass"
        assert report.get("trdeg") == 1
        assert report.get("classification") == "principle"
        assert pair.verified and pair.principle and pair.quasi_principle

    def test_e2_quasi_principle(self, e2):
        pair = pair_from_problem(e2, 1)
        report = check_alpha_pair(e2.action, pair)
        assert report.passed
        assert report.get("quasi-principle") == "true"
        assert report.get("principle") == "false"
        assert pair.quasi_principle and not pair.principle

    def test_remark_candidates_fail(self, remark):
        pair = pair_from_problem(remark, 1)
        report = check_alpha_pair(remark.action, pair)
        assert "identity" in report.failures

    def test_non_surjective_alpha_rejected(self, e1):
        law = e1.group
        zero = Endomorphism(law, [law.coords_ring.zero()])
        pair = AlphaPair(zero, [e1.ring.var("z2")], [e1.ring.var("z1")])
        with pytest.raises(ValidationError, match="surjective"):
            check_alpha_pair(e1.action, pair)

    def test_trivial_action_rejected(self):
        law = vector_law(1, QQ)
        ring = PolyRing(["z1"], QQ)
        big = PolyRing(["z1", "t"], QQ)
        action = CoAction(law, ring, [big.var("z1")], [])
        pair = AlphaPair(law.identity_endomorphism(), [ring.var("z1")], [ring.one()])
        with pytest.raises(ValidationError, match="trivial"):
            check_alpha_pair(action, pair)

    def test_h_invariance_reported_not_required(self, e1):
        # (z1*z2, z2) transforms like z1 through the identity: it is a pair
        # whose H = z2 is not invariant; the toolkit reports and proceeds
        ring = e1.ring
        pair = AlphaPair(e1.group.identity_endomorphism(),
                         [ring.var("z1") * ring.var("z2") + ring.var("z2") ** 2],
                         [ring.var("z2")])
        report = check_alpha_pair(e1.action, pair)
        assert report.get("H-invariant") == "false"
        # z2*(z1 + z2) / z2 = z1 + z2 which moves under the action: fails, but
        # H-invariance played no role in the verdict keys
        assert "H-invariant" not in report.failures


class TestNilpotentDenominators:
    """On A = Q[z1, z2]/<z2>, z1/z2 is undefined: its graph ideal is the unit
    ideal, which once read as trdeg -1 on the library route."""

    QUOTIENT = ("field Q\nring z1 z2\nrelation z2\ngroup dim 1 coords t\n"
                "mult t = a1 + b1\ninv t = -t\nact z1 = z1 + t\nact z2 = z2\n")

    def test_library_routes_refuse(self):
        problem = parse_problem(self.QUOTIENT)
        z1, z2 = problem.ring.gens()
        with pytest.raises(ValidationError, match="nilpotent modulo the relations"):
            transcendence_degree([RationalFunction(z1, z2)], [z2])
        pair = AlphaPair(problem.group.identity_endomorphism(), [z1], [z2])
        with pytest.raises(ValidationError, match="nilpotent modulo the relations"):
            check_alpha_pair(problem.action, pair)

    def test_pair_from_problem_keeps_its_refusal(self):
        """g = z1*z2, h = z2 is z1/1 once the fraction cancels its monomial
        content; the problem route sees H = z2 before that."""
        problem = parse_problem(self.QUOTIENT + "pair 1 g z1*z2\npair 1 h z2\n")
        with pytest.raises(ValidationError, match="pair 1: H = z2 is nilpotent modulo "
                           "the relations, so g/h is undefined in A"):
            pair_from_problem(problem, 1)

SHIPPED_PAIRS = [(path.name, idx) for path in sorted(PROBLEMS.glob("*.prob"))
                 for idx in sorted(load(path.name).pairs)]


@pytest.mark.parametrize("name,idx", SHIPPED_PAIRS,
                         ids=[f"{name}-{idx}" for name, idx in SHIPPED_PAIRS])
def test_verdicts_agree_with_the_report(name, idx):
    """A pair is verified iff the identity and trdeg-full pass, and principle
    or quasi-principle iff it is verified and the report says so."""
    problem = load(name)
    pair = pair_from_problem(problem, idx)
    assert not (pair.verified or pair.quasi_principle or pair.principle)
    report = check_alpha_pair(problem.action, pair)
    verified = report.get("identity") == "pass" and report.get("trdeg-full") == "pass"
    assert pair.verified == verified
    assert pair.principle == (verified and report.get("principle") == "true")
    assert pair.quasi_principle == (verified and report.get("quasi-principle") == "true")


class TestPedestalAndStability:
    def checked_pair(self, problem, idx=1):
        pair = pair_from_problem(problem, idx)
        check_alpha_pair(problem.action, pair)
        return pair

    def test_single_pair(self, e1):
        P = pedestal_ideal_from_pairs([self.checked_pair(e1)])
        assert [g.text() for g in P.gens] == ["z1"]

    def test_reduction_of_redundant_generators(self, e1):
        first = self.checked_pair(e1)
        squared = AlphaPair(e1.group.identity_endomorphism(),
                            [e1.ring.var("z1") * e1.ring.var("z2")],
                            [e1.ring.var("z1") ** 2])
        check_alpha_pair(e1.action, squared)
        assert squared.verified
        P = pedestal_ideal_from_pairs([first, squared])
        assert ideals_equal(P, Ideal(e1.ring, [e1.ring.var("z1")]))

    def test_order_independence(self, e1):
        first = self.checked_pair(e1)
        squared = AlphaPair(e1.group.identity_endomorphism(),
                            [e1.ring.var("z1") * e1.ring.var("z2")],
                            [e1.ring.var("z1") ** 2])
        check_alpha_pair(e1.action, squared)
        a = pedestal_ideal_from_pairs([first, squared])
        b = pedestal_ideal_from_pairs([squared, first])
        assert [g.text() for g in a.gens] == [g.text() for g in b.gens]

    def test_unverified_pair_rejected(self, e1):
        pair = pair_from_problem(e1, 1)
        with pytest.raises(ValidationError, match="verified"):
            pedestal_ideal_from_pairs([pair])

    def test_large_pedestal_vs_quasi_filter(self, e2):
        # (z2^2, z1^2) over F_2 transforms through t^4: a genuine alpha-pair
        # but not quasi-principle (t^2*z1 is outside <t^4>)
        pair1 = self.checked_pair(e2)
        t = e2.group.coords_ring.var("t")
        alpha4 = Endomorphism(e2.group, [t ** 4])
        squared = AlphaPair(alpha4, [e2.ring.var("z2") ** 2],
                            [e2.ring.var("z1") ** 2])
        report = check_alpha_pair(e2.action, squared)
        assert report.passed and not squared.quasi_principle
        assert report.get("separable") == "false"
        P_all = pedestal_ideal_from_pairs([pair1, squared], "all")
        assert [g.text() for g in P_all.gens] == ["z1"]
        P_quasi = pedestal_ideal_from_pairs([squared], "quasi-principle-only")
        assert P_quasi.gens == []
        assert not is_affine_stable([Fraction(1), Fraction(1)], P_quasi)

    def test_stability(self, e1):
        P = pedestal_ideal_from_pairs([self.checked_pair(e1)])
        assert is_affine_stable([Fraction(1), Fraction(0)], P)
        assert not is_affine_stable([Fraction(0), Fraction(5)], P)

    def test_zero_pedestal_never_stable(self, e1):
        P = Ideal(e1.ring, [])
        assert not is_affine_stable([Fraction(1), Fraction(1)], P)

    def test_empty_pair_list_gives_zero_ideal(self, e1):
        P = pedestal_ideal_from_pairs([], ring=e1.ring)
        assert P.gens == []
        with pytest.raises(ValidationError, match="ring"):
            pedestal_ideal_from_pairs([])


class TestFppfCover:
    def test_e2_cover(self, e2):
        pair = pair_from_problem(e2, 1)
        check_alpha_pair(e2.action, pair)
        cover, report = build_fppf_cover(e2.action, pair)
        assert report.passed
        assert [r.text() for r in cover.action.relations] == ["z1*w^2 + z2"]
        assert cover.action.v_for("w").text() == "w + t"
        g, h = cover.pairs[1]
        assert (g[0].text(), h[0].text()) == ("w", "1")
        assert report.get("saturated") == "false"
        assert report.get("cover-pair-classification") == "principle"

    def test_e1_cover_is_degree_one(self, e1):
        pair = pair_from_problem(e1, 1)
        check_alpha_pair(e1.action, pair)
        cover, report = build_fppf_cover(e1.action, pair)
        assert [r.text() for r in cover.action.relations] == ["z1*w - z2"]
        assert report.passed

    def test_frobenius_squared_cover(self, e2_frob2):
        pair = pair_from_problem(e2_frob2, 1)
        check_alpha_pair(e2_frob2.action, pair)
        cover, report = build_fppf_cover(e2_frob2.action, pair)
        assert [r.text() for r in cover.action.relations] == ["z1*w^4 + z2"]
        assert report.passed

    def test_relation_ideal_is_action_stable(self, e2):
        pair = pair_from_problem(e2, 1)
        check_alpha_pair(e2.action, pair)
        cover, _ = build_fppf_cover(e2.action, pair)
        big = cover.action.big_ring
        basis = groebner(Ideal(big, [r.cast(big) for r in cover.action.relations]))
        for rel in cover.action.relations:
            pushed = cover.action.pushforward(RationalFunction.from_poly(rel))
            assert pushed.den.is_one() and normal_form(pushed.num, basis).is_zero()

    def test_unverified_input_rejected(self, e1):
        pair = pair_from_problem(e1, 1)
        with pytest.raises(ValidationError, match="verified"):
            build_fppf_cover(e1.action, pair)
