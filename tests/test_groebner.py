import hashlib
import random

import pytest

from pairkit import gbasis
from pairkit.errors import AlgebraError
from pairkit.fields import QQ, FieldSpec
from pairkit.gbasis import (Ideal, buchberger, eliminate, groebner,
                              ideal_dimension, lead_dimension,
                              normal_form, poly_divmod, saturate)
from pairkit.invariants import NagataSpec, nagata_build
from pairkit.orders import BlockOrder
from pairkit.pairs import graph_ideal, pair_from_problem
from pairkit.poly import PolyRing
from pairkit.problem import parse_problem

from oracles import (ideals_equal, in_ideal_bruteforce, lead_dimension_by_subsets,
                     random_polynomial)


@pytest.fixture()
def R():
    return PolyRing(["z1", "z2"], QQ)


class TestGroebner:
    def test_single_variable(self, R):
        G = groebner(Ideal(R, [R.var("z1")]))
        assert [p.text() for p in G.polys] == ["z1"]

    def test_unit_ideal(self, R):
        z1, z2 = R.gens()
        G = groebner(Ideal(R, [z1 * z2 - R.one(), z1 * z1]))
        assert [p.text() for p in G.polys] == ["1"]
        assert G.polys == [R.one()]

    def test_block_elimination_basis(self):
        # S-pair computation by hand: t*(t^2 - u) - t^3 = -t*u,
        # u*(t^2 - u) - t*(t*u) = -u^2; everything else reduces to zero.
        R = PolyRing(["t", "u"], QQ)
        t, u = R.gens()
        basis = buchberger([u - t * t, t**3], BlockOrder([0], 2))
        assert sorted(p.text() for p in basis) == ["t*u", "t^2 - u", "u^2"]

    def test_empty(self, R):
        assert groebner(Ideal(R, [])).polys == []
        assert groebner(Ideal(R, [R.zero()])).polys == []

    def test_deterministic_bit_for_bit(self, R):
        rng = random.Random(7)
        gens = [random_polynomial(R, rng, 3, 4) for _ in range(3)]
        first = [p.text() for p in buchberger(gens)]
        second = [p.text() for p in buchberger(gens)]
        assert first == second

    def test_lex_order_differs_from_grevlex(self, R):
        from pairkit.orders import LEX
        z1, z2 = R.gens()
        f = z1 + z2 * z2
        assert f.leading(LEX)[0] == (1, 0)       # z1 wins under lex
        assert f.leading()[0] == (0, 2)          # z2^2 wins under grevlex
        basis = buchberger([z1 * z1 - z2], LEX)
        assert [p.text() for p in basis] == ["z1^2 - z2"]

    def test_orders_are_total_and_multiplicative(self):
        # total order compatible with multiplication, on a monomial sample
        from itertools import product
        from pairkit.orders import GREVLEX, LEX, BlockOrder
        sample = [e for e in product(range(3), repeat=3)]
        for order in (GREVLEX, LEX, BlockOrder([0], 3), BlockOrder([1, 2], 3)):
            keys = [order.key(e) for e in sample]
            assert len(set(keys)) == len(sample)          # total on distinct monomials
            for a, b in zip(sample, sample[1:]):
                for c in ((1, 0, 2), (0, 1, 0)):
                    ac = tuple(x + y for x, y in zip(a, c))
                    bc = tuple(x + y for x, y in zip(b, c))
                    assert (order.key(a) < order.key(b)) == \
                        (order.key(ac) < order.key(bc))
            unit = (0, 0, 0)
            assert all(order.key(e) >= order.key(unit) for e in sample)


class TestNormalForm:
    def test_member(self, R):
        z1 = R.var("z1")
        G = groebner(Ideal(R, [z1]))
        assert normal_form(z1 * z1, G).is_zero()

    def test_non_member(self, R):
        z1, z2 = R.gens()
        G = groebner(Ideal(R, [z1]))
        assert normal_form(z2, G) == z2

    def test_frobenius_kernel(self):
        R = PolyRing(["t", "z1"], FieldSpec.prime(2))
        t, z1 = R.gens()
        G = groebner(Ideal(R, [t * t]))
        assert normal_form(t * t * z1, G).is_zero()

    def test_ring_mismatch(self, R):
        other = PolyRing(["z1"], QQ)
        G = groebner(Ideal(R, [R.var("z1")]))
        with pytest.raises(AlgebraError):
            normal_form(other.var("z1"), G)

    def test_membership_matches_bruteforce(self, R):
        rng = random.Random(20260808)
        for trial in range(8):
            gens = [random_polynomial(R, rng, 2, 3) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            G = groebner(Ideal(R, gens))
            for _ in range(4):
                f = random_polynomial(R, rng, 3, 3)
                degree = max([f.total_degree(), 0]
                             + [g.total_degree() for g in gens]) + 3
                assert normal_form(f, G).is_zero() == \
                    in_ideal_bruteforce(f, gens, degree)


class TestEliminate:
    def test_parametrized_curve(self):
        R = PolyRing(["z1", "T1", "T2"], QQ)
        z1, T1, T2 = R.gens()
        E = eliminate(Ideal(R, [T1 - z1, T2 - z1 * z1]), ["T1", "T2"])
        assert [p.text() for p in E.gens] == ["T1^2 - T2"]
        # oracle: the relation vanishes under the parametrization
        sub = PolyRing(["z1"], QQ)
        z = sub.var("z1")
        assert E.gens[0].subs_poly({"T1": z, "T2": z * z}).is_zero()

    def test_independent_images(self):
        R = PolyRing(["z1", "z2", "T1", "T2"], QQ)
        E = eliminate(Ideal(R, [R.var("T1") - R.var("z1"),
                                R.var("T2") - R.var("z2")]), ["T1", "T2"])
        assert E.gens == []

    def test_no_relation_in_single_tag(self):
        R = PolyRing(["z1", "z2", "T1"], QQ)
        E = eliminate(Ideal(R, [R.var("T1") * R.var("z1") - R.var("z2")]), ["T1"])
        assert E.gens == []

    def test_monotone(self):
        # every eliminated generator is a member of the original ideal
        R = PolyRing(["z1", "T1", "T2"], QQ)
        z1, T1, T2 = R.gens()
        I = Ideal(R, [T1 - z1, T2 - z1 * z1])
        G = groebner(I)
        E = eliminate(I, ["T1", "T2"])
        for g in E.gens:
            assert normal_form(g.cast(R), G).is_zero()


class TestIdealDimension:
    def test_zero_ideal(self, R):
        assert ideal_dimension(Ideal(R, [])) == 2

    def test_fat_point_char2(self):
        R = PolyRing(["t"], FieldSpec.prime(2))
        assert ideal_dimension(Ideal(R, [R.var("t") ** 2])) == 0

    def test_curve(self):
        R = PolyRing(["T1", "T2"], QQ)
        assert ideal_dimension(Ideal(R, [R.var("T2") - R.var("T1") ** 2])) == 1

    def test_unit(self, R):
        assert ideal_dimension(Ideal(R, [R.one()])) == -1

    def test_zero_dimensional_in_many_variables(self):
        """<t_1, ..., t_21>, the kernel ideal of U_7's identity: 2^21 subsets
        for a search over all of them, one branch for the hitting set."""
        R = PolyRing([f"t{i}" for i in range(1, 22)], QQ)
        assert ideal_dimension(Ideal(R, R.gens())) == 0

    def test_hitting_set_matches_subset_search(self):
        """Seeded random lead sets in n <= 8 variables, with zero-dimensional
        (a pure power of every variable) and unit (a constant lead) cases."""
        rng = random.Random(7)
        seen = set()
        for _ in range(400):
            n = rng.randint(1, 8)
            leads = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
                     for _ in range(rng.randint(0, 6))]
            roll = rng.random()
            if roll < 0.15:
                leads += [tuple(rng.randint(1, 3) * (i == j) for i in range(n))
                          for j in range(n)]
            elif roll < 0.2:
                leads.append((0,) * n)
            expected = lead_dimension_by_subsets(leads, n)
            assert lead_dimension(leads, n) == expected, (n, leads)
            seen.add(expected if expected <= 0 else "positive")
        assert seen == {-1, 0, "positive"}


class TestDivisionAndSaturation:
    def test_exact_division(self, R):
        z1, z2 = R.gens()
        f = (z1 + z2) * (z1 * z1 - z2)
        quotients, remainder = poly_divmod(f, [z1 + z2])
        assert remainder.is_zero()
        assert quotients[0] == z1 * z1 - z2

    def test_saturate(self, R):
        z1, z2 = R.gens()
        S = saturate(Ideal(R, [z1 * z2]), z1)
        assert ideals_equal(S, Ideal(R, [z2]))


# Nagata (7, 3): the standard basis, then points of the moment curve
NAGATA_7_3_POINTS = [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                     [1, 1, 1], [1, 2, 4], [1, 3, 9], [1, 4, 16]]

F2_SHEAR_4 = """version 1
field Fp 2
ring z0 z1 z2 z3 z4
group dim 4 coords t1 t2 t3 t4
mult t1 = a1 + b1
mult t2 = a2 + b2
mult t3 = a3 + b3
mult t4 = a4 + b4
inv t1 = -t1
inv t2 = -t2
inv t3 = -t3
inv t4 = -t4
act z0 = z0
act z1 = z1 + t1*z0
act z2 = z2 + t2*z0
act z3 = z3 + t3*z0
act z4 = z4 + t4*z0
pair 1 g z1
pair 1 g z2
pair 1 g z3
pair 1 g z4
pair 1 h z0
pair 1 h z0
pair 1 h z0
pair 1 h z0
"""


def trdeg_graph_ideal(problem):
    return graph_ideal(pair_from_problem(problem, 1).fractions(), "T")


class TestPairQueue:
    """The reduced basis is unique, so only the S-pair sequence shows a
    changed selection order or a wrongly pruned pair.  Each case pins the
    digest of the (lead_i, lead_j) sequence, the number of S-pairs formed,
    the number of partial reductions and how many of them left a nonzero
    remainder; the values were recorded with the list-scan pair selection
    that the heap queue replaced."""

    @staticmethod
    def record(monkeypatch, compute):
        sequence, reductions = [], []
        spoly, reduce = gbasis._spoly_dict, gbasis._reduce_dict

        def recording_spoly(f, g, p):
            sequence.append((f[0], g[0]))
            return spoly(f, g, p)

        def counting_reduce(f, divisors, order, p, full):
            remainder = reduce(f, divisors, order, p, full)
            if not full:
                reductions.append(bool(remainder))
            return remainder

        monkeypatch.setattr(gbasis, "_spoly_dict", recording_spoly)
        monkeypatch.setattr(gbasis, "_reduce_dict", counting_reduce)
        compute()
        digest = hashlib.sha256(repr(sequence).encode()).hexdigest()[:16]
        return digest, len(sequence), len(reductions), sum(reductions)

    def test_nagata_7_3_trdeg_block(self, monkeypatch):
        ideal, tags = trdeg_graph_ideal(
            nagata_build(NagataSpec(7, 3, NAGATA_7_3_POINTS)))
        got = self.record(monkeypatch, lambda: eliminate(ideal, tags))
        assert got == ("2f59c96e54bfe65d", 64, 64, 15)

    def test_f2_shear_grevlex(self, monkeypatch):
        ideal, _ = trdeg_graph_ideal(parse_problem(F2_SHEAR_4))
        got = self.record(monkeypatch, lambda: groebner(ideal))
        assert got == ("acb16d1da92b5b2a", 612, 556, 131)

    def test_f2_shear_block(self, monkeypatch):
        ideal, tags = trdeg_graph_ideal(parse_problem(F2_SHEAR_4))
        got = self.record(monkeypatch, lambda: eliminate(ideal, tags))
        assert got == ("106bec3040e5e6e1", 468, 468, 75)
