import random
from fractions import Fraction

import pytest

from pairkit.errors import ValidationError
from pairkit.fields import QQ, FieldSpec
from pairkit.gbasis import Ideal
from pairkit.groups import (Endomorphism, GroupLaw, compose_endomorphisms,
                            is_surjective, kernel_ideal, mult_var_names,
                            validate_endomorphism, validate_group_law)
from pairkit.poly import PolyRing, RationalFunction

from oracles import ideals_equal

F2 = FieldSpec.prime(2)


def vector_law(s, field, coord_prefix="t"):
    coords = [f"{coord_prefix}{i}" for i in range(1, s + 1)] if s > 1 else [coord_prefix]
    a_names, b_names = mult_var_names(s)
    mring = PolyRing(a_names + b_names, field)
    cring = PolyRing(coords, field)
    mult = [mring.var(a) + mring.var(b) for a, b in zip(a_names, b_names)]
    inv = [-cring.var(c) for c in coords]
    return GroupLaw(coords, field, mult, inv)


def heisenberg_law(field):
    mring = PolyRing(["a1", "a2", "a3", "b1", "b2", "b3"], field)
    cring = PolyRing(["t1", "t2", "t3"], field)
    a = [mring.var(f"a{i}") for i in (1, 2, 3)]
    b = [mring.var(f"b{i}") for i in (1, 2, 3)]
    t = [cring.var(f"t{i}") for i in (1, 2, 3)]
    mult = [a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1]]
    inv = [-t[0], -t[1], -t[2] + t[0] * t[1]]
    return GroupLaw(["t1", "t2", "t3"], field, mult, inv)


class TestValidateGroupLaw:
    def test_additive_group(self):
        assert validate_group_law(vector_law(1, QQ)).passed

    def test_heisenberg(self):
        report = validate_group_law(heisenberg_law(QQ))
        assert report.passed

    def test_multiplicative_law_fails_identity(self):
        mring = PolyRing(["a1", "b1"], QQ)
        cring = PolyRing(["t"], QQ)
        law = GroupLaw(["t"], QQ, [mring.var("a1") * mring.var("b1")],
                       [cring.var("t")])
        report = validate_group_law(law)
        assert not report.passed
        assert "identity-left" in report.failures

    def test_nonassociative_law_detected(self):
        mring = PolyRing(["a1", "b1"], QQ)
        cring = PolyRing(["t"], QQ)
        # m = a + b + a^2*b^2 satisfies both unit axioms but not associativity
        m = mring.var("a1") + mring.var("b1") \
            + (mring.var("a1") ** 2) * (mring.var("b1") ** 2)
        law = GroupLaw(["t"], QQ, [m], [-cring.var("t")])
        report = validate_group_law(law)
        assert "associativity" in report.failures


class TestIdentityLinesFixTheLinearPart:
    """identity-left forces m_i(a, 0) = a_i and identity-right forces
    m_i(0, b) = b_i, so together they force the degree-1 part of each m_i to
    be a_i + b_i; the report needs no line of its own for it."""

    @staticmethod
    def random_law(field, rng):
        a_names, b_names = mult_var_names(2)
        mring = PolyRing(a_names + b_names, field)
        cring = PolyRing(["t1", "t2"], field)
        a, b = mring.gens()[:2], mring.gens()[2:]
        pool = [lambda: rng.choice(a), lambda: rng.choice(b),
                lambda: rng.choice(a) * rng.choice(a), lambda: rng.choice(b) ** 2,
                lambda: rng.choice(a) * rng.choice(b), lambda: mring.one()]
        mult = []
        for i in range(2):
            m = a[i] + b[i]
            for _ in range(rng.randint(0, 2)):
                # mixed a*b terms keep both identity lines; the rest break one
                term = pool[4]() if rng.random() < 0.5 else rng.choice(pool)()
                m = m + term.scale(field.div(rng.choice([-3, -1, 1, 2, 3]), 1))
            mult.append(m)
        return GroupLaw(["t1", "t2"], field, mult, [-g for g in cring.gens()]), a, b

    @pytest.mark.parametrize("field", [QQ, F2, FieldSpec.prime(5)], ids=["Q", "F2", "F5"])
    def test_identity_lines_force_linear_part(self, field):
        rng = random.Random(7 if field.p is None else field.p)
        identities_held = 0
        for _ in range(60):
            law, a, b = self.random_law(field, rng)
            failures = validate_group_law(law).failures
            if "identity-left" in failures or "identity-right" in failures:
                continue
            identities_held += 1
            for i, m in enumerate(law.mult):
                linear = {e: c for e, c in m.terms.items() if sum(e) == 1}
                assert linear == (a[i] + b[i]).terms, m.text()
        assert 0 < identities_held < 60

    def test_linear_part_law_fails_identity_right(self):
        """The failing table's `linear-part` law, m_2 = a2 + 3*b2 + a1*b1 over
        F_5, still fails: m_2(0, b) = 3*b2."""
        F5 = FieldSpec.prime(5)
        mring = PolyRing(["a1", "a2", "b1", "b2"], F5)
        a1, a2, b1, b2 = mring.gens()
        cring = PolyRing(["t1", "t2"], F5)
        law = GroupLaw(["t1", "t2"], F5, [a1 + b1, a2 + b2.scale(3) + a1 * b1],
                       [-g for g in cring.gens()])
        report = validate_group_law(law)
        assert "identity-right" in report.failures
        assert "identity-left" not in report.failures


class TestValidateEndomorphism:
    def test_frobenius_additive_in_char2(self):
        law = vector_law(1, F2)
        phi = Endomorphism(law, [law.coords_ring.var("t") ** 2])
        assert validate_endomorphism(law, phi).passed

    def test_squaring_fails_over_rationals(self):
        law = vector_law(1, QQ)
        phi = Endomorphism(law, [law.coords_ring.var("t") ** 2])
        report = validate_endomorphism(law, phi)
        assert "multiplication-compatibility" in report.failures

    def test_heisenberg_identity(self):
        law = heisenberg_law(QQ)
        assert validate_endomorphism(law, law.identity_endomorphism()).passed

    def test_heisenberg_weighted_scaling(self):
        law = heisenberg_law(QQ)
        t = law.coords_ring.gens()
        phi = Endomorphism(law, [t[0].scale(Fraction(2)), t[1].scale(Fraction(2)),
                                 t[2].scale(Fraction(4))])
        assert validate_endomorphism(law, phi).passed

    def test_origin_not_fixed(self):
        law = vector_law(1, QQ)
        phi = Endomorphism(law, [law.coords_ring.var("t") + law.coords_ring.one()])
        report = validate_endomorphism(law, phi)
        assert "fixes-origin" in report.failures


class TestCompose:
    def test_frobenius_after_artin_schreier(self):
        law = vector_law(1, F2)
        t = law.coords_ring.var("t")
        frob = Endomorphism(law, [t ** 2])
        artin = Endomorphism(law, [t ** 2 + t])
        composite = compose_endomorphisms(law, frob, artin)
        assert composite.phi[0] == t ** 4 + t ** 2

    def test_identity_neutral(self):
        law = vector_law(1, F2)
        t = law.coords_ring.var("t")
        frob = Endomorphism(law, [t ** 2])
        ident = law.identity_endomorphism()
        assert compose_endomorphisms(law, ident, frob) == frob
        assert compose_endomorphisms(law, frob, ident) == frob

    def test_heisenberg_identity_composition(self):
        law = heisenberg_law(QQ)
        assert compose_endomorphisms(law, law.identity_endomorphism(),
                                     law.identity_endomorphism()).is_identity()

    def test_composition_associative(self):
        law = vector_law(1, F2)
        t = law.coords_ring.var("t")
        endos = [law.identity_endomorphism(), Endomorphism(law, [t ** 2]),
                 Endomorphism(law, [t ** 2 + t])]
        for f in endos:
            for g in endos:
                for h in endos:
                    left = compose_endomorphisms(law, compose_endomorphisms(law, f, g), h)
                    right = compose_endomorphisms(law, f, compose_endomorphisms(law, g, h))
                    assert left == right


class TestKernelAndSurjectivity:
    def test_frobenius_kernel_not_radicalized(self):
        law = vector_law(1, F2)
        t = law.coords_ring.var("t")
        K = kernel_ideal(law, Endomorphism(law, [t ** 2]))
        assert [p.text() for p in K.gens] == ["t^2"]

    def test_identity_kernel_is_maximal_ideal_at_origin(self):
        law = heisenberg_law(QQ)
        K = kernel_ideal(law, law.identity_endomorphism())
        assert ideals_equal(K, Ideal(law.coords_ring, law.coords_ring.gens()))

    def test_artin_schreier_kernel(self):
        law = vector_law(1, F2)
        t = law.coords_ring.var("t")
        K = kernel_ideal(law, Endomorphism(law, [t ** 2 + t]))
        assert [p.text() for p in K.gens] == ["t^2 + t"]

    def test_surjectivity(self):
        law2 = vector_law(1, F2)
        t2 = law2.coords_ring.var("t")
        assert is_surjective(law2, Endomorphism(law2, [t2 ** 2]))
        lawq = vector_law(1, QQ)
        tq = lawq.coords_ring.var("t")
        assert not is_surjective(lawq, Endomorphism(lawq, [lawq.coords_ring.zero()]))
        assert is_surjective(lawq, Endomorphism(lawq, [tq.scale(Fraction(2))]))


class TestTupleArithmetic:
    def test_invert_fraction(self):
        law = vector_law(1, QQ)
        R = PolyRing(["z1", "z2"], QQ)
        z1, z2 = R.gens()
        (b,) = law.invert_tuple([RationalFunction(z2, z1)])
        assert b == RationalFunction(-z2, z1)

    def test_heisenberg_inverse(self):
        law = heisenberg_law(QQ)
        R = PolyRing(["z1", "z2", "z3"], QQ)
        u = [RationalFunction.from_poly(g) for g in R.gens()]
        inv = law.invert_tuple(u)
        z1, z2, z3 = R.gens()
        assert inv[0] == RationalFunction.from_poly(-z1)
        assert inv[1] == RationalFunction.from_poly(-z2)
        assert inv[2] == RationalFunction.from_poly(-z3 + z1 * z2)

    def test_invert_origin(self):
        law = heisenberg_law(QQ)
        R = PolyRing(["z1"], QQ)
        origin = [RationalFunction.from_poly(R.zero())] * law.s
        assert law.invert_tuple(origin) == origin

    def test_multiply_against_inverse_gives_origin(self):
        law = heisenberg_law(QQ)
        R = PolyRing(["z1", "z2", "z3"], QQ)
        z1, z2, z3 = R.gens()
        u = [RationalFunction(z2, z1), RationalFunction.from_poly(z3),
             RationalFunction(z1 + z2, z3)]
        prod = law.multiply_tuples(u, law.invert_tuple(u))
        assert all(p.is_zero() for p in prod)

    def test_invert_is_involution(self):
        law = heisenberg_law(QQ)
        R = PolyRing(["z1", "z2", "z3"], QQ)
        z1, z2, z3 = R.gens()
        u = [RationalFunction(z2, z1), RationalFunction.from_poly(z1 * z3),
             RationalFunction(z1, z3)]
        assert law.invert_tuple(law.invert_tuple(u)) == u

    def test_arity_checked(self):
        law = vector_law(2, QQ)
        R = PolyRing(["z1"], QQ)
        with pytest.raises(ValidationError):
            law.invert_tuple([RationalFunction.from_poly(R.var("z1"))])
