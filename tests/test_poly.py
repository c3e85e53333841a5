import random
from fractions import Fraction

import pytest

from pairkit.errors import AlgebraError, ValidationError
from pairkit.fields import QQ, FieldSpec
from pairkit.poly import PolyRing, RationalFunction, fresh_names, substitute

from oracles import random_polynomial


@pytest.fixture()
def R():
    return PolyRing(["z1", "z2"], QQ)


def rf(p):
    return RationalFunction.from_poly(p)


class TestArithmetic:
    def test_add_cancels(self, R):
        z1 = R.var("z1")
        assert (z1 - z1).is_zero()

    def test_product_expands(self, R):
        z1, z2 = R.gens()
        assert (z1 + z2) * (z1 - z2) == z1 * z1 - z2 * z2

    def test_pow(self, R):
        z1, z2 = R.gens()
        assert (z1 + z2) ** 3 == z1**3 + (z1 * z1 * z2).scale(Fraction(3)) \
            + (z1 * z2 * z2).scale(Fraction(3)) + z2**3

    def test_char2(self):
        R = PolyRing(["t"], FieldSpec.prime(2))
        t = R.var("t")
        assert (t + R.one()) ** 2 == t * t + R.one()

    def test_ring_mismatch(self, R):
        other = PolyRing(["z1"], QQ)
        with pytest.raises(AlgebraError):
            R.var("z1") + other.var("z1")

    def test_derivative(self, R):
        z1, z2 = R.gens()
        f = z1**3 * z2 + z2
        assert f.derivative("z1") == (z1 * z1 * z2).scale(Fraction(3))
        assert f.derivative("z2") == z1**3 + R.one()


class TestSubstitute:
    def test_linear_shear_vanishes(self):
        # f = z2 + t*z1 at t -> -z2/z1 expands to (z2*z1 - z2*z1)/z1
        Rt = PolyRing(["z1", "z2", "t"], QQ)
        R = PolyRing(["z1", "z2"], QQ)
        z1, z2 = R.gens()
        f = Rt.var("z2") + Rt.var("t") * Rt.var("z1")
        out = substitute(f, {"z1": rf(z1), "z2": rf(z2),
                             "t": RationalFunction(-z2, z1)})
        assert out.is_zero()

    def test_zero_assignment(self):
        Rt = PolyRing(["t1", "t2"], QQ)
        R = PolyRing(["z1"], QQ)
        f = Rt.var("t1") + Rt.var("t2")
        out = substitute(f, {"t1": RationalFunction.zero(R),
                             "t2": RationalFunction.zero(R)})
        assert out.is_zero()

    def test_heisenberg_inverse_substitution(self):
        big = PolyRing(["z1", "z2", "z3", "t1", "t2", "t3"], QQ)
        R = PolyRing(["z1", "z2", "z3"], QQ)
        z1, z2, z3 = R.gens()
        f = big.var("z3") + big.var("t3") + big.var("t1") * big.var("z2")
        out = substitute(f, {"z1": rf(z1), "z2": rf(z2), "z3": rf(z3),
                             "t1": rf(-z1), "t3": rf(-z3 + z1 * z2)})
        assert out.is_zero()

    def test_missing_assignment_rejected(self, R):
        f = R.var("z1") + R.var("z2")
        with pytest.raises(ValidationError):
            substitute(f, {"z1": rf(R.var("z1"))})

    def test_is_ring_homomorphism(self, R):
        rng = random.Random(20260808)
        target = PolyRing(["z1", "z2"], QQ)
        z1, z2 = target.gens()
        sigma = {"z1": RationalFunction(z1 + z2, z1),
                 "z2": RationalFunction(z2, z1 + target.one())}
        for _ in range(12):
            f = random_polynomial(R, rng, 3, 4)
            g = random_polynomial(R, rng, 3, 4)
            if not (f.variables_used() | g.variables_used()) <= set(sigma):
                continue
            assert substitute(f * g, sigma) == substitute(f, sigma) * substitute(g, sigma)
            assert substitute(f + g, sigma) == substitute(f, sigma) + substitute(g, sigma)


class TestRender:
    def test_mixed_terms(self, R):
        z1, z2 = R.gens()
        p = z1 * z2 - z1.scale(Fraction(1, 2))
        assert p.text() == "z1*z2 - 1/2*z1"

    def test_zero(self, R):
        assert R.zero().text() == "0"

    def test_unit_coefficients_elided(self, R):
        z1, z2 = R.gens()
        assert (z1**2 + z2).text() == "z1^2 + z2"
        assert (-z1).text() == "-z1"

    def test_prime_field_coefficients(self):
        R = PolyRing(["t"], FieldSpec.prime(7))
        t = R.var("t")
        assert (-t).text() == "6*t"

    def test_grevlex_descending(self, R):
        z1, z2 = R.gens()
        assert (z2**2 + z1 * z2 + z1).text() == "z1*z2 + z2^2 + z1"


class TestRationalFunction:
    def test_monomial_content_removed(self, R):
        z1, z2 = R.gens()
        f = RationalFunction(z1 * z1 * z2, z1)
        assert f.num == z1 * z2 and f.den.is_one()

    def test_zero_numerator_normalizes_denominator(self, R):
        f = RationalFunction(R.zero(), R.var("z1"))
        assert f.den.is_one()

    def test_monic_denominator(self, R):
        z1, z2 = R.gens()
        f = RationalFunction(z2, z1.scale(Fraction(-2)))
        assert f.den == z1
        assert f == RationalFunction(z2.scale(Fraction(-1, 2)), z1)

    def test_zero_denominator_rejected(self, R):
        with pytest.raises(AlgebraError):
            RationalFunction(R.one(), R.zero())

    def test_cross_multiplication_equality(self, R):
        z1, z2 = R.gens()
        one = R.one()
        a = RationalFunction(z1 * z1 - one, z1 - one)
        b = RationalFunction(z1 + one, one)
        assert a == b

    def test_arithmetic(self, R):
        z1, z2 = R.gens()
        a = RationalFunction(z2, z1)
        assert a - a == RationalFunction.zero(R)
        assert a * a.inverse() == RationalFunction.one(R)
        assert (a + a) == RationalFunction(z2.scale(Fraction(2)), z1)

    def test_pow_negative(self, R):
        z1, _ = R.gens()
        a = RationalFunction(z1, R.one())
        assert a ** -2 == RationalFunction(R.one(), z1 * z1)


class TestFreshNames:
    def test_count_one_is_unnumbered(self):
        assert fresh_names("u", 1, ["z1"]) == ["u"]

    def test_count_one_numbered(self):
        assert fresh_names("W", 1, ["z1"], numbered=True) == ["W1"]

    def test_count_above_one_is_numbered(self):
        assert fresh_names("w", 3, []) == ["w1", "w2", "w3"]
        assert fresh_names("T", 2, [], numbered=True) == ["T1", "T2"]

    def test_collision_doubles_last_letter(self):
        assert fresh_names("T", 2, ["T1"], numbered=True) == ["TT1", "TT2"]
        assert fresh_names("ap", 1, ["ap1"], numbered=True) == ["app1"]
        assert fresh_names("u", 1, ["u", "uu"]) == ["uuu"]
