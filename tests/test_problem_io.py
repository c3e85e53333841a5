from fractions import Fraction

import pytest

from pairkit.errors import ParseError
from pairkit.fields import QQ
from pairkit.poly import PolyRing, RationalFunction
from pairkit.problem import (parse_polynomial, parse_problem, parse_rational,
                             render, render_problem)

from conftest import PROBLEMS, load

E1_TEXT = """\
field Q
ring z1 z2
group dim 1 coords t
mult t = a1 + b1
inv t = -t
act z1 = z1
act z2 = z2 + t*z1
pair 1 g z2
pair 1 h z1
"""


class TestParse:
    def test_e1(self):
        p = parse_problem(E1_TEXT)
        assert p.ring.names == ("z1", "z2")
        assert p.group.s == 1
        assert p.group.coords == ("t",)
        assert not p.is_gm
        g, h = p.pair(1)
        assert g[0].text() == "z2" and h[0].text() == "z1"

    def test_non_prime_modulus(self):
        with pytest.raises(ParseError, match="not prime") as err:
            parse_problem("field Fp 4\nring z\n")
        assert err.value.line == 1

    def test_remark_action(self, remark):
        assert remark.group.s == 2
        assert remark.ring.nvars == 3
        v3 = remark.action.v_for("x3")
        big = remark.action.big_ring
        expected = big.var("x3") + big.var("t2") * big.var("x2") \
            + big.var("t1") * big.var("x1")
        assert v3 == expected

    def test_points(self, e1):
        assert e1.points == [(Fraction(1), Fraction(0)),
                             (Fraction(0), Fraction(5))]

    def test_gm_problem(self, gm_diag):
        assert gm_diag.is_gm
        vx = gm_diag.action.v_for("x")
        assert vx.weights() == [1]

    def test_version_line(self):
        assert parse_problem("version 1\n" + E1_TEXT).group.s == 1
        with pytest.raises(ParseError, match="version"):
            parse_problem("version 2\n" + E1_TEXT)

    def test_modulus_size_limit(self):
        with pytest.raises(ParseError, match="too large"):
            parse_problem("field Fp 2147483659\nring z\n")

    def test_modulus_size_checked_before_primality(self):
        # trial division of a 19-digit modulus would take minutes
        with pytest.raises(ParseError, match="too large"):
            parse_problem("field Fp 1000000000000000003\nring z\n")

    @pytest.mark.parametrize("text", ["version \u00b2\n", "field Fp \u00b2\n",
                                      "field Q\nring z\ngroup dim \u00b2 coords t\n"])
    def test_non_ascii_digits_rejected(self, text):
        # superscript two is a digit to str.isdigit but not to int()
        with pytest.raises(ParseError):
            parse_problem(text)

    def test_line_without_directive(self):
        with pytest.raises(ParseError, match="directive") as err:
            parse_problem("field Q\n= z\n")
        assert err.value.line == 2

    def test_laurent_negative_exponents_roundtrip(self):
        text = ("version 1\nfield Q\nring x y\n"
                "gmact x = w^-1*x\ngmact y = w^2*y\n")
        p = parse_problem(text)
        assert p.action.v_for("x").weights() == [-1]
        assert parse_problem(render_problem(p)) == p


class TestDiagnostics:
    @pytest.mark.parametrize("text,match", [
        ("field Q\nring z\nfrobnicate z\n", "unknown directive"),
        ("field Q\nring z\ngroup dim 1 coords t\nmult t = a1 + b1\n"
         "inv t = -t\nact z = z + q\n", "undeclared variable"),
        ("field Q\nring z\ngroup dim 1 coords t\nmult t = a1 + b1\n"
         "mult t = a1 + b1\n", "duplicate mult"),
        ("field Q\nring z\ngroup dim 1 coords t\nmult t = a1 + b1\ninv t = -t\n",
         "missing action"),
        ("field Q\nring z z\n", "duplicate variable"),
        ("field Q\nring z\ngroup dim 1 coords z\n", "disjoint"),
        ("ring z\n", "before field"),
        ("field Q\nring z1\ngroup dim 1 coords t\nmult t = a1 + b1\ninv t = -t\n"
         "act z1 = z1\npair 1 g z1\n", "pair 1 needs"),
        ("field Q\nring z1\ngroup dim 1 coords t\nmult t = a1 + b1\ninv t = -t\n"
         "act z1 = z1\npair 1 g z1\npair 1 h 0\n", "zero h"),
        ("field Q\nring x\ngmact x = w*x\npair 1 g x\npair 1 h x\n", "unipotent"),
    ])
    def test_errors_carry_line_numbers(self, text, match):
        with pytest.raises(ParseError, match=match) as err:
            parse_problem(text)
        assert err.value.line is not None and err.value.line >= 1

    def test_section_order_enforced(self):
        text = ("field Q\nring z\ngroup dim 1 coords t\nmult t = a1 + b1\n"
                "inv t = -t\nact z = z\nendo t = t\n")
        with pytest.raises(ParseError, match="out of order") as err:
            parse_problem(text)
        assert err.value.line == 7

    def test_expression_errors_have_position(self):
        with pytest.raises(ParseError) as err:
            parse_problem("field Q\nring z\nrelation z + + z\n")
        assert err.value.line == 3

    def test_juxtaposition_rejected(self):
        R = PolyRing(["z"], QQ)
        with pytest.raises(ParseError):
            parse_polynomial("2 z", R)

    def test_division_rejected_outside_literals(self):
        R = PolyRing(["z"], QQ)
        with pytest.raises(ParseError, match="integer literals"):
            parse_polynomial("z/2", R)
        assert parse_polynomial("1/2*z", R).text() == "1/2*z"


class TestRender:
    def test_polynomial_formatting(self):
        R = PolyRing(["z1", "z2"], QQ)
        z1, z2 = R.gens()
        assert render(z1 * z2 - z1.scale(Fraction(1, 2))) == "z1*z2 - 1/2*z1"
        assert render(R.zero()) == "0"

    def test_rational_formatting(self):
        R = PolyRing(["z1", "z2"], QQ)
        z1, z2 = R.gens()
        assert render(RationalFunction(z2, z1)) == "(z2)/(z1)"
        assert render(RationalFunction.from_poly(z1)) == "z1"

    def test_roundtrip_value_identity(self):
        p = parse_problem(E1_TEXT)
        assert parse_problem(render_problem(p)) == p

    def test_render_is_idempotent_canonicalization(self):
        p = parse_problem(E1_TEXT)
        once = render_problem(p)
        twice = render_problem(parse_problem(once))
        assert once == twice

    @pytest.mark.parametrize("name", sorted(f.name for f in PROBLEMS.glob("*.prob")))
    def test_roundtrip_corpus(self, name):
        p = load(name)
        text = render_problem(p)
        assert parse_problem(text) == p
        assert render_problem(parse_problem(text)) == text


class TestProbeParsing:
    def test_rational_probe(self):
        R = PolyRing(["z1"], QQ)
        probe = parse_rational("1/z1", R)
        assert probe == RationalFunction(R.one(), R.var("z1"))

    def test_polynomial_probe(self):
        R = PolyRing(["z1", "z2"], QQ)
        probe = parse_rational("z1*z2 + 2*z1", R)
        assert probe.is_polynomial()
