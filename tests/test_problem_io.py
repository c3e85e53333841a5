from fractions import Fraction

import pytest

from pairkit.actions import laurent_components
from pairkit.errors import ParseError
from pairkit.fields import QQ, FieldSpec
from pairkit.poly import PolyRing, RationalFunction
from pairkit.problem import (MAX_CONSTANT_BITS, MAX_DEGREE, MAX_LITERAL_DIGITS,
                             MAX_POWER_TERMS, parse_polynomial, parse_problem,
                             parse_rational, render, render_problem)

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
        assert list(laurent_components(vx, gm_diag.ring)) == [1]

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
        assert list(laurent_components(p.action.v_for("x"), p.ring)) == [-1]
        assert parse_problem(render_problem(p)) == p


class TestRationalLiterals:
    """a/b is brought to lowest terms before it is read in the field."""

    def test_over_f2(self):
        ring = PolyRing(["x"], FieldSpec.prime(2))
        assert parse_polynomial("4/6*x", ring).is_zero()
        assert parse_polynomial("2/6*x", ring) == ring.var("x")
        with pytest.raises(ParseError, match="denominator 6 is divisible by the modulus 2"):
            parse_polynomial("1/6*x", ring)

    def test_over_q(self):
        ring = PolyRing(["x"], QQ)
        assert parse_polynomial("4/6", ring) == ring.const(Fraction(2, 3))
        assert parse_polynomial("4/6", ring).text() == "2/3"
        two = parse_polynomial("6/3", ring)
        assert two == ring.const(2) and two.text() == "2"
        assert [type(c) for c in two.terms.values()] == [int]


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
        assert probe.den.is_one()


class TestPowerSizeLimit:
    """Powers are refused, before they are expanded, when the multinomial
    count C(n + t - 1, t - 1) of a t-term base exceeds MAX_POWER_TERMS."""

    R = PolyRing(["z1", "z2", "z3"], QQ)

    def test_bound_is_the_multinomial_count(self):
        assert MAX_POWER_TERMS == 500
        # C(32, 2) = 496 terms pass, C(33, 2) = 528 do not
        assert len(parse_polynomial("(z1 + z2 + z3)^30", self.R).terms) == 496
        with pytest.raises(ParseError, match="power 31 of a 3-term") as err:
            parse_polynomial("(z1 + z2 + z3)^31", self.R, 5, 10)
        assert (err.value.line, err.value.col) == (5, 26)

    def test_single_term_bases_always_pass(self):
        assert parse_polynomial("z1^100000", self.R).total_degree() == 100000
        assert parse_polynomial("(-2*z1*z2)^600", self.R).total_degree() == 1200

    @pytest.mark.parametrize("kind,text", [
        ("poly", "(z1 + z2)^100000"), ("rat", "(z1 + z2)^-1000"),
        ("rat", "(1/(z1 + z2))^1000"), ("gm", "(x + w)^1000*x")])
    def test_every_context_refuses(self, kind, text):
        with pytest.raises(ParseError, match="may exceed 500 terms"):
            parse_in(kind, text)

    def test_laurent_weight_powers_pass(self):
        problem = parse_in("gm", "w^-100000*x")
        assert list(laurent_components(problem.action.v_for("x"), problem.ring)) == [-100000]


class TestProductSizeLimit:
    """A product is refused before it is expanded when its factors' term
    counts multiply to more than MAX_POWER_TERMS ** 2, so two factors each at
    the power cap still pass."""

    # over F_p the 250000 coefficient products take a quarter of the time
    R = PolyRing(["z1", "z2"], FieldSpec.prime(2**31 - 1))

    @staticmethod
    def terms(name, count):
        return "(" + " + ".join(f"{name}^{i}" for i in range(count)) + ")"

    def test_bound(self):
        at_cap = self.terms("z1", MAX_POWER_TERMS)
        square = parse_polynomial(at_cap + "*" + at_cap, self.R)
        assert len(square.terms) == 2 * MAX_POWER_TERMS - 1
        with pytest.raises(ParseError) as err:
            parse_polynomial(at_cap + "*" + self.terms("z2", 501), self.R, 4, 7)
        assert str(err.value) == ("product of a 500-term and a 501-term expression "
                                  f"may exceed 250000 terms (line 4, col {len(at_cap) + 8})")


GM_HEAD = "field Q\nring x y\ngmact y = y\ngmact x = "
GM_F2_HEAD = "field Fp 2\nring x y\ngmact y = y\ngmact x = "
NINES = "9" * 5000
LAW = "group dim 1 coords t\nmult t = a1 + b1\ninv t = -t\n"


class TestLiteralSizeLimit:
    """An integer literal longer than MAX_LITERAL_DIGITS is a ParseError that
    names its line, at every place the grammar reads an integer, before
    Python's own int digit limit can raise."""

    @pytest.mark.parametrize("text,where", [
        ("version " + NINES + "\nfield Q\n", "(line 1)"),
        ("field Fp " + NINES + "\n", "(line 1)"),
        ("field Q\nring z\nrelation z^" + NINES + "\n", "(line 3, col 12)"),
        ("field Q\nring z\nrelation z - " + NINES + "\n", "(line 3, col 14)"),
        ("field Q\nring z\ngroup dim " + NINES + " coords t\n", "(line 3)"),
        ("field Q\nring z\n" + LAW + "act z = z\npair " + NINES + " g z\n", "(line 7)"),
        ("field Q\nring z\n" + LAW + "act z = z\npoint " + NINES + "\n", "(line 7)"),
        ("field Q\nring z\n" + LAW + "act z = z\npoint 1/" + NINES + "\n", "(line 7)")],
        ids=["version", "field", "exponent", "constant", "group", "pair", "point",
             "point-denominator"])
    def test_long_literal_is_refused(self, text, where):
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert str(err.value) == \
            f"integer literal of 5000 digits exceeds {MAX_LITERAL_DIGITS} digits {where}"

    def test_bound(self):
        assert MAX_LITERAL_DIGITS == 600
        ring = PolyRing(["z"], QQ)
        assert parse_polynomial("9" * 600, ring) == ring.const(Fraction(10**600 - 1))
        with pytest.raises(ParseError, match="601 digits"):
            parse_polynomial("9" * 601, ring)


class TestDegreeLimit:
    """A problem line or probe of total degree above MAX_DEGREE in the ring
    and group variables is refused; the library parser itself is not capped
    (TestPowerSizeLimit), and weights of w are not degrees."""

    HEAD = "field Q\nring z1 z2\n" + LAW + "act z1 = z1\nact z2 = "

    def test_bound(self):
        assert MAX_DEGREE == 2048
        assert parse_problem(self.HEAD + "z2 + t*z1^2047\n").action.v[1].total_degree() == 2048
        with pytest.raises(ParseError) as err:
            parse_problem(self.HEAD + "z2 + t*z1^2048\n")
        assert str(err.value) == "total degree 2049 exceeds 2048 (line 7)"

    @pytest.mark.parametrize("text", [
        "field Q\nring z1 z2\n" + LAW + "act z1 = z1\nact z2 = z2 + t*z1^100000\n",
        "field Q\nring z1 z2\n" + LAW + "act z1 = z1\nact z2 = z2 + t*z1^1500*z1^1500\n",
        "field Q\nring z\nrelation z^3000 - 1\n",
        "field Q\nring z\ngroup dim 1 coords t\nmult t = a1 + b1 + a1^3000\n",
        "field Q\nring z\n" + LAW + "endo t = t^3000\n",
        "field Q\nring z\n" + LAW + "act z = z\npair 1 g z^3000\n",
        GM_HEAD + "x^3000\n"],
        ids=["act", "act-product", "relation", "mult", "endo", "pair", "gmact"])
    def test_every_problem_line_is_capped(self, text):
        with pytest.raises(ParseError, match=f"exceeds {MAX_DEGREE}"):
            parse_problem(text)

    def test_probe_is_capped(self):
        R = PolyRing(["z1", "z2"], QQ)
        with pytest.raises(ParseError, match="total degree 3000 exceeds"):
            parse_rational("1/z1^3000", R)

    def test_weights_are_not_degrees(self):
        problem = parse_problem(GM_HEAD + "w^100000*x\n")
        assert list(laurent_components(problem.action.v_for("x"), problem.ring)) == [100000]


class TestConstantSizeLimit:
    """A power of a constant over Q is refused before it is computed when its
    numerator or denominator could exceed MAX_CONSTANT_BITS bits, counted as
    the exponent times ceil(log2) of the base's largest part."""

    R = PolyRing(["z1", "z2"], QQ)

    def test_bound(self):
        assert MAX_CONSTANT_BITS == 4096
        assert parse_polynomial("2^4096", self.R) == self.R.const(Fraction(2**4096))
        with pytest.raises(ParseError) as err:
            parse_polynomial("2^4097", self.R, 4, 7)
        assert str(err.value) == \
            "power 4097 of a 1-bit constant may exceed 4096 bits (line 4, col 10)"

    @pytest.mark.parametrize("kind,text", [
        ("poly", "3^3000000"), ("poly", "z1 + (1/3)^3000"), ("rat", "3^-3000"),
        ("gm", "(2*w)^5000*x"), ("prob", "field Q\nring z1 z2\n" + LAW
                                 + "act z1 = z1\nact z2 = z2 + 3^3000000*t\n")],
        ids=["poly", "poly-fraction", "rat", "gm", "prob"])
    def test_every_context_refuses(self, kind, text):
        with pytest.raises(ParseError, match="-bit constant may exceed 4096 bits"):
            parse_in(kind, text)

    def test_powers_of_units_and_over_fp_pass(self):
        assert parse_polynomial("(-1)^3000001", self.R) == -self.R.one()
        assert parse_in("polyF2", "3^3000000").is_one()


def parse_in(kind, text):
    """Parse `text` as a polynomial (line 4, column offset 7), a polynomial
    over F_2, a probe (line 2), the Laurent right-hand side of a gmact line
    (line 4) or a whole problem."""
    R = PolyRing(["z1", "z2"], QQ)
    if kind == "poly":
        return parse_polynomial(text, R, 4, 7)
    if kind == "polyF2":
        return parse_polynomial(text, PolyRing(["z1", "z2"], FieldSpec.prime(2)))
    if kind == "rat":
        return parse_rational(text, R, 2)
    if kind == "gm":
        return parse_problem(GM_HEAD + text + "\n")
    if kind == "gm2":
        return parse_problem(GM_F2_HEAD + text + "\n")
    return parse_problem(text)


# full messages, line and column included, of every expression context
PINNED_ERRORS = [
    ('poly', 'z1 + @',
     "unexpected character '@' (line 4, col 13)"),
    ('poly', '',
     'empty expression (line 4)'),
    ('poly', '   ',
     'empty expression (line 4)'),
    ('poly', 'z1 +',
     'unexpected end of expression (line 4)'),
    ('poly', '(z1',
     'unexpected end of expression (line 4)'),
    ('poly', 'z1 z2',
     "unexpected trailing 'z2' (line 4, col 11)"),
    ('poly', 'z1 / z2',
     'division is only allowed between integer literals (line 4, col 11)'),
    ('poly', '1/0',
     'zero denominator in rational literal (line 4, col 10)'),
    ('poly', 'q',
     "undeclared variable 'q' (line 4, col 8)"),
    ('poly', 'z1^-1',
     'negative exponent is only allowed on the weight variable w (line 4, col 12)'),
    ('poly', 'z1^z2',
     'exponent must be an integer (line 4, col 11)'),
    ('poly', 'z1^',
     'unexpected end of expression (line 4)'),
    ('poly', ')',
     "unexpected token ')' (line 4, col 8)"),
    ('poly', '2*(z1 + z2))',
     "unexpected trailing ')' (line 4, col 19)"),
    ('polyF2', '1/2',
     'denominator 2 is divisible by the modulus 2 (line 1, col 1)'),
    ('polyF2', 'z1 + 3/4*z2',
     'denominator 4 is divisible by the modulus 2 (line 1, col 6)'),
    ('rat', 'z1/0',
     'division by zero (line 2, col 3)'),
    ('rat', 'z1/(z2 - z2)',
     'division by zero (line 2, col 3)'),
    ('rat', '0^-1',
     'negative power of zero (line 2, col 4)'),
    ('rat', '(z1 - z1)^-2',
     'negative power of zero (line 2, col 12)'),
    ('rat', 'z1 + #',
     "unexpected character '#' (line 2, col 6)"),
    ('rat', '',
     'empty expression (line 2)'),
    ('rat', 'w',
     "undeclared variable 'w' (line 2, col 1)"),
    ('rat', 'z1^/z2',
     'exponent must be an integer (line 2, col 4)'),
    ('gm', '(x + w)^-1',
     'negative power of a non-unit Laurent polynomial (line 4, col 20)'),
    ('gm', 'q*w',
     "undeclared variable 'q' (line 4, col 11)"),
    ('gm', '0^-1',
     'negative power of a non-unit Laurent polynomial (line 4, col 14)'),
    ('gm', 'x / y',
     'division is only allowed between integer literals (line 4, col 13)'),
    ('gm', '1/0*w',
     'zero denominator in rational literal (line 4, col 13)'),
    ('gm', 'w^-',
     'unexpected end of expression (line 4)'),
    ('gm', '(w',
     'unexpected end of expression (line 4)'),
    ('gm', '',
     'empty expression (line 4)'),
    ('gm', 'w x',
     "unexpected trailing 'x' (line 4, col 13)"),
    ('gm2', '(2*w)^-1',
     'negative power of a non-unit Laurent polynomial (line 4, col 18)'),
    ('gm2', '1/2*w',
     'denominator 2 is divisible by the modulus 2 (line 4, col 11)'),
    ('prob', 'field Q\nring x w\ngmact x = w*x\ngmact w = w\n',
     "ring variable 'w' collides with the weight variable (line 3)"),
    ('prob', 'field Q\nring z\ngroup dim 1 coords t\nmult t = a1 + b1 + c\ninv t = -t\n',
     "undeclared variable 'c' (line 4, col 20)"),
    ('prob', 'field Q\nring z\ngroup dim 1 coords t\nmult t = a1 + b1\ninv t = -t\nact z = z + t^-2\n',
     'negative exponent is only allowed on the weight variable w (line 6, col 16)'),
    ('prob', 'field Q\nring z\nrelation z^2 + ^\n',
     "unexpected token '^' (line 3, col 16)"),
    ('prob', 'field Q\n',
     'missing ring section (line 1)'),
    ('prob', 'field Q\nring z\ngroup dim 2 coords t1 t2\nmult t1 = a1 + b1\n'
     'mult t2 = a2 + b2\ninv t1 = -t1\ninv t2 = -t2\nendo t1 = t1\nact z = z\n',
     "missing endo line for 't2' (line 9)"),
    ('prob', 'field Q\nring z\ngroup dim 1 coords t\nmult t = a1 + b1\ninv t = -t\nact z = z + t*z\npair 1 g z^-1\n',
     'negative exponent is only allowed on the weight variable w (line 7, col 13)'),
]


@pytest.mark.parametrize("kind,text,message", PINNED_ERRORS)
def test_parse_error_message_is_pinned(kind, text, message):
    with pytest.raises(ParseError) as err:
        parse_in(kind, text)
    assert str(err.value) == message
