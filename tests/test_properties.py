"""Property tests over Q, F_2 and F_7 (hypothesis, derandomized, skipped when
hypothesis is absent).

Substitution is a ring homomorphism; every substitution route agrees with
plain evaluation at random points; the canonical text of a polynomial,
a rational function and a Laurent co-action image parses back to the same
value; and division in grevlex, lex and a block order returns quotients and
a remainder that reassemble the dividend, with normal forms constant on the
cosets of an ideal.

The ring axioms hold for polynomials, rational functions and Laurent
polynomials over Q, F_2, F_7 and F_(2^31-1), whose unreduced coefficient
sums pass 2^62.  Polynomial results store only reduced nonzero
coefficients, evaluation agrees with a per-operation reference, and the
derivative obeys the Leibniz rule.  Over Q a polynomial with int
coefficients and the same one with equal Fractions behave alike.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from pairkit.actions import GmCoAction, laurent_text  # noqa: E402
from pairkit.fields import QQ, FieldSpec  # noqa: E402
from pairkit.gbasis import Ideal, groebner, normal_form, poly_divmod  # noqa: E402
from pairkit.orders import GREVLEX, LEX, BlockOrder  # noqa: E402
from pairkit.poly import Polynomial, PolyRing, RationalFunction  # noqa: E402
from pairkit.problem import parse_polynomial, parse_problem, parse_rational  # noqa: E402

FIELDS = [QQ, FieldSpec.prime(2), FieldSpec.prime(7)]
SOURCE = ("z1", "z2", "z3")
TARGET = ("a", "b")

property_settings = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)


def coefficients(field):
    if field.p is None:
        # as the package makes them: an int, or a Fraction when not integral
        return st.builds(QQ.div, st.integers(-4, 4), st.integers(1, 3))
    if field.p > 7:
        # residues of small integers of either sign: p - 1 and its neighbours
        # drive the unreduced products and their sums past 2^62
        return st.one_of(st.integers(-4, 4).map(lambda n: n % field.p),
                         st.integers(0, field.p - 1))
    return st.integers(0, field.p - 1)


def polynomials(ring, max_exp=3, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    return st.dictionaries(exps, coefficients(ring.field), max_size=max_terms) \
        .map(lambda terms: Polynomial(ring, terms))


def nonzero(polys):
    return polys.filter(lambda p: not p.is_zero())


def points(field, names):
    return st.tuples(*[coefficients(field)] * len(names)) \
        .map(lambda values: dict(zip(names, values)))


fields = st.sampled_from(FIELDS)


def reduce_mod(field, value):
    return value if field.p is None else value % field.p


def field_pow(field, x, n):
    """x^n by repeated multiplication, reduced mod p after each step."""
    value = 1
    for _ in range(n):
        value = reduce_mod(field, value * x)
    return value


def laurent_value(lp: RationalFunction, values, w):
    """The fraction F / w^k at `values` and a nonzero w."""
    at = {**values, "w": w}
    return lp.ring.field.div(lp.num.evaluate(at), lp.den.evaluate(at))


def laurent_polys(ring):
    """Laurent polynomials of weights -2..2, as F / w^2 in ring[w]."""
    ext = ring.extend(["w"])
    w = ext.var("w")

    def build(comps):
        return RationalFunction(sum((p.cast(ext) * w ** (d + 2) for d, p in comps.items()),
                                    ext.zero()), w ** 2)
    return st.dictionaries(st.integers(-2, 2), polynomials(ring, 1, 3), max_size=3) \
        .map(build)


@st.composite
def substitution_case(draw):
    field = draw(fields)
    source = PolyRing(SOURCE, field)
    target = PolyRing(TARGET, field)
    images = {n: draw(polynomials(target, 2, 3)) for n in SOURCE}
    return source, target, images


# -- substitution is a ring homomorphism -----------------------------------------


@property_settings
@given(case=substitution_case(), data=st.data())
def test_subs_poly_is_a_ring_homomorphism(case, data):
    source, target, images = case
    f = data.draw(polynomials(source))
    g = data.draw(polynomials(source))
    sf, sg = f.subs_poly(images), g.subs_poly(images)
    assert (f * g).subs_poly(images) == sf * sg
    assert (f + g).subs_poly(images) == sf + sg
    assert (-f).subs_poly(images) == -sf
    assert source.one().subs_poly(images) == target.one()


@property_settings
@given(case=substitution_case(), data=st.data())
def test_subs_rational_is_a_ring_homomorphism(case, data):
    source, target, images = case
    dens = {n: data.draw(nonzero(polynomials(target, 1, 2))) for n in SOURCE}
    mapping = {n: RationalFunction(images[n], dens[n]) for n in SOURCE}
    f = data.draw(polynomials(source))
    g = data.draw(polynomials(source))
    sf, sg = f.subs_rational(mapping), g.subs_rational(mapping)
    assert (f * g).subs_rational(mapping) == sf * sg
    assert (f + g).subs_rational(mapping) == sf + sg
    pf, pg = f.subs_rational(images), g.subs_rational(images)
    assert (f * g).subs_rational(images) == pf * pg


@property_settings
@given(field=fields, data=st.data())
def test_gm_pushforward_is_a_ring_homomorphism(field, data):
    ring = PolyRing(SOURCE, field)
    action = GmCoAction(ring, [data.draw(laurent_polys(ring)) for _ in SOURCE], [])
    f = data.draw(polynomials(ring))
    g = data.draw(polynomials(ring))
    pf, pg = action.pushforward(f), action.pushforward(g)
    assert action.pushforward(f * g) == pf * pg
    assert action.pushforward(f + g) == pf + pg


# -- every substitution route agrees with evaluation --------------------------------


@property_settings
@given(case=substitution_case(), data=st.data())
def test_subs_poly_agrees_with_evaluate(case, data):
    source, target, images = case
    f = data.draw(polynomials(source))
    at = data.draw(points(source.field, TARGET))
    inner = {n: images[n].evaluate(at) for n in SOURCE}
    assert f.subs_poly(images).evaluate(at) == f.evaluate(inner)


@property_settings
@given(case=substitution_case(), data=st.data())
def test_subs_rational_agrees_with_evaluate(case, data):
    source, target, images = case
    field = source.field
    dens = {n: data.draw(nonzero(polynomials(target, 1, 2))) for n in SOURCE}
    at = data.draw(points(field, TARGET))
    assume(all(d.evaluate(at) for d in dens.values()))
    mapping = {n: RationalFunction(images[n], dens[n]) for n in SOURCE}
    # the same images, with a drawn subset of them left as polynomials
    kept = data.draw(st.sets(st.sampled_from(SOURCE)))
    mixed = {n: images[n] if n in kept else mapping[n] for n in SOURCE}
    f = data.draw(polynomials(source))
    rational = {n: field.div(images[n].evaluate(at), dens[n].evaluate(at)) for n in SOURCE}
    polynomial = {n: images[n].evaluate(at) for n in SOURCE}
    for subs, inner in ((mapping, rational),
                        (mixed, {n: polynomial[n] if n in kept else rational[n]
                                 for n in SOURCE})):
        out = f.subs_rational(subs)
        den_value = out.den.evaluate(at)
        assume(den_value)
        assert field.div(out.num.evaluate(at), den_value) == f.evaluate(inner)


@property_settings
@given(field=fields, data=st.data())
def test_gm_pushforward_agrees_with_evaluate(field, data):
    ring = PolyRing(SOURCE, field)
    v = [data.draw(laurent_polys(ring)) for _ in SOURCE]
    f = data.draw(polynomials(ring))
    at = data.draw(points(field, SOURCE))
    w = data.draw(coefficients(field))
    assume(w)
    pushed = GmCoAction(ring, v, []).pushforward(f)
    inner = {n: laurent_value(vi, at, w) for n, vi in zip(SOURCE, v)}
    assert laurent_value(pushed, at, w) == f.evaluate(inner)


# -- parse . render is the identity ---------------------------------------------------


@property_settings
@given(field=fields, data=st.data())
def test_polynomial_text_parses_back(field, data):
    ring = PolyRing(SOURCE, field)
    f = data.draw(polynomials(ring, 3, 6))
    assert parse_polynomial(f.text(), ring) == f


@property_settings
@given(field=fields, data=st.data())
def test_rational_text_parses_back(field, data):
    ring = PolyRing(SOURCE, field)
    rf = RationalFunction(data.draw(polynomials(ring)),
                          data.draw(nonzero(polynomials(ring))))
    parsed = parse_rational(rf.text(), ring)
    assert parsed == rf
    assert parsed.text() == rf.text()


@property_settings
@given(field=fields, data=st.data())
def test_laurent_text_parses_back(field, data):
    ring = PolyRing(("x", "y"), field)
    lp = data.draw(laurent_polys(ring))
    head = "field Q" if field.p is None else f"field Fp {field.p}"
    problem = parse_problem(f"{head}\nring x y\ngmact x = {laurent_text(lp, ring)}\n"
                            "gmact y = y\n")
    assert problem.action.v_for("x") == lp


orders = st.sampled_from([GREVLEX, LEX, BlockOrder([0], len(SOURCE))])


@property_settings
@given(field=fields, order=orders, data=st.data())
def test_poly_divmod_reassembles_the_dividend(field, order, data):
    ring = PolyRing(SOURCE, field)
    f = data.draw(polynomials(ring, max_terms=8))
    divisors = data.draw(st.lists(nonzero(polynomials(ring, max_exp=2)),
                                  min_size=1, max_size=3))
    quotients, remainder = poly_divmod(f, divisors, order)
    total = remainder
    for q, d in zip(quotients, divisors):
        total = total + q * d
    assert total == f
    leads = [d.leading(order)[0] for d in divisors]
    for exps in remainder.terms:
        assert not any(all(a <= b for a, b in zip(lead, exps)) for lead in leads)


@property_settings
@given(field=fields, order=orders, data=st.data())
def test_normal_form_is_constant_on_cosets(field, order, data):
    ring = PolyRing(SOURCE, field)
    gens = data.draw(st.lists(nonzero(polynomials(ring, max_exp=1, max_terms=3)),
                              min_size=1, max_size=3))
    basis = groebner(Ideal(ring, gens), order)
    f = data.draw(polynomials(ring))
    shifted = f
    for g in basis:
        shifted = shifted + data.draw(polynomials(ring, max_exp=2, max_terms=3)) * g
    assert normal_form(shifted, basis) == normal_form(f, basis)


# -- ring axioms, reduced coefficients, evaluation and derivative ---------------------

# the large prime is drawn here only, so the tests above keep their examples
ring_fields = st.sampled_from(FIELDS + [FieldSpec.prime(2**31 - 1)])


def rational_functions(ring):
    return st.builds(RationalFunction, polynomials(ring, 2, 3),
                     nonzero(polynomials(ring, 2, 2)))


def ring_elements(ring):
    """(strategy, zero, one) for each element type over `ring`."""
    return [(polynomials(ring), ring.zero(), ring.one()),
            (rational_functions(ring), RationalFunction.from_poly(ring.zero()),
             RationalFunction.one(ring)),
            (laurent_polys(ring), RationalFunction.from_poly(ring.extend(["w"]).zero()),
             RationalFunction.one(ring.extend(["w"])))]


@property_settings
@given(field=ring_fields, kind=st.integers(0, 2), data=st.data())
def test_ring_axioms(field, kind, data):
    ring = PolyRing(SOURCE, field)
    elements, zero, one = ring_elements(ring)[kind]
    a, b, c = (data.draw(elements) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert a + (-a) == zero


def assert_element(field, value):
    """An element as the package stores it: over F_p an int in 0..p-1, over
    Q an int or a Fraction, never a float."""
    if field.p is None:
        assert type(value) in (int, Fraction)
    else:
        assert type(value) is int and 0 <= value < field.p


def assert_reduced(f: Polynomial):
    for c in f.terms.values():
        assert c
        assert_element(f.ring.field, c)


@property_settings
@given(field=ring_fields, data=st.data())
def test_polynomial_coefficients_are_reduced(field, data):
    ring = PolyRing(SOURCE, field)
    f, g = data.draw(polynomials(ring)), data.draw(polynomials(ring))
    c = data.draw(coefficients(field))
    exps = data.draw(st.tuples(*[st.integers(0, 2)] * ring.nvars))
    for result in (f + g, f - g, -f, f * g, f ** 3, f.scale(c),
                   f * Polynomial(ring, {exps: c}), f.derivative("z1")):
        assert_reduced(result)


def reference_value(f: Polynomial, values):
    """f at `values`, one field operation at a time."""
    field = f.ring.field
    total = 0
    for exps, c in f.terms.items():
        term = c
        for name, e in zip(f.ring.names, exps):
            term = reduce_mod(field, term * field_pow(field, values[name], e))
        total = reduce_mod(field, total + term)
    return total


@property_settings
@given(field=ring_fields, data=st.data())
def test_evaluate_agrees_with_reference_and_respects_arithmetic(field, data):
    ring = PolyRing(SOURCE, field)
    f, g = data.draw(polynomials(ring)), data.draw(polynomials(ring))
    at = data.draw(points(field, SOURCE))
    fv, gv = f.evaluate(at), g.evaluate(at)
    assert fv == reference_value(f, at)
    assert_element(field, fv)
    assert (f + g).evaluate(at) == reduce_mod(field, fv + gv)
    assert (f * g).evaluate(at) == reduce_mod(field, fv * gv)


@property_settings
@given(field=ring_fields, name=st.sampled_from(SOURCE), data=st.data())
def test_derivative_obeys_leibniz(field, name, data):
    ring = PolyRing(SOURCE, field)
    f, g = data.draw(polynomials(ring)), data.draw(polynomials(ring))
    assert (f * g).derivative(name) == f.derivative(name) * g + f * g.derivative(name)
    assert (f + g).derivative(name) == f.derivative(name) + g.derivative(name)


@pytest.mark.parametrize("p", [2, 7, 2**31 - 1])
def test_derivative_of_a_pth_power_vanishes(p):
    ring = PolyRing(SOURCE, FieldSpec.prime(p))
    z1, z2 = ring.var("z1"), ring.var("z2")
    assert (z1 ** p).derivative("z1").is_zero()
    assert not (z1 ** p * z2).derivative("z2").is_zero()


# -- over Q an int coefficient and an equal Fraction are one value ---------------------


def as_fractions(f: Polynomial) -> Polynomial:
    """f with every coefficient stored as a Fraction."""
    return Polynomial(f.ring, {e: Fraction(c) for e, c in f.terms.items()})


@property_settings
@given(data=st.data())
def test_int_and_fraction_coefficients_agree(data):
    ring = PolyRing(SOURCE, QQ)
    target = PolyRing(TARGET, QQ)
    ints = polynomials(ring).map(
        lambda f: Polynomial(ring, {e: c.numerator for e, c in f.terms.items()}))
    f, g = data.draw(ints), data.draw(ints)
    ff, gf = as_fractions(f), as_fractions(g)
    assert all(type(c) is int for c in f.terms.values())
    c = data.draw(st.integers(-4, 4))
    n = data.draw(st.integers(0, 3))
    images = {name: RationalFunction(data.draw(polynomials(target, 2, 3)),
                                     data.draw(nonzero(polynomials(target, 1, 2))))
              for name in SOURCE}
    at = data.draw(points(QQ, SOURCE))
    pairs = [(f + g, ff + gf), (f - g, ff - gf), (f * g, ff * gf), (f ** n, ff ** n),
             (f.scale(c), ff.scale(Fraction(c))), (f.derivative("z1"), ff.derivative("z1")),
             (f.subs_rational(images), ff.subs_rational(images))]
    for with_ints, with_fractions in pairs:
        assert with_ints == with_fractions
        assert with_ints.text() == with_fractions.text()
    assert f.evaluate(at) == ff.evaluate(at)
    assert_element(QQ, f.evaluate(at))
