"""Property tests over Q, F_2 and F_7 (hypothesis, derandomized, skipped when
hypothesis is absent).

Substitution is a ring homomorphism; every substitution route agrees with
plain evaluation at random points; and the canonical text of a polynomial,
a rational function and a Laurent co-action image parses back to the same
value.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from pairkit.actions import GmCoAction, LaurentPoly  # noqa: E402
from pairkit.fields import QQ, FieldSpec  # noqa: E402
from pairkit.poly import Polynomial, PolyRing, RationalFunction, substitute  # noqa: E402
from pairkit.problem import parse_polynomial, parse_problem, parse_rational  # noqa: E402

FIELDS = [QQ, FieldSpec.prime(2), FieldSpec.prime(7)]
SOURCE = ("z1", "z2", "z3")
TARGET = ("a", "b")

property_settings = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)


def coefficients(field):
    if field.p is None:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
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


def field_pow(field, x, n):
    if n < 0:
        x, n = field.inv(x), -n
    value = field.one()
    for _ in range(n):
        value = field.mul(value, x)
    return value


def laurent_value(lp: LaurentPoly, values, w):
    field = lp.ring.field
    total = field.zero()
    for d, p in lp.comps.items():
        total = field.add(total, field.mul(p.evaluate(values), field_pow(field, w, d)))
    return total


def laurent_polys(ring):
    return st.dictionaries(st.integers(-2, 2), polynomials(ring, 1, 3), max_size=3) \
        .map(lambda comps: LaurentPoly(ring, comps))


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
    assert substitute(f * g, images) == substitute(f, images) * substitute(g, images)


@property_settings
@given(field=fields, data=st.data())
def test_pushforward_poly_is_a_ring_homomorphism(field, data):
    ring = PolyRing(SOURCE, field)
    action = GmCoAction(ring, [data.draw(laurent_polys(ring)) for _ in SOURCE])
    f = data.draw(polynomials(ring))
    g = data.draw(polynomials(ring))
    pf, pg = action.pushforward_poly(f), action.pushforward_poly(g)
    assert action.pushforward_poly(f * g) == pf * pg
    assert action.pushforward_poly(f + g) == pf + pg


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
    f = data.draw(polynomials(source))
    out = f.subs_rational(mapping)
    inner = {n: field.div(images[n].evaluate(at), dens[n].evaluate(at)) for n in SOURCE}
    den_value = out.den.evaluate(at)
    assume(den_value)
    assert field.div(out.num.evaluate(at), den_value) == f.evaluate(inner)


@property_settings
@given(field=fields, data=st.data())
def test_eval_partial_agrees_with_evaluate(field, data):
    source = PolyRing(SOURCE, field)
    fixed = data.draw(st.sets(st.sampled_from(SOURCE)))
    rest = [n for n in SOURCE if n not in fixed]
    target = PolyRing(rest + ["extra"], field)
    f = data.draw(polynomials(source))
    at = data.draw(points(field, SOURCE))
    partial = f.eval_partial({n: at[n] for n in fixed}, target)
    assert partial.ring == target
    assert partial.evaluate({**at, "extra": field.zero()}) == f.evaluate(at)


@property_settings
@given(field=fields, data=st.data())
def test_pushforward_poly_agrees_with_evaluate(field, data):
    ring = PolyRing(SOURCE, field)
    v = [data.draw(laurent_polys(ring)) for _ in SOURCE]
    f = data.draw(polynomials(ring))
    at = data.draw(points(field, SOURCE))
    w = data.draw(coefficients(field))
    assume(w)
    pushed = GmCoAction(ring, v).pushforward_poly(f)
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
    problem = parse_problem(f"{head}\nring x y\ngmact x = {lp.text()}\ngmact y = y\n")
    assert problem.action.v_for("x") == lp
