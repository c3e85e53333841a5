"""`buchberger` and `eliminate` against sympy's Groebner bases, an engine
written independently of pairkit's, on seeded random ideals over Q, F_2 and
F_7.  Skipped when sympy is absent; pairkit itself has no dependencies."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from pairkit.fields import QQ, FieldSpec  # noqa: E402
from pairkit.gbasis import Ideal, buchberger, eliminate  # noqa: E402
from pairkit.poly import Polynomial, PolyRing  # noqa: E402
from pairkit.problem import parse_polynomial  # noqa: E402

from oracles import random_polynomial  # noqa: E402

FIELDS = [QQ, FieldSpec.prime(2), FieldSpec.prime(7)]
FIELD_IDS = ["Q", "F2", "F7"]

# katsura-3 with one rational coefficient: its reduced basis over Q has
# coefficients of up to 18 bits, where the random ideals stay small
KATSURA_3 = ["x0 + 2*x1 + 2*x2 + 2*x3 - 1",
             "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0",
             "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1",
             "x1^2 + 2*x0*x2 + 2*x1*x3 - 1/3*x2"]


def to_sympy(f: Polynomial, symbols):
    out = sympy.Integer(0)
    for exps, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator) \
            if isinstance(c, Fraction) else sympy.Integer(c)
        for s, e in zip(symbols, exps):
            term *= s ** e
        out += term
    return out


def sympy_basis(polys, ring: PolyRing, order="grevlex"):
    """sympy's reduced basis of the polynomials, back in pairkit's ring as
    monic polynomials (sympy clears denominators and uses symmetric residues)."""
    symbols = sympy.symbols(ring.names)
    options = {"order": order}
    if ring.field.p is not None:
        options["modulus"] = ring.field.p
    exprs = [to_sympy(f, symbols) for f in polys]
    out = []
    for expr in sympy.groebner(exprs, *symbols, **options).exprs:
        terms = {}
        for exps, c in sympy.Poly(expr, *symbols).as_dict().items():
            value = ring.field.div(int(c.p), int(c.q))
            if value:
                terms[tuple(int(e) for e in exps)] = value
        f = Polynomial(ring, terms)
        out.append(f.scale(ring.field.inv(f.leading()[1])))
    return out


def texts(polys):
    return sorted(p.text() for p in polys)


def random_gens(ring, rng, count, degree, terms):
    gens = [random_polynomial(ring, rng, degree, terms) for _ in range(count)]
    return [g for g in gens if not g.is_zero()]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_reduced_grevlex_basis_matches_sympy(field):
    ring = PolyRing(["x", "y", "z"], field)
    rng = random.Random(f"sympy-grevlex:{field.p}")
    checked = 0
    for _ in range(12):
        gens = random_gens(ring, rng, rng.randint(2, 3), 3, 3)
        if not gens:
            continue
        assert texts(buchberger(gens)) == texts(sympy_basis(gens, ring))
        checked += 1
    assert checked >= 10
    ring = PolyRing(["x0", "x1", "x2", "x3"], field)
    gens = [parse_polynomial(text, ring) for text in KATSURA_3]
    assert texts(buchberger(gens)) == texts(sympy_basis(gens, ring))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_elimination_matches_sympy(field):
    """eliminate(I, keep) generates the same ideal as the k[keep] part of
    sympy's lex basis with the eliminated variables first; equality is
    decided by comparing sympy's reduced grevlex bases in k[keep]."""
    ring = PolyRing(["a", "b", "T1", "T2"], field)
    keep = ["T1", "T2"]
    sub = PolyRing(keep, field)
    a, b, T1, T2 = ring.gens()
    plane = PolyRing(["a", "b"], field)
    rng = random.Random(f"sympy-eliminate:{field.p}")
    for trial in range(8):
        if trial % 2:
            gens = random_gens(ring, rng, 3, 2, 3)
        else:
            # a random parametrized surface, so the contraction is not zero
            f1, f2 = (random_polynomial(plane, rng, 2, 3).cast(ring)
                      for _ in range(2))
            gens = [T1 - f1, T2 - f2, a * b - ring.one()]
        if not gens:
            continue
        ours = [g.cast(sub) for g in eliminate(Ideal(ring, gens), keep).gens]
        theirs = [p.cast(sub) for p in sympy_basis(gens, ring, order="lex")
                  if p.variables_used() <= set(keep)]
        if not theirs:
            assert ours == []
            continue
        assert ours
        assert texts(sympy_basis(ours, sub)) == texts(sympy_basis(theirs, sub))
