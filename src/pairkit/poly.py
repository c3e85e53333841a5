"""Sparse multivariate polynomials and rational functions over Q or F_p.

A polynomial is a dict from exponent tuples to nonzero coefficients, tied to
a ring (ordered variable names + field).  Coefficients are exact Python
numbers as `fields.py` makes them: ints in 1..p-1 over F_p, and over Q ints,
with `Fraction`s only downstream of a field division whose quotient was not
an integer.  Arithmetic sums them with Python's own operators, so int
coefficients stay ints, and reduces each result mod p once, in `_reduced`;
the constructor drops the zeros.  Printing is canonical: grevlex
descending, declaration order inside a monomial, `^` only for exponents >= 2.

Rational functions keep a (numerator, denominator) pair normalized only up
to monomial content and a monic denominator; equality is decided by
cross-multiplication, never by gcd canonical forms.
"""

from math import prod

from .errors import AlgebraError, ValidationError
from .fields import FieldSpec
from .orders import GREVLEX


def _int_text(n: int) -> str:
    """Decimal text of an int of any size.  str() refuses more digits than
    Python's int digit limit (4300 by default), so a long int is split at a
    power of 10 near half its digits."""
    if n < 0:
        return "-" + _int_text(-n)
    if n.bit_length() <= 2000:      # at most 603 digits, under any limit
        return str(n)
    k = n.bit_length() * 3 // 20    # about half the decimal digits
    high, low = divmod(n, 10 ** k)
    return _int_text(high) + _int_text(low).zfill(k)


def fresh_names(base: str, count: int, avoid, numbered=False) -> list:
    """Deterministic fresh variable names: `base` if count==1 and not
    `numbered`, else base1..baseN, doubling the last letter until there is
    no collision with `avoid`."""
    avoid = set(avoid)
    while True:
        if count == 1 and not numbered:
            names = [base]
        else:
            names = [f"{base}{i}" for i in range(1, count + 1)]
        if not any(n in avoid for n in names):
            return names
        base = base + base[-1]


class PolyRing:
    """An ordered list of variable names over a FieldSpec."""

    __slots__ = ("names", "field", "_index")

    def __init__(self, names, field: FieldSpec):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate variable names in ring {names}")
        self.names = names
        self.field = field
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        if name not in self._index:
            raise ValidationError(f"undeclared variable {name!r}")
        return self._index[name]

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value) -> "Polynomial":
        if not value:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: value})

    def var(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): 1})

    def gens(self):
        return [self.var(n) for n in self.names]

    def extend(self, extra_names) -> "PolyRing":
        return PolyRing(self.names + tuple(extra_names), self.field)

    def __eq__(self, other):
        return other is self or (isinstance(other, PolyRing)
                                 and self.names == other.names
                                 and self.field == other.field)

    def __hash__(self):
        return hash((self.names, self.field))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.names)}]"


def _reduced(ring: PolyRing, sums: dict) -> "Polynomial":
    """The polynomial with the exact coefficient sums `sums`, each reduced
    mod p once over F_p (over Q they are kept as they are)."""
    p = ring.field.p
    if p is not None:
        sums = {e: c % p for e, c in sums.items()}
    return Polynomial(ring, sums)


def power(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply; `one` is the unit of
    base's ring."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def powers(base, exponents, one) -> dict:
    """{e: base^e} for exactly the given exponents.  They are built in
    ascending order: a power one above the last costs one multiplication,
    and a gap is bridged by `power`."""
    out, last, value = {}, 0, one
    for e in sorted(set(exponents)):
        step = base if e == last + 1 else power(base, e - last, one)
        value = step if last == 0 else value * step
        out[e], last = value, e
    return out


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.ring.nvars: 1}

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def variables_used(self):
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(self.ring.names[i])
        return used

    def leading(self, order=GREVLEX):
        """(exponents, coefficient) of the largest monomial, or None if zero."""
        if not self.terms:
            return None
        exps = max(self.terms, key=order.key)
        return exps, self.terms[exps]

    # -- arithmetic ------------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise AlgebraError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return _reduced(self.ring, out)

    def __neg__(self):
        return _reduced(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_ring(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _mono_mul(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
        return _reduced(self.ring, out)

    def scale(self, coeff) -> "Polynomial":
        return _reduced(self.ring, {e: c * coeff for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise AlgebraError("negative polynomial power")
        return power(self, n, self.ring.one())

    def derivative(self, name: str) -> "Polynomial":
        # lowering exponent i is injective on the terms with e[i] > 0
        i = self.ring.index(name)
        return _reduced(self.ring, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                                    for e, c in self.terms.items() if e[i]})

    # -- evaluation and substitution ---------------------------------------------

    def evaluate(self, values: dict):
        """Full evaluation at field elements, keyed by variable name."""
        for name in self.variables_used():
            if name not in values:
                raise ValidationError(f"no value for variable {name!r}")
        names = self.ring.names
        field = self.ring.field
        total = sum(c * prod(values[names[i]] ** e for i, e in enumerate(exps) if e)
                    for exps, c in self.terms.items())
        return total % field.p if field.p is not None else total

    def subs_poly(self, mapping: dict) -> "Polynomial":
        """Substitute polynomials for variables; every used variable must be
        mapped; all images share one ring."""
        num, den = self._substitute(mapping)
        if not den.is_one():
            raise AlgebraError("subs_poly needs polynomial images; use subs_rational")
        return num

    def subs_rational(self, mapping: dict) -> "RationalFunction":
        """Substitute polynomials or rational functions p_i/q_i: F/D, as in `_substitute`."""
        return RationalFunction(*self._substitute(mapping))

    def _substitute(self, mapping: dict):
        """(F, D) with this polynomial at the images p_i/q_i equal to F/D, for
        F = sum c * prod p_i^e_i * q_i^(d_i - e_i) over the terms, D = prod
        q_i^d_i, d_i the degree in z_i and q_i = 1 for a polynomial image.
        The images share one ring over this field and cover every used
        variable.  Only the powers whose exponents occur are built, each
        once, and F is summed in one dict."""
        images = list(mapping.values())
        target = images[0].ring if images else self.ring
        if any(g.ring != target for g in images):
            raise AlgebraError("substitution images live in different rings")
        missing = self.variables_used() - set(mapping)
        if missing:
            raise ValidationError(f"unassigned variables in substitution: {sorted(missing)}")
        if target.field != self.ring.field:
            raise AlgebraError("substitution across different fields")
        one = target.one()
        p_powers = {}       # i -> {e: p_i^e} for the exponents e > 0 of z_i
        q_powers = {}       # i -> (d_i, {d_i - e: q_i^(d_i - e)} and q_i^d_i), if q_i != 1
        for i, column in enumerate(map(set, zip(*self.terms))):
            d = max(column)
            if d:
                g = mapping[self.ring.names[i]]
                rational = isinstance(g, RationalFunction)
                p_powers[i] = powers(g.num if rational else g, column - {0}, one)
                if rational and not g.den.is_one():
                    q_powers[i] = d, powers(g.den, {d - e for e in column} | {d}, one)
        sums = {}
        for exps, c in self.terms.items():
            factors = [p_powers[i][e] for i, e in enumerate(exps) if e]
            factors += [qs[d - exps[i]] for i, (d, qs) in q_powers.items() if exps[i] < d]
            for e, v in prod(factors, start=target.const(c)).terms.items():
                sums[e] = sums[e] + v if e in sums else v
        return _reduced(target, sums), prod((qs[d] for d, qs in q_powers.values()), start=one)

    # -- ring moves ----------------------------------------------------------------

    def cast(self, target: PolyRing, rename: dict | None = None) -> "Polynomial":
        """Re-express in `target`, matching variables by (optionally renamed) name."""
        rename = rename or {}
        if target.field != self.ring.field:
            raise AlgebraError("cannot cast between different fields")
        out = {}
        for exps, c in self.terms.items():
            t_exps = [0] * target.nvars
            for i, e in enumerate(exps):
                if e:
                    name = self.ring.names[i]
                    name = rename.get(name, name)
                    t_exps[target.index(name)] += e
            out[tuple(t_exps)] = c
        return Polynomial(target, out)

    # -- equality and printing --------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.ring == other.ring and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def _term_str(self, exps, coeff, lead=False) -> str:
        field = self.ring.field
        parts = []
        for i, e in enumerate(exps):
            if e == 1:
                parts.append(self.ring.names[i])
            elif e >= 2:
                parts.append(f"{self.ring.names[i]}^{e}")
        if field.p is None:
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            number = _int_text(mag.numerator)
            if mag.denominator != 1:
                number += "/" + _int_text(mag.denominator)
        else:
            sign, number = "+", str(coeff)
        body = "*".join(parts) if parts else number
        if parts and number != "1":
            body = f"{number}*{body}"
        if lead:
            return body if sign == "+" else f"-{body}"
        return f" {sign} {body}"

    def text(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=GREVLEX.key, reverse=True)
        pieces = [self._term_str(e, self.terms[e], lead=(i == 0))
                  for i, e in enumerate(ordered)]
        return "".join(pieces)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"<{self.text()} in {self.ring!r}>"


class RationalFunction:
    """num/den with den != 0; normalized by monomial content and monic den."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if num.ring != den.ring:
            raise AlgebraError("numerator and denominator in different rings")
        if den.is_zero():
            raise AlgebraError("zero denominator")
        ring = num.ring
        if num.is_zero():
            den = ring.one()
        else:
            shift = None
            for exps in list(num.terms) + list(den.terms):
                shift = exps if shift is None else tuple(min(a, b) for a, b in zip(shift, exps))
            if any(shift):
                num = Polynomial(ring, {_mono_div(e, shift): c for e, c in num.terms.items()})
                den = Polynomial(ring, {_mono_div(e, shift): c for e, c in den.terms.items()})
            lc = den.leading(GREVLEX)[1]
            if lc != 1:
                inv = ring.field.inv(lc)
                num = num.scale(inv)
                den = den.scale(inv)
        self.ring = ring
        self.num = num
        self.den = den

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def from_poly(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, p.ring.one())

    @staticmethod
    def one(ring: PolyRing) -> "RationalFunction":
        return RationalFunction(ring.one(), ring.one())

    # -- queries -------------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ---------------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.num.is_zero():
            raise AlgebraError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int):
        if n < 0:
            return (RationalFunction.one(self.ring) / self) ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def inverse(self) -> "RationalFunction":
        return RationalFunction.one(self.ring) / self

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if other.ring != self.ring:
                raise AlgebraError("rational functions in different rings")
            return other
        if isinstance(other, Polynomial):
            return RationalFunction.from_poly(other)
        raise AlgebraError(f"cannot combine rational function with {type(other).__name__}")

    # -- equality by cross-multiplication -----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            other = RationalFunction.from_poly(other)
        if not isinstance(other, RationalFunction) or other.ring != self.ring:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    # -- ring moves -------------------------------------------------------------------------

    def cast(self, target: PolyRing, rename: dict | None = None) -> "RationalFunction":
        return RationalFunction(self.num.cast(target, rename), self.den.cast(target, rename))

    def subs_rational(self, mapping: dict) -> "RationalFunction":
        num = self.num.subs_rational(mapping)
        den = self.den.subs_rational(mapping)
        if den.is_zero():
            raise AlgebraError("denominator maps to zero under substitution")
        return num / den

    def text(self) -> str:
        if self.den.is_one():
            return self.num.text()
        return f"({self.num.text()})/({self.den.text()})"

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"<{self.text()} in {self.ring!r}>"
