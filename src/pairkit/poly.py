"""Sparse multivariate polynomials and rational functions over Q or F_p.

A polynomial is a dict from exponent tuples to nonzero coefficients, tied to
a ring (ordered variable names + field).  Printing is canonical: grevlex
descending, declaration order inside a monomial, `^` only for exponents >= 2.

Rational functions keep a (numerator, denominator) pair normalized only up
to monomial content and a monic denominator; equality is decided by
cross-multiplication, never by gcd canonical forms.
"""

from fractions import Fraction

from .errors import AlgebraError, ValidationError
from .fields import FieldSpec
from .orders import GREVLEX


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
        return self.const(self.field.one())

    def const(self, value) -> "Polynomial":
        if not value:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: value})

    def const_fraction(self, value: Fraction) -> "Polynomial":
        return self.const(self.field.from_fraction(value))

    def var(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): self.field.one()})

    def gens(self):
        return [self.var(n) for n in self.names]

    def extend(self, extra_names) -> "PolyRing":
        return PolyRing(self.names + tuple(extra_names), self.field)

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and self.names == other.names and self.field == other.field)

    def __hash__(self):
        return hash((self.names, self.field))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.names)}]"


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
        return self.terms == {(0,) * self.ring.nvars: self.ring.field.one()}

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise AlgebraError("polynomial is not constant")
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero())

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

    def homogeneous_part(self, degree: int) -> "Polynomial":
        return Polynomial(self.ring, {e: c for e, c in self.terms.items()
                                      if sum(e) == degree})

    # -- arithmetic ------------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise AlgebraError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check_ring(other)
        field = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = field.add(out.get(e, field.zero()), c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.ring, out)

    def __neg__(self):
        field = self.ring.field
        return Polynomial(self.ring, {e: field.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_ring(other)
        field = self.ring.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _mono_mul(e1, e2)
                s = field.add(out.get(e, field.zero()), field.mul(c1, c2))
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(self.ring, out)

    def scale(self, coeff) -> "Polynomial":
        if not coeff:
            return self.ring.zero()
        field = self.ring.field
        return Polynomial(self.ring, {e: field.mul(c, coeff) for e, c in self.terms.items()})

    def mul_monomial(self, exps, coeff) -> "Polynomial":
        field = self.ring.field
        return Polynomial(self.ring, {_mono_mul(e, exps): field.mul(c, coeff)
                                      for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise AlgebraError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def monic(self, order=GREVLEX) -> "Polynomial":
        lead = self.leading(order)
        if lead is None:
            return self
        return self.scale(self.ring.field.inv(lead[1]))

    def derivative(self, name: str) -> "Polynomial":
        i = self.ring.index(name)
        field = self.ring.field
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            d = field.scale_int(c, exps[i])
            if not d:
                continue
            e = list(exps)
            e[i] -= 1
            e = tuple(e)
            s = field.add(out.get(e, field.zero()), d)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.ring, out)

    # -- evaluation and substitution ---------------------------------------------

    def evaluate(self, values: dict):
        """Full evaluation at field elements, keyed by variable name."""
        field = self.ring.field
        for name in self.variables_used():
            if name not in values:
                raise ValidationError(f"no value for variable {name!r}")
        total = field.zero()
        for exps, c in self.terms.items():
            term = c
            for i, e in enumerate(exps):
                if e:
                    v = values[self.ring.names[i]]
                    for _ in range(e):
                        term = field.mul(term, v)
            total = field.add(total, term)
        return total

    def eval_partial(self, values: dict, target: PolyRing) -> "Polynomial":
        """Evaluate some variables at field elements; the rest must exist in
        `target` (same field)."""
        used = self.variables_used()
        mapping = {n: target.const(values[n]) if n in values else target.var(n)
                   for n in self.ring.names if n in used}
        return self.subs_poly(mapping) if mapping else self.cast(target)

    def subs_poly(self, mapping: dict) -> "Polynomial":
        """Substitute polynomials for variables; every used variable must be
        mapped; all images share one ring."""
        return self._substitute(mapping, PolyRing.const)

    def subs_rational(self, mapping: dict) -> "RationalFunction":
        """Substitute rational functions for variables (all used variables)."""
        return self._substitute(mapping, RationalFunction.constant)

    def _substitute(self, mapping: dict, const):
        """sum const(target, c) * prod mapping[name]^e over the terms, where
        the images (polynomials, rational or Laurent functions) share the
        ring `target` over this field and cover every used variable.  The
        powers of each image are built once, by repeated multiplication."""
        images = list(mapping.values())
        target = images[0].ring if images else self.ring
        if any(g.ring != target for g in images):
            raise AlgebraError("substitution images live in different rings")
        missing = self.variables_used() - set(mapping)
        if missing:
            raise ValidationError(f"unassigned variables in substitution: {sorted(missing)}")
        if target.field != self.ring.field:
            raise AlgebraError("substitution across different fields")
        field = self.ring.field
        one = const(target, field.one())
        powers = {}
        total = const(target, field.zero())
        for exps, c in self.terms.items():
            term = const(target, c)
            for i, e in enumerate(exps):
                if e:
                    cache = powers.setdefault(i, [one])
                    while len(cache) <= e:
                        cache.append(cache[-1] * mapping[self.ring.names[i]])
                    term = term * cache[e]
            total = total + term
        return total

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
            mag = -coeff if coeff < 0 else coeff
            body = "*".join(parts) if parts else str(mag)
            if parts and mag != 1:
                body = f"{mag}*{body}"
        else:
            sign = "+"
            body = "*".join(parts) if parts else str(coeff)
            if parts and coeff != 1:
                body = f"{coeff}*{body}"
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
            if lc != ring.field.one():
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
    def zero(ring: PolyRing) -> "RationalFunction":
        return RationalFunction(ring.zero(), ring.one())

    @staticmethod
    def one(ring: PolyRing) -> "RationalFunction":
        return RationalFunction(ring.one(), ring.one())

    @staticmethod
    def constant(ring: PolyRing, value) -> "RationalFunction":
        return RationalFunction(ring.const(value), ring.one())

    # -- queries -------------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def as_polynomial(self) -> Polynomial:
        if not self.den.is_one():
            raise AlgebraError(f"not a polynomial: {self}")
        return self.num

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


def substitute(f: Polynomial, assignment: dict) -> RationalFunction:
    """Evaluate `f` with variables replaced by rational functions.

    Every variable occurring in `f` must be assigned; images must share one
    ring.  Substitution is a ring homomorphism, so the result's denominator
    divides a product of powers of the assigned denominators.
    """
    mapping = {}
    for name, value in assignment.items():
        if isinstance(value, Polynomial):
            value = RationalFunction.from_poly(value)
        mapping[name] = value
    return f.subs_rational(mapping)
