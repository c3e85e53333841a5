"""Exact coefficient fields: the rationals and prime fields F_p (p < 2**31).

Rational coefficients are `fractions.Fraction`; F_p coefficients are plain
ints in the range 0..p-1.  No floating point exists anywhere in the package.
"""

from fractions import Fraction

from .errors import AlgebraError, ValidationError

_PRIME_LIMIT = 2**31


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """A coefficient field: either Q or F_p for a prime p.

    Instances are immutable and compare by modulus (None for Q).
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        self.p = p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec()

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        if p is not None and p >= _PRIME_LIMIT:
            raise ValidationError(f"modulus too large: {p}")
        if p is None or not is_prime(p):
            raise ValidationError(f"modulus not prime: {p!r}")
        return FieldSpec(p)

    # -- arithmetic on coefficient values ------------------------------------

    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def from_fraction(self, value: Fraction):
        """Coerce an exact rational literal into this field."""
        if self.p is None:
            return Fraction(value)
        num = value.numerator % self.p
        den = value.denominator % self.p
        if den == 0:
            raise AlgebraError(
                f"denominator {value.denominator} is divisible by the modulus {self.p}")
        return num * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def inv(self, a):
        if not a:
            raise AlgebraError("division by zero in the coefficient field")
        if self.p is not None:
            return pow(a, -1, self.p)
        return Fraction(1) / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"


QQ = FieldSpec.rationals()
