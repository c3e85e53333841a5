"""Exact coefficient fields: the rationals and prime fields F_p (p < 2**31).

A coefficient is an int over both fields, in 0..p-1 over F_p.  Over Q,
`FieldSpec.div` returns a `fractions.Fraction` only for a non-integral
quotient, and only arithmetic on such a quotient makes more; a Fraction
equals and hashes like the int of its value.  Only this module knows about
`Fraction`, and it imports `fractions` only to build one.
No floating point exists anywhere in the package.
"""

from math import gcd

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


def rational(value):
    """An int or `Fraction` as an element of Q; a float or any other value is refused."""
    if not isinstance(value, int):
        from fractions import Fraction
        if not isinstance(value, Fraction):
            raise ValidationError(f"not an exact rational: {value!r}")
    return QQ.div(value.numerator, value.denominator)


class FieldSpec:
    """A coefficient field: either Q or F_p for a prime p.

    Instances are immutable and compare by modulus (None for Q).
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        self.p = p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        if p is not None and p >= _PRIME_LIMIT:
            raise ValidationError(f"modulus too large: {p}")
        if p is None or not is_prime(p):
            raise ValidationError(f"modulus not prime: {p!r}")
        return FieldSpec(p)

    # -- division, the one way to make an element from integers --------------

    def inv(self, a):
        return self.div(1, a)

    def div(self, a, b):
        """a/b in this field, for integers or field elements a and b.

        Over Q an int when b divides a, else a `Fraction` in lowest terms.
        Over F_p a/b is brought to lowest terms first, so 4/6 is 2/3, and
        its denominator must then be prime to p.
        """
        if not b:
            raise AlgebraError("division by zero in the coefficient field")
        p = self.p
        if p is not None:
            g = gcd(a, b)
            a, b = (a // g, b // g) if b > 0 else (-a // g, -b // g)
            if b % p == 0:
                raise AlgebraError(f"denominator {b} is divisible by the modulus {p}")
            return a * pow(b, -1, p) % p
        if type(a) is int and type(b) is int and a % b == 0:
            return a // b
        from fractions import Fraction
        q = Fraction(a, b)
        return q.numerator if q.denominator == 1 else q

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"


QQ = FieldSpec()
