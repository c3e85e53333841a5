"""Monomial orders: grevlex, lex, and block elimination orders.

An order exposes a sort key on exponent tuples; larger key means larger
monomial.  Keys are plain tuples so comparisons are deterministic.
"""

from .errors import ValidationError


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _lex_key(exps):
    return tuple(exps)


class MonomialOrder:
    """Total order on monomials of a fixed ring, compatible with products."""

    kind = "abstract"

    def key(self, exps):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.describe() == other.describe()

    def __hash__(self):
        return hash(self.describe())

    def describe(self):
        return (self.kind,)

    def __repr__(self):
        return self.kind


class Grevlex(MonomialOrder):
    kind = "grevlex"

    def key(self, exps):
        return _grevlex_key(exps)


class Lex(MonomialOrder):
    kind = "lex"

    def key(self, exps):
        return _lex_key(exps)


class BlockOrder(MonomialOrder):
    """Elimination order: the front block dominates, grevlex inside blocks.

    `front` is the tuple of variable indices to eliminate; every monomial
    containing a front variable is larger than every monomial free of them,
    so basis elements without front variables generate the elimination ideal.
    """

    kind = "block-elimination"

    def __init__(self, front, nvars):
        front = tuple(sorted(set(front)))
        if any(i < 0 or i >= nvars for i in front):
            raise ValidationError("front block index out of range")
        self.front = front
        self.nvars = nvars
        self._back = tuple(i for i in range(nvars) if i not in set(front))

    def key(self, exps):
        front = tuple(exps[i] for i in self.front)
        back = tuple(exps[i] for i in self._back)
        return (_grevlex_key(front), _grevlex_key(back))

    def describe(self):
        return (self.kind, self.front, self.nvars)


GREVLEX = Grevlex()
LEX = Lex()
