"""The problem-description language: parsing and bit-exact canonical printing.

One file describes one problem.  Line-oriented, `#` comments, sections in
fixed order: version?, field, ring, relation*, group, mult*, inv*, endo*,
act*/gmact*, pair*, point*.  Polynomial expressions use `+ - * ^`, integer
and a/b rational literals, parentheses; multiplication is always explicit.
"""

import re
from fractions import Fraction

from .actions import CoAction, GmCoAction, LaurentPoly
from .errors import AlgebraError, ParseError, ValidationError
from .fields import FieldSpec
from .groups import Endomorphism, GroupLaw, mult_var_names
from .poly import Polynomial, PolyRing, RationalFunction

GRAMMAR_VERSION = 1

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*^/()]))")


def _tokenize(text: str, line: int, col0: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", line,
                             col0 + pos + (len(text[pos:]) - len(stripped)) + 1)
        if m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), col0 + m.start("int") + 1))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), col0 + m.start("ident") + 1))
        else:
            tokens.append(("op", m.group("op"), col0 + m.start("op") + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive-descent expression parser over a pluggable value context."""

    def __init__(self, tokens, line, context):
        self.tokens = tokens
        self.line = line
        self.ctx = context
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}", self.line, tok[2])

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing {tok[1]!r}", self.line, tok[2])
        return value

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.take()
                rhs = self.term()
                value = self.ctx.add(value, rhs) if tok[1] == "+" else \
                    self.ctx.add(value, self.ctx.neg(rhs))
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.take()
                value = self.ctx.mul(value, self.unary())
            elif tok and tok[0] == "op" and tok[1] == "/":
                if not self.ctx.allows_division:
                    raise ParseError("division is only allowed between integer literals",
                                     self.line, tok[2])
                self.take()
                value = self.ctx.div(value, self.unary(), self.line, tok[2])
            else:
                return value

    def unary(self):
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.take()
            return self.ctx.neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.take()
            sign = 1
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "-":
                self.take()
                sign = -1
            tok = self.take()
            if tok[0] != "int":
                raise ParseError("exponent must be an integer", self.line, tok[2])
            return self.ctx.pow(base, sign * tok[1], self.line, tok[2])
        return base

    def atom(self):
        tok = self.take()
        if tok[0] == "int":
            # possible rational literal a/b
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/" and not self.ctx.allows_division:
                after = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
                if after and after[0] == "int":
                    self.take()
                    self.take()
                    if after[1] == 0:
                        raise ParseError("zero denominator in rational literal",
                                         self.line, after[2])
                    return self.ctx.const(Fraction(tok[1], after[1]), self.line, tok[2])
            return self.ctx.const(Fraction(tok[1]), self.line, tok[2])
        if tok[0] == "ident":
            return self.ctx.var(tok[1], self.line, tok[2])
        if tok[0] == "op" and tok[1] == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {tok[1]!r}", self.line, tok[2])


class _PolyContext:
    allows_division = False

    def __init__(self, ring: PolyRing):
        self.ring = ring

    def const(self, frac, line, col):
        try:
            return self.ring.const_fraction(frac)
        except AlgebraError as exc:
            raise ParseError(str(exc), line, col)

    def var(self, name, line, col):
        if name not in self.ring._index:
            raise ParseError(f"undeclared variable {name!r}", line, col)
        return self.ring.var(name)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def pow(self, a, n, line, col):
        if n < 0:
            raise ParseError("negative exponent is only allowed on the weight variable w",
                             line, col)
        return a ** n


class _LaurentContext:
    allows_division = False

    def __init__(self, ring: PolyRing, weight_name: str = "w"):
        if weight_name in ring.names:
            raise ValidationError(
                f"ring variable {weight_name!r} collides with the weight variable")
        self.ring = ring
        self.weight_name = weight_name

    def const(self, frac, line, col):
        try:
            return LaurentPoly.from_poly(self.ring.const_fraction(frac))
        except AlgebraError as exc:
            raise ParseError(str(exc), line, col)

    def var(self, name, line, col):
        if name == self.weight_name:
            return LaurentPoly(self.ring, {1: self.ring.one()})
        if name not in self.ring._index:
            raise ParseError(f"undeclared variable {name!r}", line, col)
        return LaurentPoly.from_poly(self.ring.var(name))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return LaurentPoly(a.ring, {d: -p for d, p in a.comps.items()})

    def mul(self, a, b):
        return a * b

    def pow(self, a, n, line, col):
        try:
            return a ** n
        except AlgebraError as exc:
            raise ParseError(str(exc), line, col)


class _RationalContext:
    """Used for probe expressions: `/` is true division."""

    allows_division = True

    def __init__(self, ring: PolyRing):
        self.ring = ring

    def const(self, frac, line, col):
        try:
            return RationalFunction.constant(self.ring, self.ring.field.from_fraction(frac))
        except AlgebraError as exc:
            raise ParseError(str(exc), line, col)

    def var(self, name, line, col):
        if name not in self.ring._index:
            raise ParseError(f"undeclared variable {name!r}", line, col)
        return RationalFunction.from_poly(self.ring.var(name))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b, line, col):
        if b.is_zero():
            raise ParseError("division by zero", line, col)
        return a / b

    def pow(self, a, n, line, col):
        if n < 0 and a.is_zero():
            raise ParseError("negative power of zero", line, col)
        return a ** n


def parse_polynomial(text: str, ring: PolyRing, line: int = 1, col0: int = 0) -> Polynomial:
    tokens = _tokenize(text, line, col0)
    if not tokens:
        raise ParseError("empty expression", line)
    return _ExprParser(tokens, line, _PolyContext(ring)).parse()


def parse_rational(text: str, ring: PolyRing, line: int = 1) -> RationalFunction:
    tokens = _tokenize(text, line, 0)
    if not tokens:
        raise ParseError("empty expression", line)
    return _ExprParser(tokens, line, _RationalContext(ring)).parse()


def _parse_laurent(text: str, ring: PolyRing, line: int, col0: int) -> LaurentPoly:
    tokens = _tokenize(text, line, col0)
    if not tokens:
        raise ParseError("empty expression", line)
    return _ExprParser(tokens, line, _LaurentContext(ring)).parse()


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def _parse_point_value(word: str, field: FieldSpec, line: int):
    m = _RATIONAL_RE.match(word)
    if not m:
        raise ParseError(f"bad rational literal {word!r}", line)
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator in rational literal", line)
    try:
        return field.from_fraction(Fraction(int(m.group(1)), den))
    except AlgebraError as exc:
        raise ParseError(str(exc), line)


class ProblemFile:
    """Validated contents of one problem description."""

    __slots__ = ("field", "ring", "relations", "group", "endo", "action",
                 "pairs", "points")

    def __init__(self, field, ring, relations, group, endo, action, pairs, points):
        self.field = field
        self.ring = ring
        self.relations = relations
        self.group = group
        self.endo = endo
        self.action = action
        self.pairs = pairs          # index -> (g list, h list)
        self.points = points

    @property
    def is_gm(self) -> bool:
        return isinstance(self.action, GmCoAction)

    def pair(self, idx: int):
        if idx not in self.pairs:
            raise ValidationError(f"no pair with index {idx}")
        return self.pairs[idx]

    def __eq__(self, other):
        if not isinstance(other, ProblemFile):
            return NotImplemented
        if (self.field, self.ring.names) != (other.field, other.ring.names):
            return False
        if self.relations != other.relations or self.points != other.points:
            return False
        if (self.group is None) != (other.group is None):
            return False
        if self.group is not None:
            if (self.group.coords != other.group.coords
                    or self.group.mult != other.group.mult
                    or self.group.inv != other.group.inv):
                return False
        if (self.endo is None) != (other.endo is None):
            return False
        if self.endo is not None and self.endo.phi != other.endo.phi:
            return False
        if self.is_gm != other.is_gm or self.action.v != other.action.v:
            return False
        return self.pairs == other.pairs


_SECTION_RANK = {"version": 0, "field": 1, "ring": 2, "relation": 3, "group": 4,
                 "mult": 5, "inv": 6, "endo": 7, "act": 8, "gmact": 8,
                 "pair": 9, "point": 10}


def parse_problem(text: str) -> ProblemFile:
    field = None
    ring = None
    relations = []
    group_coords = None
    mult = {}
    inv = {}
    endo = {}
    act = {}
    gmact = {}
    pair_g = {}
    pair_h = {}
    points = []
    last_rank = -1
    last_line = 0

    def require(cond, message, line):
        if not cond:
            raise ParseError(message, line)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        body = raw.split("#", 1)[0].rstrip()
        if not body.strip():
            continue
        if "=" in body:
            head, expr_text = body.split("=", 1)
            expr_col = len(head) + 1
            head_words = head.split()
        else:
            head_words, expr_text, expr_col = body.split(), None, 0
        keyword = head_words[0]
        if keyword not in _SECTION_RANK:
            raise ParseError(f"unknown directive {keyword!r}", lineno)
        rank = _SECTION_RANK[keyword]
        require(rank >= last_rank,
                f"directive {keyword!r} out of order (sections are fixed: field, ring, "
                "relation, group, mult, inv, endo, act/gmact, pair, point)", lineno)
        last_rank = rank

        if keyword == "version":
            require(len(head_words) == 2 and head_words[1].isdigit(),
                    "usage: version <n>", lineno)
            require(int(head_words[1]) == GRAMMAR_VERSION,
                    f"unsupported version {head_words[1]} (supported: {GRAMMAR_VERSION})",
                    lineno)
        elif keyword == "field":
            require(field is None, "duplicate field directive", lineno)
            if len(head_words) == 2 and head_words[1] == "Q":
                field = FieldSpec.rationals()
            elif len(head_words) == 3 and head_words[1] == "Fp":
                require(head_words[2].isdigit(), "usage: field Fp <p>", lineno)
                try:
                    field = FieldSpec.prime(int(head_words[2]))
                except ValidationError as exc:
                    raise ParseError(str(exc), lineno)
            else:
                raise ParseError("usage: field Q | field Fp <p>", lineno)
        elif keyword == "ring":
            require(field is not None, "ring before field", lineno)
            require(ring is None, "duplicate ring directive", lineno)
            require(len(head_words) > 1, "ring needs at least one variable", lineno)
            try:
                ring = PolyRing(head_words[1:], field)
            except ValidationError as exc:
                raise ParseError(str(exc), lineno)
        elif keyword == "relation":
            require(ring is not None, "relation before ring", lineno)
            require(expr_text is None, "relation lines do not use '='", lineno)
            parts = body.split(None, 1)
            require(len(parts) == 2, "usage: relation <poly>", lineno)
            relations.append(parse_polynomial(parts[1], ring, lineno,
                                              body.find(parts[1])))
        elif keyword == "group":
            require(ring is not None, "group before ring", lineno)
            require(group_coords is None, "duplicate group directive", lineno)
            require(len(head_words) >= 4 and head_words[1] == "dim"
                    and head_words[2].isdigit() and head_words[3] == "coords",
                    "usage: group dim <s> coords <t1> ... <ts>", lineno)
            s = int(head_words[2])
            coords = head_words[4:]
            require(s >= 1, "group dimension must be positive", lineno)
            require(len(coords) == s, f"expected {s} coordinate names", lineno)
            require(len(set(coords)) == s, "duplicate coordinate names", lineno)
            require(not set(coords) & set(ring.names),
                    "group coordinate names must be disjoint from ring variables", lineno)
            group_coords = coords
        elif keyword in ("mult", "inv", "endo"):
            require(group_coords is not None, f"{keyword} before group", lineno)
            require(expr_text is not None and len(head_words) == 2,
                    f"usage: {keyword} <coord> = <poly>", lineno)
            coord = head_words[1]
            require(coord in group_coords, f"unknown group coordinate {coord!r}", lineno)
            target = {"mult": mult, "inv": inv, "endo": endo}[keyword]
            require(coord not in target, f"duplicate {keyword} line for {coord!r}", lineno)
            s = len(group_coords)
            if keyword == "mult":
                a_names, b_names = mult_var_names(s)
                expr_ring = PolyRing(a_names + b_names, field)
            else:
                expr_ring = PolyRing(group_coords, field)
            target[coord] = parse_polynomial(expr_text, expr_ring, lineno, expr_col)
        elif keyword == "act":
            require(ring is not None, "act before ring", lineno)
            require(group_coords is not None, "act before group", lineno)
            require(not gmact, "cannot mix act and gmact", lineno)
            require(expr_text is not None and len(head_words) == 2,
                    "usage: act <var> = <poly>", lineno)
            name = head_words[1]
            require(name in ring.names, f"unknown ring variable {name!r}", lineno)
            require(name not in act, f"duplicate act line for {name!r}", lineno)
            big = PolyRing(ring.names + tuple(group_coords), field)
            act[name] = parse_polynomial(expr_text, big, lineno, expr_col)
        elif keyword == "gmact":
            require(ring is not None, "gmact before ring", lineno)
            require(not act, "cannot mix act and gmact", lineno)
            require(expr_text is not None and len(head_words) == 2,
                    "usage: gmact <var> = <Laurent poly in w>", lineno)
            name = head_words[1]
            require(name in ring.names, f"unknown ring variable {name!r}", lineno)
            require(name not in gmact, f"duplicate gmact line for {name!r}", lineno)
            try:
                context_ring = ring
                gmact[name] = _parse_laurent(expr_text, context_ring, lineno, expr_col)
            except ValidationError as exc:
                raise ParseError(str(exc), lineno)
        elif keyword == "pair":
            require(ring is not None, "pair before ring", lineno)
            require(expr_text is None, "pair lines do not use '='", lineno)
            require(len(head_words) >= 4 and head_words[1].isdigit()
                    and head_words[2] in ("g", "h"),
                    "usage: pair <idx> g <poly> | pair <idx> h <poly>", lineno)
            idx = int(head_words[1])
            require(idx >= 1, "pair index must be >= 1", lineno)
            expr_str = body.split(None, 3)[3]
            col = body.find(expr_str)
            poly = parse_polynomial(expr_str, ring, lineno, col)
            bucket = pair_g if head_words[2] == "g" else pair_h
            bucket.setdefault(idx, []).append(poly)
        elif keyword == "point":
            require(ring is not None, "point before ring", lineno)
            values = [_parse_point_value(w, field, lineno) for w in head_words[1:]]
            require(len(values) == ring.nvars,
                    f"point needs {ring.nvars} coordinates", lineno)
            points.append(tuple(values))

    eof = last_line or 1
    if field is None:
        raise ParseError("missing field section", eof)
    if ring is None:
        raise ParseError("missing ring section", eof)
    if not act and not gmact:
        raise ParseError("missing action section (act or gmact lines)", eof)

    group = None
    if group_coords is not None:
        for coord in group_coords:
            if coord not in mult:
                raise ParseError(f"missing mult line for {coord!r}", eof)
            if coord not in inv:
                raise ParseError(f"missing inv line for {coord!r}", eof)
        group = GroupLaw(group_coords, field,
                         [mult[c] for c in group_coords],
                         [inv[c] for c in group_coords])

    endo_map = None
    if endo:
        if group is None:
            raise ParseError("endo section requires a group section", eof)
        for coord in group_coords:
            if coord not in endo:
                raise ParseError(f"missing endo line for {coord!r}", eof)
        endo_map = Endomorphism(group, [endo[c] for c in group_coords])

    if act:
        if group is None:
            raise ParseError("act lines require a group section", eof)
        for name in ring.names:
            if name not in act:
                raise ParseError(f"missing act line for {name!r}", eof)
        action = CoAction(group, ring, [act[n] for n in ring.names])
    else:
        for name in ring.names:
            if name not in gmact:
                raise ParseError(f"missing gmact line for {name!r}", eof)
        if endo_map is not None or pair_g or pair_h:
            raise ParseError("pair/endo sections require a unipotent (act) problem", eof)
        action = GmCoAction(ring, [gmact[n] for n in ring.names])

    pairs = {}
    for idx in sorted(set(pair_g) | set(pair_h)):
        g = pair_g.get(idx, [])
        h = pair_h.get(idx, [])
        s = group.s if group else 0
        if len(g) != s or len(h) != s:
            raise ParseError(f"pair {idx} needs {s} g lines and {s} h lines "
                             f"(got {len(g)} and {len(h)})", eof)
        for p in h:
            if p.is_zero():
                raise ParseError(f"pair {idx} has a zero h polynomial", eof)
        pairs[idx] = (g, h)

    return ProblemFile(field, ring, relations, group, endo_map, action, pairs, points)


# -- canonical printing ------------------------------------------------------------


def _field_text(field: FieldSpec) -> str:
    return "field Q" if field.p is None else f"field Fp {field.p}"


def render(obj) -> str:
    """Canonical text for a Polynomial, RationalFunction, or ProblemFile."""
    if isinstance(obj, Polynomial):
        return obj.text()
    if isinstance(obj, RationalFunction):
        return obj.text()
    if isinstance(obj, LaurentPoly):
        return obj.text()
    if isinstance(obj, ProblemFile):
        return render_problem(obj)
    raise ValidationError(f"cannot render {type(obj).__name__}")


def render_problem(problem: ProblemFile) -> str:
    lines = [f"version {GRAMMAR_VERSION}", _field_text(problem.field),
             "ring " + " ".join(problem.ring.names)]
    for rel in problem.relations:
        lines.append(f"relation {rel.text()}")
    if problem.group is not None:
        law = problem.group
        lines.append(f"group dim {law.s} coords " + " ".join(law.coords))
        for coord, m in zip(law.coords, law.mult):
            lines.append(f"mult {coord} = {m.text()}")
        for coord, p in zip(law.coords, law.inv):
            lines.append(f"inv {coord} = {p.text()}")
    if problem.endo is not None:
        for coord, p in zip(problem.group.coords, problem.endo.phi):
            lines.append(f"endo {coord} = {p.text()}")
    if problem.is_gm:
        for name in problem.ring.names:
            lines.append(f"gmact {name} = {problem.action.v_for(name).text()}")
    else:
        for name in problem.ring.names:
            lines.append(f"act {name} = {problem.action.v_for(name).text()}")
    for idx in sorted(problem.pairs):
        g, h = problem.pairs[idx]
        for p in g:
            lines.append(f"pair {idx} g {p.text()}")
        for p in h:
            lines.append(f"pair {idx} h {p.text()}")
    for point in problem.points:
        lines.append("point " + " ".join(str(v) for v in point))
    return "\n".join(lines) + "\n"
