"""Timed-LTL formulas: abstract syntax trees, text syntax and printing.

Node kinds cover the core grammar (atoms, not, or, next, until, prophecy),
the sugar operators handled natively by the monitor (and, implies, weak
next, eventually, always), and the monitor-internal ActiveProphecy that
never occurs in parsed user input.

Every node carries a rewriting mark used by the monitor pipeline.  Marks
are excluded from structural equality, hashing and printing.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction


class FormulaError(ValueError):
    """Malformed formula text or an ill-formed formula tree."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.reason = message
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


Time = int | Fraction


def exact_time(numerator: int, denominator: int = 1) -> Time:
    """numerator/denominator as every time is held: an int when it is whole,
    else a Fraction.  Python adds and compares the two exactly."""
    whole, rest = divmod(numerator, denominator)
    return Fraction(numerator, denominator) if rest else whole


def time_str(t: Time) -> str:
    """Render an exact rational as an exact decimal string.

    Only rationals with a 2^a * 5^b denominator have a finite decimal
    expansion; anything else is rejected rather than rounded, and so is a
    time with more digits than `str()` gives.
    """
    if t.denominator == 1:
        return _digits(t.numerator)
    den = t.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise FormulaError(f"{t} has no exact decimal representation")
    digits = max(twos, fives)
    scaled = abs(t.numerator) * 10**digits // t.denominator
    text = _digits(scaled).rjust(digits + 1, "0")
    sign = "-" if t < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _digits(n: int) -> str:
    try:
        return str(n)
    except ValueError as exc:  # more digits than str() gives
        raise FormulaError(f"too long to print as a decimal: {exc}") from None


def _bound_str(t: Time) -> str:
    """`time_str`, or `str()` for a time with no decimal form."""
    try:
        return time_str(t)
    except FormulaError:
        return str(t)


# --- abstract syntax ---------------------------------------------------------


@dataclass(frozen=True)
class Node:
    """Base formula node.  `mark` is the rewriting flag, ignored by eq/hash."""

    mark: bool = field(default=False, compare=False, kw_only=True)


@dataclass(frozen=True)
class Atom(Node):
    name: str


@dataclass(frozen=True)
class TrueF(Node):
    pass


@dataclass(frozen=True)
class FalseF(Node):
    pass


@dataclass(frozen=True)
class Not(Node):
    child: Node


@dataclass(frozen=True)
class Or(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class And(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Implies(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Next(Node):
    child: Node


@dataclass(frozen=True)
class WeakNext(Node):
    child: Node


@dataclass(frozen=True)
class Until(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Eventually(Node):
    child: Node


@dataclass(frozen=True)
class Always(Node):
    child: Node


@dataclass(frozen=True)
class Prophecy(Node):
    """`within[lower,upper] p`: next occurrence of p falls in the window."""

    lower: Time
    upper: Time
    prop: str
    negated: bool = False

    def __post_init__(self):
        if not self.lower < self.upper:
            raise FormulaError(
                f"prophecy bounds must satisfy lower < upper, got "
                f"[{_bound_str(self.lower)},{_bound_str(self.upper)}]"
            )
        if self.lower < 0:
            raise FormulaError(
                f"prophecy lower bound must be non-negative, got {_bound_str(self.lower)}"
            )


@dataclass(frozen=True)
class ActiveProphecy(Node):
    """Activated prophecy whose window shifts with elapsing time.

    Bounds may become negative through shifting, so no bound check applies.
    """

    lower: Time
    upper: Time
    prop: str
    negated: bool = False


@dataclass(frozen=True)
class Property:
    """A formula located at an agent: `@A: body`."""

    agent: str
    body: Node


def _walk(n: Node) -> Iterator[tuple[Node, int]]:
    """Every node of a tree with its nesting level (the root's is 0), iteratively."""
    todo = [(n, 0)]
    while todo:
        n, level = todo.pop()
        yield n, level
        todo.extend((c, level + 1) for c in vars(n).values() if isinstance(c, Node))


def propositions(n: Node) -> set[str]:
    """The proposition names that a formula reads."""
    names = set()
    for m, _ in _walk(n):
        if isinstance(m, Atom):
            names.add(m.name)
        elif isinstance(m, (Prophecy, ActiveProphecy)):
            names.add(m.prop)
    return names


BOOLEAN_KINDS = (Not, Or, And, Implies)


# --- tokenizer ---------------------------------------------------------------

_KEYWORDS = {"U", "X", "WX", "F", "G", "within", "true", "false"}


@dataclass
class _Token:
    kind: str  # IDENT, NUM, keyword text, symbol text, or EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(_Token("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "IDENT"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if text.startswith("->", i):
            tokens.append(_Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "!|&()[],:@":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise FormulaError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


def parse_decimal(text: str) -> Time:
    """The exact value of a decimal numeral such as `3` or `2.5`.

    Raises ValueError where `int()` rejects the digits, as it does past its
    digit limit (4,300 by default); callers report it at the numeral.
    """
    whole, _, frac = text.partition(".")
    return exact_time(int(whole + frac), 10 ** len(frac))


def _parse_num(tok: _Token) -> Time:
    try:
        return parse_decimal(tok.text)
    except ValueError as exc:
        raise FormulaError(f"invalid number: {exc}", tok.line, tok.col) from None


# --- parser ------------------------------------------------------------------

# Parentheses, prefix operators and right operands of `->` and `U` each nest
# the parser one level deeper, and each operator nests the parsed tree one
# level deeper.  Both depths are bounded, so neither the parser nor a later
# recursive walk over the tree runs out of stack.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            self.fail(f"expected {kind!r}, found {self.cur.text or 'end of input'!r}")
        return self.advance()

    def fail(self, message: str):
        raise FormulaError(message, self.cur.line, self.cur.col)

    def nested(self, parse) -> Node:
        """Parse the operand of the token just read, one level deeper."""
        if self.depth == MAX_NESTING:
            opener = self.tokens[self.pos - 1]
            raise FormulaError(
                f"formula nested deeper than {MAX_NESTING} levels", opener.line, opener.col
            )
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def property_(self) -> Property:
        self.expect("@")
        agent = self.expect("IDENT").text
        self.expect(":")
        return Property(agent, self.bare_formula())

    def bare_formula(self) -> Node:
        start = self.cur
        body = self.formula()
        self.expect("EOF")
        if max(level for _, level in _walk(body)) > MAX_NESTING:
            raise FormulaError(
                f"formula nested deeper than {MAX_NESTING} levels", start.line, start.col
            )
        return body

    def formula(self) -> Node:
        return self.implies()

    def implies(self) -> Node:
        left = self.or_()
        if self.cur.kind == "->":
            self.advance()
            return Implies(left, self.nested(self.implies))
        return left

    def or_(self) -> Node:
        node = self.and_()
        while self.cur.kind == "|":
            self.advance()
            node = Or(node, self.and_())
        return node

    def and_(self) -> Node:
        node = self.until()
        while self.cur.kind == "&":
            self.advance()
            node = And(node, self.until())
        return node

    def until(self) -> Node:
        left = self.unary()
        if self.cur.kind == "U":
            self.advance()
            return Until(left, self.nested(self.until))
        return left

    def unary(self) -> Node:
        kind = self.cur.kind
        if kind == "!":
            self.advance()
            return Not(self.nested(self.unary))
        if kind == "X":
            self.advance()
            return Next(self.nested(self.unary))
        if kind == "WX":
            self.advance()
            return WeakNext(self.nested(self.unary))
        if kind == "F":
            self.advance()
            return Eventually(self.nested(self.unary))
        if kind == "G":
            self.advance()
            return Always(self.nested(self.unary))
        if kind == "within":
            return self.prophecy()
        if kind == "true":
            self.advance()
            return TrueF()
        if kind == "false":
            self.advance()
            return FalseF()
        if kind == "(":
            self.advance()
            node = self.nested(self.formula)
            self.expect(")")
            return node
        if kind == "IDENT":
            return Atom(self.advance().text)
        self.fail(f"expected a formula, found {self.cur.text or 'end of input'!r}")

    def prophecy(self) -> Node:
        tok = self.advance()  # 'within'
        self.expect("[")
        lower = _parse_num(low := self.expect("NUM"))
        self.expect(",")
        upper = _parse_num(high := self.expect("NUM"))
        self.expect("]")
        negated = False
        if self.cur.kind == "!":
            self.advance()
            negated = True
        prop = self.expect("IDENT").text
        if not lower < upper:
            raise FormulaError(
                f"prophecy bounds must satisfy lower < upper, got [{low.text},{high.text}]",
                tok.line,
                tok.col,
            )
        return Prophecy(lower, upper, prop, negated)


def parse_formula(text: str) -> Property:
    """Parse `@Agent: formula` into a Property."""
    return _Parser(_tokenize(text)).property_()


def parse_bare_formula(text: str) -> Node:
    """Parse a formula without the leading agent annotation."""
    return _Parser(_tokenize(text)).bare_formula()


# --- printer -----------------------------------------------------------------

# Precedence levels; higher binds tighter.
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNTIL = 4
_PREC_UNARY = 5
_PREC_ATOM = 6


def _prec(n: Node) -> int:
    if isinstance(n, Implies):
        return _PREC_IMPLIES
    if isinstance(n, Or):
        return _PREC_OR
    if isinstance(n, And):
        return _PREC_AND
    if isinstance(n, Until):
        return _PREC_UNTIL
    if isinstance(n, (Not, Next, WeakNext, Eventually, Always)):
        return _PREC_UNARY
    return _PREC_ATOM


def _fmt(n: Node, extended: bool) -> str:
    def wrap(child: Node, minimum: int) -> str:
        text = _fmt(child, extended)
        return f"({text})" if _prec(child) < minimum else text

    if isinstance(n, Atom):
        return n.name
    if isinstance(n, TrueF):
        return "true"
    if isinstance(n, FalseF):
        return "false"
    if isinstance(n, Not):
        return "!" + wrap(n.child, _PREC_UNARY)
    if isinstance(n, Next):
        return "X " + wrap(n.child, _PREC_UNARY)
    if isinstance(n, WeakNext):
        return "WX " + wrap(n.child, _PREC_UNARY)
    if isinstance(n, Eventually):
        return "F " + wrap(n.child, _PREC_UNARY)
    if isinstance(n, Always):
        return "G " + wrap(n.child, _PREC_UNARY)
    if isinstance(n, Prophecy):
        neg = "!" if n.negated else ""
        return f"within[{time_str(n.lower)},{time_str(n.upper)}] {neg}{n.prop}"
    if isinstance(n, ActiveProphecy):
        if not extended:
            raise FormulaError("activated prophecy has no user syntax")
        neg = "!" if n.negated else ""
        return f"within'[{time_str(n.lower)},{time_str(n.upper)}] {neg}{n.prop}"
    if isinstance(n, Until):
        # right-associative
        return wrap(n.left, _PREC_UNTIL + 1) + " U " + wrap(n.right, _PREC_UNTIL)
    if isinstance(n, And):
        return wrap(n.left, _PREC_AND) + " & " + wrap(n.right, _PREC_AND + 1)
    if isinstance(n, Or):
        return wrap(n.left, _PREC_OR) + " | " + wrap(n.right, _PREC_OR + 1)
    if isinstance(n, Implies):
        return wrap(n.left, _PREC_IMPLIES + 1) + " -> " + wrap(n.right, _PREC_IMPLIES)
    raise FormulaError(f"cannot print node {n!r}")


def format_formula(n: Node, extended: bool = False) -> str:
    """Render a bare formula; inverse of parse_bare_formula (marks dropped)."""
    return _fmt(n, extended)


def print_formula(prop: Property, extended: bool = False) -> str:
    """Render a property; parse_formula(print_formula(p)) == p."""
    return f"@{prop.agent}: {_fmt(prop.body, extended)}"


def has_marks(n: Node) -> bool:
    if n.mark:
        return True
    if isinstance(n, (Not, Next, WeakNext, Eventually, Always)):
        return has_marks(n.child)
    if isinstance(n, (Or, And, Implies, Until)):
        return has_marks(n.left) or has_marks(n.right)
    return False
