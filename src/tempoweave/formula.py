"""Timed-LTL formulas: abstract syntax trees, text syntax and printing.

Node kinds cover the core grammar (atoms, not, or, next, until, prophecy)
and the sugar operators handled natively by the monitor (and, implies, weak
next, eventually, always).  A prophecy the monitor has activated is marked
`active`; it never occurs in parsed user input.  `PREFIX` and `BINARY` name
each operator once, for the tokenizer, the parser, the printer and the
tree walkers.

The lexical rules of every input language are here too: `NAME`, `NUMBER`
and `scan`, the tokenizer of formulas and scenarios, and `Cursor`, the walk
over its tokens that the formula and scenario parsers share.

Every node carries a `mark` field that no code reads (see `Node`); it is
excluded from structural equality, hashing and printing.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import NamedTuple, NoReturn


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


@dataclass(frozen=True, slots=True)
class Node:
    """Base formula node; `mark` is ignored by eq/hash and printing."""

    # No code reads `mark`.  Deleting it is the next step: a node one slot
    # smaller speeds a monitor step, which the bench reads as a memory
    # regression while its harness keeps bytes per attempted op.
    mark: bool = field(default=False, compare=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class Atom(Node):
    name: str


@dataclass(frozen=True, slots=True)
class TrueF(Node):
    pass


@dataclass(frozen=True, slots=True)
class FalseF(Node):
    pass


@dataclass(frozen=True, slots=True)
class Not(Node):
    child: Node


@dataclass(frozen=True, slots=True)
class Or(Node):
    left: Node
    right: Node


@dataclass(frozen=True, slots=True)
class And(Node):
    left: Node
    right: Node


@dataclass(frozen=True, slots=True)
class Implies(Node):
    left: Node
    right: Node


@dataclass(frozen=True, slots=True)
class Next(Node):
    child: Node


@dataclass(frozen=True, slots=True)
class WeakNext(Node):
    child: Node


@dataclass(frozen=True, slots=True)
class Until(Node):
    left: Node
    right: Node


@dataclass(frozen=True, slots=True)
class Eventually(Node):
    child: Node


@dataclass(frozen=True, slots=True)
class Always(Node):
    child: Node


@dataclass(frozen=True, slots=True)
class Prophecy(Node):
    """`within[lower,upper] p`: next occurrence of p falls in the window.

    An `active` prophecy is one the monitor has activated: its window
    shifts with elapsing time, so its bounds may become negative and no
    bound check applies.
    """

    lower: Time
    upper: Time
    prop: str
    negated: bool = False
    active: bool = False

    def __post_init__(self):
        if self.active:
            return
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
        children = (getattr(n, f.name) for f in fields(n))
        todo.extend((c, level + 1) for c in children if isinstance(c, Node))


def propositions(n: Node) -> set[str]:
    """The proposition names that a formula reads."""
    names = set()
    for m, _ in _walk(n):
        if isinstance(m, Atom):
            names.add(m.name)
        elif isinstance(m, Prophecy):
            names.add(m.prop)
    return names


BOOLEAN_KINDS = (Not, Or, And, Implies)


# --- operators ---------------------------------------------------------------

# Prefix operators, token -> node kind; they bind tighter than any binary one.
PREFIX = {"!": Not, "X": Next, "WX": WeakNext, "F": Eventually, "G": Always}

# Binary operators loosest first: (token, node kind, groups right).
BINARY = (("->", Implies, True), ("|", Or, False), ("&", And, False), ("U", Until, True))

UNARY_KINDS = tuple(PREFIX.values())
BINARY_KINDS = tuple(kind for _, kind, _ in BINARY)

_PREFIX_TOKEN = {kind: token for token, kind in PREFIX.items()}
_BINARY_LEVEL = {kind: level for level, (_, kind, _) in enumerate(BINARY)}
_TOKEN_LEVEL = {token: level for level, (token, _, _) in enumerate(BINARY)}


# --- lexical rules -----------------------------------------------------------

# A name is letters, digits and `_` (Unicode's, as Python's `\w` reads them)
# not starting with a decimal digit; a number is decimal digits, then
# optionally `.` and decimal digits.  Blanks are Unicode's; a newline starts
# the next line.
NAME = r"[^\W\d]\w*"
NUMBER = r"\d+(?:\.\d+)?"
NAMES = rf"(?:{NAME}(?:\s*,\s*{NAME})*)?"  # names separated by commas, or none


class Token(NamedTuple):
    kind: str  # IDENT, NUM, keyword text, symbol text, or EOF
    text: str
    line: int
    col: int


@functools.cache
def _token_pattern(symbols: tuple[str, ...]) -> re.Pattern:
    # longest first, so that no symbol is read as a prefix of a longer one
    syms = "|".join(map(re.escape, sorted(symbols, key=len, reverse=True)))
    return re.compile(rf"(?P<NL>\n)|(?P<NUM>{NUMBER})|(?P<IDENT>{NAME})|(?P<SYM>{syms})|(?P<BAD>\S)")


def scan(text: str, symbols: tuple[str, ...], keywords=frozenset(), line: int = 1) -> list[Token]:
    """The tokens of `text`, from line `line` on, then EOF: names (a keyword
    of `keywords` is its own kind), numbers and `symbols`.  Blanks separate
    tokens; FormulaError at any other character."""
    tokens = []
    start = 0  # where the line begins
    for m in _token_pattern(symbols).finditer(text):  # which skips blanks
        kind, word, pos = m.lastgroup, m.group(), m.start()
        if kind == "NL":
            line, start = line + 1, pos + 1
        elif kind == "BAD":
            raise FormulaError(f"unexpected character {word!r}", line, pos - start + 1)
        else:
            tokens.append(Token(word if kind == "SYM" or word in keywords else kind, word,
                                line, pos - start + 1))
    tokens.append(Token("EOF", "", line, len(text) - start + 1))
    return tokens


_OPERATORS = [*PREFIX, *_TOKEN_LEVEL]
_KEYWORDS = {"within", "true", "false", *filter(str.isalpha, _OPERATORS)}
_SYMBOLS = (*"()[],:@", *(op for op in _OPERATORS if not op.isalpha()))


def parse_decimal(text: str) -> Time:
    """The exact value of a decimal numeral such as `3` or `2.5`.

    Raises ValueError where `int()` rejects the digits, as it does past its
    digit limit (4,300 by default); callers report it at the numeral.
    """
    whole, _, frac = text.partition(".")
    return exact_time(int(whole + frac), 10 ** len(frac))


class Cursor:
    """The parsers' walk over the tokens `scan` gives, up to their EOF.
    Every fault it finds is a FormulaError at a token."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        """Whether the current token's text is `text`; if so it is read."""
        if self.cur.text == text:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, what: str | None = None) -> Token:
        """The current token, read, which must be of `kind` (named `what`)."""
        if self.cur.kind != kind:
            self.fail_expected(what or repr(kind))
        return self.advance()

    def number(self, what: str | None = None) -> Time:
        """The value of the current token, read, which must be a NUM."""
        tok = self.expect("NUM", what)
        try:
            return parse_decimal(tok.text)
        except ValueError as exc:
            self.fail(f"invalid number: {exc}", tok)

    def fail_expected(self, what: str) -> NoReturn:
        self.fail(f"expected {what}, found {self.cur.text or 'end of input'!r}")

    def fail(self, message: str, tok: Token | None = None) -> NoReturn:
        """FormulaError at `tok`, or else at the current token."""
        tok = tok or self.cur
        raise FormulaError(message, tok.line, tok.col) from None


# --- parser ------------------------------------------------------------------

# Parentheses, prefix operators and right operands of operators that group
# right each nest the parser one level deeper, and each operator nests the
# parsed tree one level deeper.  Both depths are bounded, so neither the
# parser nor a later recursive walk over the tree runs out of stack.
MAX_NESTING = 100


class _Parser(Cursor):
    def __init__(self, text: str):
        super().__init__(scan(text, _SYMBOLS, _KEYWORDS))
        self.depth = 0

    def nested(self, parse, *args) -> Node:
        """Parse the operand of the token just read, one level deeper."""
        if self.depth == MAX_NESTING:
            opener = self.tokens[self.pos - 1]
            self.fail(f"formula nested deeper than {MAX_NESTING} levels", opener)
        self.depth += 1
        node = parse(*args)
        self.depth -= 1
        return node

    def property_(self) -> Property:
        self.expect("@")
        agent = self.expect("IDENT").text
        self.expect(":")
        return Property(agent, self.bare_formula())

    def bare_formula(self) -> Node:
        start = self.cur
        body = self.binary()
        self.expect("EOF")
        if max(level for _, level in _walk(body)) > MAX_NESTING:
            self.fail(f"formula nested deeper than {MAX_NESTING} levels", start)
        return body

    def binary(self, loosest: int = 0) -> Node:
        """A formula whose binary operators are those of `BINARY[loosest:]`
        outside parentheses."""
        node = self.unary()
        while (level := _TOKEN_LEVEL.get(self.cur.kind, -1)) >= loosest:
            _, kind, groups_right = BINARY[level]
            self.advance()
            if groups_right:
                node = kind(node, self.nested(self.binary, level))
            else:
                node = kind(node, self.binary(level + 1))
        return node

    def unary(self) -> Node:
        kind = self.cur.kind
        if kind in PREFIX:
            self.advance()
            return PREFIX[kind](self.nested(self.unary))
        if kind == "within":
            return self.prophecy()
        if self.accept("true"):
            return TrueF()
        if self.accept("false"):
            return FalseF()
        if self.accept("("):
            node = self.nested(self.binary)
            self.expect(")")
            return node
        if kind == "IDENT":
            return Atom(self.advance().text)
        self.fail_expected("a formula")

    def prophecy(self) -> Node:
        tok = self.advance()  # 'within'
        self.expect("[")
        low, lower = self.cur.text, self.number()
        self.expect(",")
        high, upper = self.cur.text, self.number()
        self.expect("]")
        negated = self.accept("!")
        prop = self.expect("IDENT").text
        if not lower < upper:
            self.fail(f"prophecy bounds must satisfy lower < upper, got [{low},{high}]", tok)
        return Prophecy(lower, upper, prop, negated)


def parse_formula(text: str) -> Property:
    """Parse `@Agent: formula` into a Property."""
    return _Parser(text).property_()


def parse_bare_formula(text: str) -> Node:
    """Parse a formula without the leading agent annotation."""
    return _Parser(text).bare_formula()


# --- printer -----------------------------------------------------------------

def _fmt(n: Node, extended: bool, loosest: int = 0) -> str:
    """n's text, in parentheses if its operator binds looser than level
    `loosest` of `BINARY`; prefix operators are at level `len(BINARY)`."""
    if isinstance(n, Atom):
        return n.name
    if isinstance(n, TrueF):
        return "true"
    if isinstance(n, FalseF):
        return "false"
    if isinstance(n, Prophecy):
        if n.active and not extended:
            raise FormulaError("activated prophecy has no user syntax")
        within = "within'" if n.active else "within"
        neg = "!" if n.negated else ""
        return f"{within}[{time_str(n.lower)},{time_str(n.upper)}] {neg}{n.prop}"
    if isinstance(n, BINARY_KINDS):
        level = _BINARY_LEVEL[type(n)]
        token, _, groups_right = BINARY[level]
        left = _fmt(n.left, extended, level + groups_right)
        text = f"{left} {token} {_fmt(n.right, extended, level + (not groups_right))}"
    elif isinstance(n, UNARY_KINDS):
        level = len(BINARY)
        token = _PREFIX_TOKEN[type(n)]
        space = " " if token.isalpha() else ""
        text = token + space + _fmt(n.child, extended, level)
    else:
        raise FormulaError(f"cannot print node {n!r}")
    return f"({text})" if level < loosest else text


def format_formula(n: Node, extended: bool = False) -> str:
    """Render a bare formula; inverse of parse_bare_formula."""
    return _fmt(n, extended)


def print_formula(prop: Property, extended: bool = False) -> str:
    """Render a property; parse_formula(print_formula(p)) == p."""
    return f"@{prop.agent}: {_fmt(prop.body, extended)}"

