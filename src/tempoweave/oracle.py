"""Reference semantics used for testing the stepwise monitor.

`sat` is the declarative two-valued satisfaction relation over finite
timestamped words; `finite_verdict` is the four-valued semantics the
rewriting monitor must reproduce at every prefix.  Each relation has one
clause per node kind, looked up by the node's type in the relation's table,
and refuses a node outside its domain only where evaluation reaches it.
Both are independent of the monitor pipeline.

`finite_verdict` compiles a formula once, while it is given the same one,
into closures over its operands' compiled forms: one position, answered
pointwise at the top of the formula, and all positions from one on, which
U, F and G fill from the word's end back.  So it is linear in the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import verdict as b4
from .formula import (
    Always,
    And,
    Atom,
    Eventually,
    FalseF,
    Implies,
    Next,
    Node,
    Not,
    Or,
    Prophecy,
    Time,
    TrueF,
    Until,
    WeakNext,
    _bound_str,
    exact_time,
)
from .verdict import COMPLEMENT, Verdict


class OracleError(ValueError):
    """Formula or word outside the oracle's domain."""


@dataclass(frozen=True)
class Event:
    """One observation: the propositions that hold, at an absolute `Time`."""

    props: frozenset[str]
    time: Time

    def __post_init__(self):
        if self.time < 0:
            raise OracleError(f"negative timestamp {_bound_str(self.time)}")


Word = tuple[Event, ...]


def ev(props, time) -> Event:
    return Event(frozenset(props), exact_time(*Fraction(time).as_integer_ratio()))


def make_word(*events: Event) -> Word:
    """Validate and build a word: non-empty, timestamps non-decreasing."""
    if not events:
        raise OracleError("words must be non-empty")
    for a, b in zip(events, events[1:]):
        if b.time < a.time:
            raise OracleError(f"timestamps decrease: {_bound_str(a.time)} "
                              f"then {_bound_str(b.time)}")
    return tuple(events)


# The verdicts as globals: reading `Verdict.TRUE` goes through the enum's
# metaclass, about ten times slower than reading a global.
TRUE, TRUE_C, FALSE_C, FALSE = Verdict.TRUE, Verdict.TRUE_C, Verdict.FALSE_C, Verdict.FALSE

# the kinds each relation refuses without allow_sugar, where it reaches them
_SUGAR = (TrueF, FalseF, And, Implies, WeakNext, Eventually, Always)


class _Context:
    """What a `sat` clause reads besides its position and node."""

    __slots__ = ("w", "n", "now", "kinds")

    def __init__(self, w: Word, now: bool, kinds: dict):
        if not w:
            raise OracleError("words must be non-empty")
        self.w, self.n, self.now, self.kinds = w, len(w), now, kinds


_SUGAR_TEXT = "%s is syntactic sugar; pass allow_sugar=True"
_UNKNOWN_TEXT = "cannot evaluate node %s"


def _refusal(message: str):
    """The compiled pair, and `sat` clause, of a node outside the domain."""
    def refuse(*args):
        raise OracleError(message)
    return refuse, refuse


def sat(w: Word, f: Node, *, allow_sugar: bool = False,
        prophecy_includes_now: bool = False) -> bool:
    """Two-valued satisfaction of f over the whole word w."""
    kinds = _SAT if allow_sugar else _SAT_CORE
    return _sat(_Context(w, prophecy_includes_now, kinds), 0, f)


def _sat(x: _Context, i: int, node: Node) -> bool:
    """Satisfaction of node at position i of x's word."""
    clause = x.kinds.get(type(node)) or _refusal(_UNKNOWN_TEXT % type(node).__name__)[0]
    return clause(x, i, node)


def _sat_until(x: _Context, i: int, f: Until) -> bool:
    for k in range(i, x.n):
        if _sat(x, k, f.right):
            return True
        if not _sat(x, k, f.left):
            return False
    return False


_SAT = {
    Atom: lambda x, i, f: f.name in x.w[i].props,
    TrueF: lambda x, i, f: True,
    FalseF: lambda x, i, f: False,
    Not: lambda x, i, f: not _sat(x, i, f.child),
    Or: lambda x, i, f: _sat(x, i, f.left) or _sat(x, i, f.right),
    And: lambda x, i, f: _sat(x, i, f.left) and _sat(x, i, f.right),
    Implies: lambda x, i, f: not _sat(x, i, f.left) or _sat(x, i, f.right),
    Next: lambda x, i, f: i + 1 < x.n and _sat(x, i + 1, f.child),
    WeakNext: lambda x, i, f: i + 1 >= x.n or _sat(x, i + 1, f.child),
    Until: _sat_until,
    Eventually: lambda x, i, f: any(_sat(x, k, f.child) for k in range(i, x.n)),
    Always: lambda x, i, f: all(_sat(x, k, f.child) for k in range(i, x.n)),
    Prophecy: lambda x, i, f: _prophecy_at(f, x.now, x.w, i) is TRUE,
}
_SAT_CORE = {**_SAT, **{kind: _refusal(_SUGAR_TEXT % kind.__name__)[0] for kind in _SUGAR}}


def finite_verdict(w: Word, f: Node, *, allow_sugar: bool = False,
                   prophecy_includes_now: bool = False) -> Verdict:
    """Four-valued verdict of f over the finite prefix w.

    TRUE/FALSE mean every (or no) extension of w satisfies f; the current
    values record the pending status at the end of the observed prefix.
    """
    global _compiled
    last, sugar, now, at = _compiled
    if last is not f or sugar is not allow_sugar or now is not prophecy_includes_now:
        at = _compile(f, _VERDICT if allow_sugar else _VERDICT_CORE, prophecy_includes_now)[0]
        _compiled = (f, allow_sugar, prophecy_includes_now, at)
    if not w:
        raise OracleError("words must be non-empty")
    return at(w, len(w), 0)


# The last formula compiled, with its flags and `at`.  Holding the formula
# keeps its id from being reused while the entry stands.
_compiled: tuple = (None, None, None, None)


def _compile(f: Node, kinds: dict, now: bool):
    """f's compiled pair (at, vec): `at(w, n, i)` is its verdict at position
    i of the word w of length n, and `vec(w, n, lo)` its verdicts at
    positions lo..n-1, as a new list, for lo < n."""
    clause = kinds.get(type(f))
    return clause(f, kinds, now) if clause else _refusal(_UNKNOWN_TEXT % type(f).__name__)


def _constant(v: Verdict):
    return lambda w, n, i: v, lambda w, n, lo: [v] * (n - lo)


def _atom(f: Atom, kinds: dict, now: bool):
    name = f.name
    return (lambda w, n, i: TRUE if name in w[i].props else FALSE,
            lambda w, n, lo: [TRUE if name in e.props else FALSE for e in w[lo:]])


def _not(f: Not, kinds: dict, now: bool):
    c_at, c_vec = _compile(f.child, kinds, now)
    return (lambda w, n, i: COMPLEMENT[c_at(w, n, i)],
            lambda w, n, lo: [COMPLEMENT[v] for v in c_vec(w, n, lo)])


def _binary(op):
    """Or, And or Implies: op's table read with the operands' verdicts."""
    table = {(a, b): op(a, b) for a in Verdict for b in Verdict}

    def clause(f, kinds, now):
        (l_at, l_vec), (r_at, r_vec) = _compile(f.left, kinds, now), _compile(f.right, kinds, now)
        return (lambda w, n, i: table[l_at(w, n, i), r_at(w, n, i)],
                lambda w, n, lo: [table[ab] for ab in zip(l_vec(w, n, lo), r_vec(w, n, lo))])
    return clause


def _next(at_end: Verdict):
    """Next and weak next: the operand one position on, or at_end past the word."""
    def clause(f, kinds, now):
        c_at, c_vec = _compile(f.child, kinds, now)
        return (lambda w, n, i: c_at(w, n, i + 1) if i + 1 < n else at_end,
                lambda w, n, lo: (c_vec(w, n, lo + 1) if lo + 1 < n else []) + [at_end])
    return clause


def _until(left, right, start: Verdict):
    """`left U right`, with the verdict `start` past the word's end.  F c is
    `true U c` and G c is `c U false` from TRUE_C.  The verdicts fill from
    the word's end back, so a word costs one pass and no stack."""
    l_vec, r_vec = left[1], right[1]

    def vec(w, n, lo):
        out = r_vec(w, n, lo)
        holds = l_vec(w, n, lo)
        value = start
        for k in range(n - lo - 1, -1, -1):
            a, b = holds[k], out[k]
            if a < value:
                value = a  # meet(left, value) ...
            if b > value:
                value = b  # ... joined with right
            out[k] = value
        return out
    return (lambda w, n, i: vec(w, n, i)[0]), vec


def _prophecy_at(f: Prophecy, now: bool, w: Word, i: int) -> Verdict:
    """A prophecy's verdict at position i of w; `sat` reads TRUE as satisfied."""
    for e in w[i + 1:]:
        if (f.prop in e.props) != f.negated:
            return _prophecy_verdict(f, now, w[i], e.time, None)
    return _prophecy_verdict(f, now, w[i], None, w[-1].time)


def _prophecy_verdict(f: Prophecy, now: bool, e: Event, following, last) -> Verdict:
    """The verdict at e, given the time of the first occurrence after it
    (None if there is none) and the time of the word's last event."""
    if f.active:
        raise OracleError("activated prophecies are monitor-internal")
    if now and f.lower <= 0 <= f.upper and (f.prop in e.props) != f.negated:
        return TRUE  # e may witness, but never blocks a later witness
    if following is not None:  # it decides, inside the window or not
        return TRUE if f.lower <= following - e.time <= f.upper else FALSE
    return FALSE if last - e.time > f.upper else FALSE_C  # deadline passed?


def _prophecy(f: Prophecy, kinds: dict, now: bool):
    prop, negated = f.prop, f.negated

    def vec(w, n, lo):  # carries the first occurrence after each event leftwards
        out, following, last = [], None, w[-1].time
        for e in reversed(w[lo:]):
            out.append(_prophecy_verdict(f, now, e, following, last))
            if (prop in e.props) != negated:
                following = e.time
        out.reverse()
        return out
    return (lambda w, n, i: _prophecy_at(f, now, w, i)), vec


_VERDICT = {
    Atom: _atom,
    TrueF: lambda f, kinds, now: _constant(TRUE),
    FalseF: lambda f, kinds, now: _constant(FALSE),
    Not: _not,
    Or: _binary(b4.join),
    And: _binary(b4.meet),
    Implies: _binary(lambda a, b: b4.join(COMPLEMENT[a], b)),
    Next: _next(FALSE_C),
    WeakNext: _next(TRUE_C),
    Until: lambda f, kinds, now: _until(_compile(f.left, kinds, now),
                                        _compile(f.right, kinds, now), FALSE_C),
    Eventually: lambda f, kinds, now: _until(_constant(TRUE), _compile(f.child, kinds, now),
                                             FALSE_C),
    Always: lambda f, kinds, now: _until(_compile(f.child, kinds, now), _constant(FALSE),
                                         TRUE_C),
    Prophecy: _prophecy,
}
_VERDICT_CORE = {**_VERDICT, **dict.fromkeys(
    _SUGAR, lambda f, kinds, now: _refusal(_SUGAR_TEXT % type(f).__name__))}
