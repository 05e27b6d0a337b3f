"""Reference semantics used for testing the stepwise monitor.

`sat` is the declarative two-valued satisfaction relation over finite
timestamped words; `finite_verdict` is the four-valued semantics the
rewriting monitor must reproduce at every prefix.  Each relation has one
clause per node kind, looked up by the node's type in the relation's table,
and refuses a node outside its domain only where evaluation reaches it.
Both are independent of the monitor pipeline.

`finite_verdicts` answers a set of words at once over a `Suffixes` table,
each distinct suffix once with its successor numbered first; `finite_verdict`
is the table of one word.  Each node kind has one vector form, its verdicts
at every position, which U, F and G fill from the end back.  A node under d
nested X and WX is reached only on a table with a word of more than d events.
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
_ACTIVE_TEXT = "activated prophecies are monitor-internal"


def _refused(node: Node) -> str:
    """Why a relation with no clause for node's kind refuses it."""
    return (_SUGAR_TEXT if type(node) in _SUGAR else _UNKNOWN_TEXT) % type(node).__name__


def sat(w: Word, f: Node, *, allow_sugar: bool = False,
        prophecy_includes_now: bool = False) -> bool:
    """Two-valued satisfaction of f over the whole word w."""
    kinds = _SAT if allow_sugar else _SAT_CORE
    return _sat(_Context(w, prophecy_includes_now, kinds), 0, f)


def _sat(x: _Context, i: int, node: Node) -> bool:
    """Satisfaction of node at position i of x's word."""
    clause = x.kinds.get(type(node))
    if clause is None:
        raise OracleError(_refused(node))
    return clause(x, i, node)


def _sat_until(x: _Context, i: int, f: Until) -> bool:
    for k in range(i, x.n):
        if _sat(x, k, f.right):
            return True
        if not _sat(x, k, f.left):
            return False
    return False


def _sat_prophecy(x: _Context, i: int, f: Prophecy) -> bool:
    """The first later occurrence decides, unless the current one witnesses."""
    if f.active:
        raise OracleError(_ACTIVE_TEXT)
    e = x.w[i]
    if x.now and f.lower <= 0 <= f.upper and (f.prop in e.props) != f.negated:
        return True
    for later in x.w[i + 1:]:
        if (f.prop in later.props) != f.negated:
            return f.lower <= later.time - e.time <= f.upper
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
    Prophecy: _sat_prophecy,
}
_SAT_CORE = {kind: clause for kind, clause in _SAT.items() if kind not in _SUGAR}


class Suffixes:
    """Words as a table of their distinct suffixes.  Suffix k is the event
    `props[k]` at `times[k]`, then suffix `nxt[k]` < k (-1: none), and ends
    at `last[k]`.  Word i is suffix `starts[i]`; `longest` counts the events
    of the longest word."""

    def __init__(self, words):
        index: dict = {}  # (props, time, successor's position): position
        self.starts, self.last, self.longest = [], [], 0
        for w in words:
            if not w:
                raise OracleError("words must be non-empty")
            k = -1
            for e in reversed(w):
                k = index.setdefault((e.props, e.time, k), len(index))
            self.starts.append(k)
            self.last += [w[-1].time] * (len(index) - len(self.last))  # w's new suffixes
            self.longest = max(self.longest, len(w))
        self.props, self.times, self.nxt = zip(*index) if index else ((), (), ())


def finite_verdict(w: Word, f: Node, *, allow_sugar: bool = False,
                   prophecy_includes_now: bool = False) -> Verdict:
    """Four-valued verdict of f over the finite prefix w: TRUE/FALSE mean
    every (or no) extension of w satisfies f; the current values record the
    pending status at the end of the observed prefix."""
    return finite_verdicts(Suffixes((w,)), f, allow_sugar=allow_sugar,
                           prophecy_includes_now=prophecy_includes_now)[0]


def finite_verdicts(table: Suffixes, f: Node, *, allow_sugar: bool = False,
                    prophecy_includes_now: bool = False) -> list[Verdict]:
    """`finite_verdict` of f over each word of the table, in order."""
    out = _compile(f, _VERDICT if allow_sugar else _VERDICT_CORE, prophecy_includes_now, 0)(table)
    return [out[k] for k in table.starts]


def _compile(f: Node, kinds: dict, now: bool, depth: int):
    """f's vector form under `depth` nested X and WX: `vec(t)` is a new list
    of its verdicts at every position of the Suffixes t."""
    clause = kinds.get(type(f))
    return clause(f, kinds, now, depth) if clause else _refusal(_refused(f), depth)


def _refusal(message: str, depth: int):
    """A node outside the domain under `depth` nested X and WX: its vector
    form raises on a table with a word of more than `depth` events."""
    def vec(t):
        if t.longest > depth:
            raise OracleError(message)
        return [FALSE_C] * len(t.nxt)  # no word's verdict reads these
    return vec


def _constant(v: Verdict):
    return lambda t: [v] * len(t.nxt)


def _atom(f: Atom, *_):
    name = f.name
    return lambda t: [TRUE if name in props else FALSE for props in t.props]


def _not(f: Not, *a):
    c_vec = _compile(f.child, *a)
    return lambda t: list(map(COMPLEMENT.__getitem__, c_vec(t)))


def _binary(op):
    """Or, And or Implies: op's table read with the operands' verdicts."""
    table = {(a, b): op(a, b) for a in Verdict for b in Verdict}

    def clause(f, *a):
        l_vec, r_vec = _compile(f.left, *a), _compile(f.right, *a)
        return lambda t: list(map(table.__getitem__, zip(l_vec(t), r_vec(t))))
    return clause


def _next(at_end: Verdict):
    """Next and weak next: the operand at the successor, or at_end past the end."""
    def clause(f, kinds, now, depth):
        c_vec = _compile(f.child, kinds, now, depth + 1)
        return lambda t: list(map((c_vec(t) + [at_end]).__getitem__, t.nxt))  # -1: at_end
    return clause


def _until(l_vec, r_vec, start: Verdict):
    """`left U right`, with the verdict `start` past the end.  F c is
    `true U c` and G c is `c U false` from TRUE_C, each one pass."""
    def vec(t):
        out, holds = r_vec(t), l_vec(t)
        out.append(start)  # read at position -1
        for k, j in enumerate(t.nxt):
            value, a, b = out[j], holds[k], out[k]
            if a < value:
                value = a  # meet(left, value) ...
            if b > value:
                value = b  # ... joined with right
            out[k] = value
        out.pop()
        return out
    return vec


def _prophecy(f: Prophecy, kinds: dict, now: bool, depth: int):
    if f.active:
        return _refusal(_ACTIVE_TEXT, depth)
    prop, negated, lower, upper = f.prop, f.negated, f.lower, f.upper
    now = now and lower <= 0 <= upper  # the current event may witness

    def vec(t):  # carries the next occurrence along the successor links
        times, props, last, out = t.times, t.props, t.last, []
        first = [None] * (len(times) + 1)  # the first occurrence from k on; -1: none
        for k, j in enumerate(t.nxt):
            time, then = times[k], first[j]
            hit = (prop in props[k]) != negated
            first[k] = time if hit else then
            if now and hit:  # k may witness, but never blocks a later witness
                out.append(TRUE)
            elif then is not None:  # it decides, inside the window or not
                out.append(TRUE if lower <= then - time <= upper else FALSE)
            else:  # has the deadline passed?
                out.append(FALSE if last[k] - time > upper else FALSE_C)
        return out
    return vec


_VERDICT = {
    Atom: _atom,
    TrueF: lambda f, *a: _constant(TRUE),
    FalseF: lambda f, *a: _constant(FALSE),
    Not: _not,
    Or: _binary(b4.join),
    And: _binary(b4.meet),
    Implies: _binary(lambda a, b: b4.join(COMPLEMENT[a], b)),
    Next: _next(FALSE_C),
    WeakNext: _next(TRUE_C),
    Until: lambda f, *a: _until(_compile(f.left, *a), _compile(f.right, *a), FALSE_C),
    Eventually: lambda f, *a: _until(_constant(TRUE), _compile(f.child, *a), FALSE_C),
    Always: lambda f, *a: _until(_compile(f.child, *a), _constant(FALSE), TRUE_C),
    Prophecy: _prophecy,
}
_VERDICT_CORE = {kind: clause for kind, clause in _VERDICT.items() if kind not in _SUGAR}
