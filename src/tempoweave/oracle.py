"""Reference semantics used for testing the stepwise monitor.

`sat` is the two-valued satisfaction relation over finite timestamped
words; `finite_verdict` is the four-valued semantics the rewriting monitor
must reproduce at every prefix.  Both are independent of the monitor and
evaluated one way: `sats` and `finite_verdicts` answer a `Suffixes` table of
words, and `sat` and `finite_verdict` the table of one word.  Each relation
has its own clause per node kind, which compiles the node into its values at
every table position (U, F and G fill them from the end back), and one
domain rule: a node kind with no clause (sugar without `allow_sugar`) or an
activated prophecy is refused as the formula compiles, whatever the words.
"""

from __future__ import annotations

import operator
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

# the kinds each relation refuses without allow_sugar
_SUGAR = (TrueF, FalseF, And, Implies, WeakNext, Eventually, Always)


class Suffixes:
    """Words as a table of their distinct suffixes.  Suffix k is the event
    `props[k]` at `times[k]`, then suffix `nxt[k]` < k (-1: none), and ends
    at `last[k]`.  Word i is suffix `starts[i]`."""

    def __init__(self, words):
        index: dict = {}  # (props, time, successor's position): position
        self.starts, self.last = [], []
        for w in words:
            if not w:
                raise OracleError("words must be non-empty")
            k = -1
            for e in reversed(w):
                k = index.setdefault((e.props, e.time, k), len(index))
            self.starts.append(k)
            self.last += [w[-1].time] * (len(index) - len(self.last))  # w's new suffixes
        self.props, self.times, self.nxt = zip(*index) if index else ((), (), ())


def sat(w: Word, f: Node, *, allow_sugar: bool = False,
        prophecy_includes_now: bool = False) -> bool:
    """Two-valued satisfaction of f over the whole word w."""
    return sats(Suffixes((w,)), f, allow_sugar=allow_sugar,
                prophecy_includes_now=prophecy_includes_now)[0]


def sats(table: Suffixes, f: Node, *, allow_sugar: bool = False,
         prophecy_includes_now: bool = False) -> list[bool]:
    """`sat` of f over each word of the table, in order."""
    out = _compile(f, _SAT if allow_sugar else _SAT_CORE, prophecy_includes_now)(table)
    return [out[k] for k in table.starts]


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
    out = _compile(f, _VERDICT if allow_sugar else _VERDICT_CORE, prophecy_includes_now)(table)
    return [out[k] for k in table.starts]


def _compile(f: Node, kinds: dict, now: bool):
    """f's vector form under the relation's clauses `kinds`: `vec(t)` is a new
    list of its values at every position of the Suffixes t.  Refuses a node
    outside the domain before any word is read."""
    kind = type(f)
    clause = kinds.get(kind)
    if clause is None:
        raise OracleError(f"{kind.__name__} is syntactic sugar; pass allow_sugar=True"
                          if kind in _SUGAR else f"cannot evaluate node {kind.__name__}")
    if kind is Prophecy and f.active:
        raise OracleError("activated prophecies are monitor-internal")
    return clause(f, kinds, now)


def _constant(v):
    return lambda t: [v] * len(t.nxt)


# the two-valued relation's clauses: each position's truth value
def _sat_not(f: Not, *a):
    c_vec = _compile(f.child, *a)
    return lambda t: [not v for v in c_vec(t)]


def _sat_binary(op):
    """Or, And or Implies: op of the operands' truth values."""
    def clause(f, *a):
        l_vec, r_vec = _compile(f.left, *a), _compile(f.right, *a)
        return lambda t: list(map(op, l_vec(t), r_vec(t)))
    return clause


def _sat_next(past_end: bool):
    """Next and weak next: the operand at the successor, past_end at the end."""
    def clause(f, *a):
        c_vec = _compile(f.child, *a)
        return lambda t: [c[j] if j >= 0 else past_end for c in [c_vec(t)] for j in t.nxt]
    return clause


def _sat_until(l_vec, r_vec, past_end: bool):
    """`left U right`: right, or left and the until at the successor (past_end
    at the end).  F c is `true U c`; G c is `c U false`, true at the end."""
    def vec(t):
        holds, out = l_vec(t), r_vec(t)
        for k, j in enumerate(t.nxt):
            if holds[k] and not out[k]:
                out[k] = out[j] if j >= 0 else past_end
        return out
    return vec


def _sat_prophecy(f: Prophecy, kinds: dict, now: bool):
    """The first later occurrence decides, unless the current one witnesses."""
    prop, negated, lower, upper = f.prop, f.negated, f.lower, f.upper
    now = now and lower <= 0 <= upper

    def vec(t):
        times, props, out, seen = t.times, t.props, [], [None] * (len(t.nxt) + 1)
        for k, j in enumerate(t.nxt):  # seen[k]: the first occurrence from k on; -1: none
            later, time = seen[j], times[k]
            hit = (prop in props[k]) != negated
            seen[k] = time if hit else later
            out.append(now and hit or later is not None and lower <= later - time <= upper)
        return out
    return vec


_SAT = {
    Atom: lambda f, *a: lambda t: [f.name in props for props in t.props],
    TrueF: lambda f, *a: _constant(True),
    FalseF: lambda f, *a: _constant(False),
    Not: _sat_not,
    Or: _sat_binary(operator.or_),
    And: _sat_binary(operator.and_),
    Implies: _sat_binary(operator.le),  # false <= either, true <= true only
    Next: _sat_next(False),
    WeakNext: _sat_next(True),
    Until: lambda f, *a: _sat_until(_compile(f.left, *a), _compile(f.right, *a), False),
    Eventually: lambda f, *a: _sat_until(_constant(True), _compile(f.child, *a), False),
    Always: lambda f, *a: _sat_until(_compile(f.child, *a), _constant(False), True),
    Prophecy: _sat_prophecy,
}
_SAT_CORE = {kind: clause for kind, clause in _SAT.items() if kind not in _SUGAR}


# the four-valued relation's clauses: each position's verdict
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
    def clause(f, *a):
        c_vec = _compile(f.child, *a)
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


def _prophecy(f: Prophecy, kinds: dict, now: bool):
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
