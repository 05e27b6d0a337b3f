"""Reference semantics used for testing the stepwise monitor.

`sat` is the declarative two-valued satisfaction relation over finite
timestamped words; `finite_verdict` is the recursive four-valued semantics
the rewriting monitor must reproduce at every prefix.  Each relation has one
clause per node kind, looked up by the node's type in the relation's table.
Both are brute force by design and independent of the monitor pipeline.
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
from .verdict import Verdict


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

_SUGAR = (TrueF, FalseF, And, Implies, WeakNext, Eventually, Always)


class _Context:
    """What every clause reads besides its position and node: the word, its
    length, the prophecy reading and the relation's clause table."""

    __slots__ = ("w", "n", "now", "kinds")

    def __init__(self, w: Word, now: bool, kinds: dict):
        if not w:
            raise OracleError("words must be non-empty")
        self.w, self.n, self.now, self.kinds = w, len(w), now, kinds


def _sugar(x: _Context, i: int, node: Node):
    raise OracleError(f"{type(node).__name__} is syntactic sugar; pass allow_sugar=True")


def _unknown(x: _Context, i: int, node: Node):
    raise OracleError(f"cannot evaluate node {type(node).__name__}")


def _core(clauses: dict) -> dict:
    """A relation's table for allow_sugar=False: each sugar kind maps to
    `_sugar`, so a sugar node is rejected only where the walk reaches it."""
    return {**clauses, **dict.fromkeys(_SUGAR, _sugar)}


def _check_inactive(n: Prophecy):
    if n.active:
        raise OracleError("activated prophecies are monitor-internal")


def _prophecy_member(n, event: Event) -> bool:
    return (n.prop in event.props) != n.negated


def sat(w: Word, f: Node, *, allow_sugar: bool = False,
        prophecy_includes_now: bool = False) -> bool:
    """Two-valued satisfaction of f over the whole word w."""
    kinds = _SAT if allow_sugar else _SAT_CORE
    return _sat(_Context(w, prophecy_includes_now, kinds), 0, f)


def _sat(x: _Context, i: int, node: Node) -> bool:
    """Satisfaction of node at position i of x's word."""
    return x.kinds.get(type(node), _unknown)(x, i, node)


def _sat_until(x: _Context, i: int, f: Until) -> bool:
    for k in range(i, x.n):
        if _sat(x, k, f.right):
            return True
        if not _sat(x, k, f.left):
            return False
    return False


def _sat_prophecy(x: _Context, i: int, f: Prophecy) -> bool:
    _check_inactive(f)
    w = x.w
    base = w[i].time
    if x.now and _prophecy_member(f, w[i]):
        # position i is exempt from the no-earlier-occurrence clause,
        # so it can witness but never block later witnesses
        if f.lower <= 0 <= f.upper:
            return True
    for k in range(i + 1, x.n):
        if _prophecy_member(f, w[k]):
            elapsed = w[k].time - base
            return f.lower <= elapsed <= f.upper
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
_SAT_CORE = _core(_SAT)


def finite_verdict(w: Word, f: Node, *, allow_sugar: bool = False,
                   prophecy_includes_now: bool = False) -> Verdict:
    """Four-valued verdict of f over the finite prefix w.

    TRUE/FALSE mean every (or no) extension of w satisfies f; the current
    values record the pending status at the end of the observed prefix.
    """
    kinds = _VERDICT if allow_sugar else _VERDICT_CORE
    return _verdict(_Context(w, prophecy_includes_now, kinds), 0, f)


def _verdict(x: _Context, i: int, node: Node) -> Verdict:
    """Verdict of node at position i of x's word."""
    return x.kinds.get(type(node), _unknown)(x, i, node)


# The temporal clauses fill their verdict from the word's end back to
# position i, so a long word costs them no stack.

def _verdict_until(x: _Context, i: int, f: Until) -> Verdict:
    value = FALSE_C
    for k in range(x.n - 1, i - 1, -1):
        value = b4.join(_verdict(x, k, f.right), b4.meet(_verdict(x, k, f.left), value))
    return value


def _verdict_eventually(x: _Context, i: int, f: Eventually) -> Verdict:
    value = FALSE_C
    for k in range(x.n - 1, i - 1, -1):
        value = b4.join(_verdict(x, k, f.child), value)
    return value


def _verdict_always(x: _Context, i: int, f: Always) -> Verdict:
    value = TRUE_C
    for k in range(x.n - 1, i - 1, -1):
        value = b4.meet(_verdict(x, k, f.child), value)
    return value


def _verdict_prophecy(x: _Context, i: int, f: Prophecy) -> Verdict:
    _check_inactive(f)
    w = x.w
    base = w[i].time
    if x.now and _prophecy_member(f, w[i]):
        if f.lower <= 0 <= f.upper:
            return TRUE
    for k in range(i + 1, x.n):
        if _prophecy_member(f, w[k]):
            elapsed = w[k].time - base
            if f.lower <= elapsed <= f.upper:
                return TRUE
            # first occurrence outside the window decides negatively
            return FALSE
    if w[-1].time - base > f.upper:
        return FALSE  # deadline passed without a witness
    return FALSE_C


_VERDICT = {
    Atom: lambda x, i, f: TRUE if f.name in x.w[i].props else FALSE,
    TrueF: lambda x, i, f: TRUE,
    FalseF: lambda x, i, f: FALSE,
    Not: lambda x, i, f: b4.complement(_verdict(x, i, f.child)),
    Or: lambda x, i, f: b4.join(_verdict(x, i, f.left), _verdict(x, i, f.right)),
    And: lambda x, i, f: b4.meet(_verdict(x, i, f.left), _verdict(x, i, f.right)),
    Implies: lambda x, i, f: b4.join(b4.complement(_verdict(x, i, f.left)),
                                     _verdict(x, i, f.right)),
    Next: lambda x, i, f: _verdict(x, i + 1, f.child) if i + 1 < x.n else FALSE_C,
    WeakNext: lambda x, i, f: _verdict(x, i + 1, f.child) if i + 1 < x.n else TRUE_C,
    Until: _verdict_until,
    Eventually: _verdict_eventually,
    Always: _verdict_always,
    Prophecy: _verdict_prophecy,
}
_VERDICT_CORE = _core(_VERDICT)
