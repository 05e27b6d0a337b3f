"""Reference semantics used for testing the stepwise monitor.

`sat` is the declarative two-valued satisfaction relation over finite
timestamped words; `finite_verdict` is the recursive four-valued semantics
the rewriting monitor must reproduce at every prefix.  Both are brute
force by design and independent of the monitor pipeline.
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


_SUGAR = (TrueF, FalseF, And, Implies, WeakNext, Eventually, Always)


def _reject(n: Node, allow_sugar: bool):
    if not allow_sugar and isinstance(n, _SUGAR):
        raise OracleError(
            f"{type(n).__name__} is syntactic sugar; pass allow_sugar=True"
        )


def _check_inactive(n: Prophecy):
    if n.active:
        raise OracleError("activated prophecies are monitor-internal")


def _prophecy_member(n, event: Event) -> bool:
    return (n.prop in event.props) != n.negated


def sat(w: Word, f: Node, *, allow_sugar: bool = False,
        prophecy_includes_now: bool = False) -> bool:
    """Two-valued satisfaction of f over the whole word w."""
    if not w:
        raise OracleError("words must be non-empty")
    return _sat(w, len(w), allow_sugar, prophecy_includes_now, 0, f)


def _sat(w: Word, n: int, sugar: bool, now: bool, i: int, node: Node) -> bool:
    """Satisfaction of node at position i of w, which has n events."""
    _reject(node, sugar)
    if isinstance(node, Atom):
        return node.name in w[i].props
    if isinstance(node, TrueF):
        return True
    if isinstance(node, FalseF):
        return False
    if isinstance(node, Not):
        return not _sat(w, n, sugar, now, i, node.child)
    if isinstance(node, Or):
        return _sat(w, n, sugar, now, i, node.left) or _sat(w, n, sugar, now, i, node.right)
    if isinstance(node, And):
        return _sat(w, n, sugar, now, i, node.left) and _sat(w, n, sugar, now, i, node.right)
    if isinstance(node, Implies):
        return (not _sat(w, n, sugar, now, i, node.left)
                or _sat(w, n, sugar, now, i, node.right))
    if isinstance(node, Next):
        return i + 1 < n and _sat(w, n, sugar, now, i + 1, node.child)
    if isinstance(node, WeakNext):
        return i + 1 >= n or _sat(w, n, sugar, now, i + 1, node.child)
    if isinstance(node, Until):
        for k in range(i, n):
            if _sat(w, n, sugar, now, k, node.right):
                return True
            if not _sat(w, n, sugar, now, k, node.left):
                return False
        return False
    if isinstance(node, Eventually):
        return any(_sat(w, n, sugar, now, k, node.child) for k in range(i, n))
    if isinstance(node, Always):
        return all(_sat(w, n, sugar, now, k, node.child) for k in range(i, n))
    if isinstance(node, Prophecy):
        _check_inactive(node)
        base = w[i].time
        if now and _prophecy_member(node, w[i]):
            # position i is exempt from the no-earlier-occurrence clause,
            # so it can witness but never block later witnesses
            if node.lower <= 0 <= node.upper:
                return True
        for k in range(i + 1, n):
            if _prophecy_member(node, w[k]):
                elapsed = w[k].time - base
                return node.lower <= elapsed <= node.upper
        return False
    raise OracleError(f"cannot evaluate node {type(node).__name__}")


def finite_verdict(w: Word, f: Node, *, allow_sugar: bool = False,
                   prophecy_includes_now: bool = False) -> Verdict:
    """Four-valued verdict of f over the finite prefix w.

    TRUE/FALSE mean every (or no) extension of w satisfies f; the current
    values record the pending status at the end of the observed prefix.
    """
    if not w:
        raise OracleError("words must be non-empty")
    return _verdict(w, len(w), allow_sugar, prophecy_includes_now, 0, f)


def _verdict(w: Word, n: int, sugar: bool, now: bool, i: int, node: Node) -> Verdict:
    """Verdict of node at position i of w, which has n events."""
    _reject(node, sugar)
    if isinstance(node, Atom):
        return Verdict.TRUE if node.name in w[i].props else Verdict.FALSE
    if isinstance(node, TrueF):
        return Verdict.TRUE
    if isinstance(node, FalseF):
        return Verdict.FALSE
    if isinstance(node, Not):
        return b4.complement(_verdict(w, n, sugar, now, i, node.child))
    if isinstance(node, Or):
        return b4.join(_verdict(w, n, sugar, now, i, node.left),
                       _verdict(w, n, sugar, now, i, node.right))
    if isinstance(node, And):
        return b4.meet(_verdict(w, n, sugar, now, i, node.left),
                       _verdict(w, n, sugar, now, i, node.right))
    if isinstance(node, Implies):
        return b4.join(b4.complement(_verdict(w, n, sugar, now, i, node.left)),
                       _verdict(w, n, sugar, now, i, node.right))
    if isinstance(node, Next):
        return _verdict(w, n, sugar, now, i + 1, node.child) if i + 1 < n else Verdict.FALSE_C
    if isinstance(node, WeakNext):
        return _verdict(w, n, sugar, now, i + 1, node.child) if i + 1 < n else Verdict.TRUE_C
    if isinstance(node, Until):
        tail = _verdict(w, n, sugar, now, i + 1, node) if i + 1 < n else Verdict.FALSE_C
        return b4.join(_verdict(w, n, sugar, now, i, node.right),
                       b4.meet(_verdict(w, n, sugar, now, i, node.left), tail))
    if isinstance(node, Eventually):
        tail = _verdict(w, n, sugar, now, i + 1, node) if i + 1 < n else Verdict.FALSE_C
        return b4.join(_verdict(w, n, sugar, now, i, node.child), tail)
    if isinstance(node, Always):
        tail = _verdict(w, n, sugar, now, i + 1, node) if i + 1 < n else Verdict.TRUE_C
        return b4.meet(_verdict(w, n, sugar, now, i, node.child), tail)
    if isinstance(node, Prophecy):
        _check_inactive(node)
        base = w[i].time
        if now and _prophecy_member(node, w[i]):
            if node.lower <= 0 <= node.upper:
                return Verdict.TRUE
        for k in range(i + 1, n):
            if _prophecy_member(node, w[k]):
                elapsed = w[k].time - base
                if node.lower <= elapsed <= node.upper:
                    return Verdict.TRUE
                # first occurrence outside the window decides negatively
                return Verdict.FALSE
        if w[n - 1].time - base > node.upper:
            return Verdict.FALSE  # deadline passed without a witness
        return Verdict.FALSE_C
    raise OracleError(f"cannot evaluate node {type(node).__name__}")
