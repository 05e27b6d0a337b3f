"""Stepwise monitoring by tree rewriting.

One monitor step, `monitor_step`, maps (obligation, the event's
propositions, elapsed time) to (verdict, next obligation) and keeps no
state.  It makes three walks, none below a boolean top, and each tells a
leaf (an atom, a constant, a (weak) next or a window) by its kind: `unroll`
shifts each activated window by the elapsed time and rewrites each
outermost U, F and G into its one-step form, whose recurrence is the node
itself; `evaluate_leaves` reads atoms and windows against the event; and
`settle` gives the verdict and the next obligation, which shares every
subtree below its boolean top with the formula monitored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import verdict as b4
from .formula import (
    BINARY_KINDS,
    BOOLEAN_KINDS,
    UNARY_KINDS,
    Always,
    And,
    Atom,
    Event,
    Eventually,
    FalseF,
    Implies,
    Next,
    Node,
    Not,
    Or,
    Property,
    Prophecy,
    Time,
    TrueF,
    Until,
    WeakNext,
    _bound_str,
    _walk,
)
from .verdict import Verdict


class MonitorError(ValueError):
    """Invalid monitor input (e.g. time regression)."""


# --- the step's walks --------------------------------------------------------

# The walks are module-level functions that take the delta or the event: a
# nested recursive walker is a reference cycle built on every call.


def _children(n: Node, walk, *args) -> Node:
    """n with `walk(child, *args)` in place of each child, rebuilt."""
    if isinstance(n, UNARY_KINDS):
        return type(n)(walk(n.child, *args))
    if isinstance(n, BINARY_KINDS):
        return type(n)(walk(n.left, *args), walk(n.right, *args))
    return n


def unroll(n: Node, delta: Time) -> Node:
    """Shift every activated prophecy window by delta, and rewrite each
    outermost U, F and G into its one-step form.

    A one-step form's present part is unrolled the same way; its
    recurrence is the operator node itself inside a plain (weak) next, so
    one unrolling is consumed per event.  Atoms, constants, X, WX and
    fresh windows are their own one-step forms and are handed on as they
    are.  Every activated window is in the boolean top (see
    `monitor_step`), so the walk stays there and shares each subtree below.
    """
    if isinstance(n, BOOLEAN_KINDS):
        return _children(n, unroll, delta)
    if isinstance(n, Until):
        return Or(unroll(n.right, delta), And(unroll(n.left, delta), Next(n)))
    if isinstance(n, Eventually):
        return Or(unroll(n.child, delta), Next(n))
    if isinstance(n, Always):
        return And(unroll(n.child, delta), WeakNext(n))
    if isinstance(n, Prophecy) and n.active:
        return Prophecy(n.lower - delta, n.upper - delta, n.prop, n.negated, active=True)
    return n


def evaluate_leaves(n: Node, props: frozenset[str], includes_now: bool = False) -> Node:
    """Read the leaves of an unrolled tree's boolean top against the
    event's propositions.

    An atom becomes its constant.  An activated window, already shifted, is
    decided: trespassed (a negative upper bound) is false, and an
    occurrence is true in the window and false before it opens.  A fresh
    window is activated; under `includes_now` (the current-event-counts
    reading) one already open whose proposition holds now is true at once,
    and the current event never blocks later witnesses.  Undecided windows
    stay.  Any other leaf, a constant or a (weak) next, is returned as it
    is: nothing below it is read this step.
    """
    if isinstance(n, BOOLEAN_KINDS):
        return _children(n, evaluate_leaves, props, includes_now)
    if isinstance(n, Atom):
        return TrueF() if n.name in props else FalseF()
    if isinstance(n, Prophecy):
        present = (n.prop in props) != n.negated
        if n.active:
            if n.upper < 0:
                return FalseF()
            if present:  # an occurrence, in or before the window
                return TrueF() if n.lower <= 0 else FalseF()
        elif includes_now and present and n.lower <= 0 <= n.upper:
            return TrueF()
        return Prophecy(n.lower, n.upper, n.prop, n.negated, active=True)
    return n


def settle(n: Node) -> tuple[Verdict, Node]:
    """Read a processed tree in one walk: its lattice value and the
    obligation carried to the next event.

    Constants are final values.  A (weak) next is pending and hands on its
    operand, with constants propagated through the operand's boolean top,
    as the next obligation.  A window is pending and waits as it is.
    Boolean operators apply the lattice operations to their operands'
    values and rebuild with constants propagated away.
    """
    if isinstance(n, TrueF):
        return Verdict.TRUE, TrueF()
    if isinstance(n, FalseF):
        return Verdict.FALSE, FalseF()
    if isinstance(n, Next):
        return Verdict.FALSE_C, _simplify(n.child)
    if isinstance(n, WeakNext):
        return Verdict.TRUE_C, _simplify(n.child)
    if isinstance(n, Prophecy):
        return Verdict.FALSE_C, n
    if isinstance(n, Not):
        value, child = settle(n.child)
        return b4.COMPLEMENT[value], _reduce(Not, child)
    if isinstance(n, (Or, And, Implies)):
        left_value, left = settle(n.left)
        right_value, right = settle(n.right)
        if isinstance(n, Or):
            value = b4.join(left_value, right_value)
        elif isinstance(n, And):
            value = b4.meet(left_value, right_value)
        else:
            value = b4.join(b4.COMPLEMENT[left_value], right_value)
        return value, _reduce(type(n), left, right)
    raise RuntimeError(f"non-collapsible node {type(n).__name__}")


def _simplify(n: Node) -> Node:
    """n with the constants of its boolean top propagated away."""
    if isinstance(n, Not):
        return _reduce(Not, _simplify(n.child))
    if isinstance(n, (Or, And, Implies)):
        return _reduce(type(n), _simplify(n.left), _simplify(n.right))
    return n


def _reduce(kind: type, left: Node, right: Node | None = None) -> Node:
    """kind(left, right), or kind(left) for Not, over operands that are
    already reduced, with constant operands propagated away."""
    if kind is Not:
        if isinstance(left, TrueF):
            return FalseF()
        if isinstance(left, FalseF):
            return TrueF()
        return Not(left)
    if kind is And:
        if isinstance(left, FalseF) or isinstance(right, FalseF):
            return FalseF()
        if isinstance(left, TrueF):
            return right
        if isinstance(right, TrueF):
            return left
    elif kind is Or:
        if isinstance(left, TrueF) or isinstance(right, TrueF):
            return TrueF()
        if isinstance(left, FalseF):
            return right
        if isinstance(right, FalseF):
            return left
    else:  # Implies
        if isinstance(left, FalseF) or isinstance(right, TrueF):
            return TrueF()
        if isinstance(left, TrueF):
            return right
    return kind(left, right)


# --- stepping ----------------------------------------------------------------


@dataclass
class MonitorState:
    """Per-property monitor: the obligation so far, and the time and verdict
    of the last event stepped (None before the first).  It keeps nothing
    else per step, so its size does not grow with the number of events.
    It refuses a body holding an activated window, as the oracle does."""

    prop: Property
    obligation: Node = field(init=False)
    last_time: Time | None = None
    last_verdict: Verdict | None = None
    prophecy_includes_now: bool = False

    def __post_init__(self):
        if any(isinstance(n, Prophecy) and n.active for n, _ in _walk(self.prop.body)):
            raise MonitorError("activated prophecies are monitor-internal")
        self.obligation = self.prop.body

    @property
    def agent(self) -> str:
        return self.prop.agent

    @property
    def is_final(self) -> bool:
        last = self.last_verdict
        return last is not None and last.is_final

    def step(self, event: Event) -> Verdict:
        last = self.last_time
        if last is not None and event.time < last:
            raise MonitorError(f"time regression: event at {_bound_str(event.time)} "
                               f"after {_bound_str(last)}")
        delta = 0 if last is None else event.time - last
        self.last_verdict, self.obligation = monitor_step(
            self.obligation, event.props, delta, self.prophecy_includes_now
        )
        self.last_time = event.time
        return self.last_verdict


def monitor_step(obligation: Node, props: frozenset[str], delta: Time,
                 includes_now: bool = False) -> tuple[Verdict, Node]:
    """Walk the obligation's boolean top three times: `unroll`, which
    shifts by `delta` (the time since the previous event, 0 at the first),
    the event walk over `props`, and `settle`, which gives the verdict and
    the next obligation.  The obligation is a formula without an activated
    window, or one this function returned, whose activated windows are all
    in the boolean top `unroll` shifts."""
    if delta < 0:
        raise MonitorError(f"negative time shift {_bound_str(delta)}")
    tree = evaluate_leaves(unroll(obligation, delta), props, includes_now)

    verdict, next_obligation = settle(tree)

    if verdict is Verdict.TRUE and not isinstance(next_obligation, TrueF):
        raise RuntimeError("final TRUE verdict with non-constant obligation")
    if verdict is Verdict.FALSE and not isinstance(next_obligation, FalseF):
        raise RuntimeError("final FALSE verdict with non-constant obligation")
    return verdict, next_obligation
