"""Stepwise monitoring by tree rewriting.

One monitor step, `monitor_step`, maps (obligation, the event's
propositions, elapsed time) to (verdict, next obligation) and keeps no
state.  It runs a fixed pipeline over the obligation formula: mark the
outermost temporal operators, unroll them one step, shift activated
prophecy windows by the elapsed time, evaluate atoms and prophecies
against the propositions, and activate fresh prophecies.  One bottom-up
walk, `settle`, then reads the processed tree: it yields the four-valued
verdict and the obligation carried to the next event together.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import verdict as b4
from .formula import (
    ActiveProphecy,
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
    has_marks,
)
from .formula import Property
from .oracle import Event
from .verdict import Verdict


class MonitorError(ValueError):
    """Invalid monitor input (e.g. time regression)."""


class PipelineError(RuntimeError):
    """Internal pipeline invariant violated; indicates a bug."""


# --- pipeline steps ----------------------------------------------------------

# Stages walk the tree with module-level functions that take the props or the
# delta: a nested recursive walker is a reference cycle built on every call.


def _children(n: Node, walk, arg) -> Node:
    """n with `walk(child, arg)` in place of each of its children."""
    if isinstance(n, (Not, Next, WeakNext, Eventually, Always)):
        return type(n)(walk(n.child, arg), mark=n.mark)
    if isinstance(n, (Or, And, Implies, Until)):
        return type(n)(walk(n.left, arg), walk(n.right, arg), mark=n.mark)
    return n


def _mark(n: Node) -> Node:
    # boolean connectives pass the mark on to their children
    if isinstance(n, Not):
        return Not(_mark(n.child))
    if isinstance(n, Or):
        return Or(_mark(n.left), _mark(n.right))
    if isinstance(n, And):
        return And(_mark(n.left), _mark(n.right))
    if isinstance(n, Implies):
        return Implies(_mark(n.left), _mark(n.right))
    return replace(n, mark=True)


def mark_outermost(tree: Node) -> Node:
    """Mark the root, propagating marks through boolean operators.

    Afterwards exactly the outermost temporal operators, atoms and
    constants carry the mark.
    """
    if has_marks(tree):
        raise PipelineError("tree already carries marks")
    return _mark(tree)


def unroll_marked(tree: Node) -> Node:
    """Rewrite every marked temporal operator into its one-step form.

    The present-obligation copies are marked like fresh outermost
    operators; the next-step recurrence stays inside a marked (weak) next
    so one unrolling is consumed per event.
    """
    return _unroll(tree)


def _unroll(n: Node) -> Node:
    if n.mark:
        if isinstance(n, Until):
            recur = Next(Until(n.left, n.right), mark=True)
            return Or(_unroll(_mark(n.right)), And(_unroll(_mark(n.left)), recur))
        if isinstance(n, Eventually):
            recur = Next(Eventually(n.child), mark=True)
            return Or(_unroll(_mark(n.child)), recur)
        if isinstance(n, Always):
            recur = WeakNext(Always(n.child), mark=True)
            return And(_unroll(_mark(n.child)), recur)
        return n  # X, WX and prophecies are their own one-step forms
    if isinstance(n, Not):
        return Not(_unroll(n.child))
    if isinstance(n, Or):
        return Or(_unroll(n.left), _unroll(n.right))
    if isinstance(n, And):
        return And(_unroll(n.left), _unroll(n.right))
    if isinstance(n, Implies):
        return Implies(_unroll(n.left), _unroll(n.right))
    return n  # unmarked subtree: wait for a later event


def shift_prophecies(tree: Node, delta: Time) -> Node:
    """Decrease the window of every activated prophecy by delta."""
    if delta < 0:
        raise MonitorError(f"negative time shift {_bound_str(delta)}")
    return _shift(tree, delta)


def _shift(n: Node, delta: Time) -> Node:
    if isinstance(n, ActiveProphecy):
        return replace(n, lower=n.lower - delta, upper=n.upper - delta)
    return _children(n, _shift, delta)


def evaluate_atoms(tree: Node, props: frozenset[str]) -> Node:
    """Replace every marked atom with the matching constant (kept marked)."""
    return _atoms(tree, props)


def _atoms(n: Node, props: frozenset[str]) -> Node:
    if n.mark and isinstance(n, Atom):
        return TrueF(mark=True) if n.name in props else FalseF(mark=True)
    return _children(n, _atoms, props)


def evaluate_prophecies(tree: Node, props: frozenset[str]) -> Node:
    """Decide marked activated prophecies against the event's propositions.

    A window with a negative upper bound has been trespassed; an
    occurrence before the window opens violates the first-occurrence
    requirement.  Undecided prophecies stay, with the mark removed.
    """
    return _decide(tree, props)


def _decide(n: Node, props: frozenset[str]) -> Node:
    if n.mark and isinstance(n, ActiveProphecy):
        present = (n.prop in props) != n.negated
        if n.upper < 0:
            return FalseF(mark=True)
        if present and n.lower <= 0:
            return TrueF(mark=True)
        if present:  # occurrence before the window opens
            return FalseF(mark=True)
        return replace(n, mark=False)
    return _children(n, _decide, props)


def activate_prophecies(tree: Node, now: frozenset[str] | None = None) -> Node:
    """Turn marked inactive prophecies into activated ones (mark removed).

    When the current event's propositions are given as `now` (the
    current-event-counts reading), a prophecy whose window is already open
    and whose proposition holds right now is decided true immediately; the
    current event never blocks later witnesses, so no negative decision
    happens here.
    """
    return _activate(tree, now)


def _activate(n: Node, now: frozenset[str] | None) -> Node:
    if n.mark and isinstance(n, Prophecy):
        if now is not None:
            present = (n.prop in now) != n.negated
            if present and n.lower <= 0 <= n.upper:
                return TrueF(mark=True)
        return ActiveProphecy(n.lower, n.upper, n.prop, n.negated)
    return _children(n, _activate, now)


def settle(n: Node) -> tuple[Verdict, Node]:
    """Read a processed tree in one walk: its lattice value and the
    obligation carried to the next event.

    Constants are final values.  A (weak) next is pending; a marked one
    hands on its operand, with constants propagated through the operand's
    boolean top, as the next obligation.  A prophecy is pending and waits.
    Boolean operators apply the lattice operations to their operands'
    values and rebuild with constants propagated away.  The obligation
    carries no marks.
    """
    if isinstance(n, TrueF):
        return Verdict.TRUE, TrueF()
    if isinstance(n, FalseF):
        return Verdict.FALSE, FalseF()
    if isinstance(n, Next):
        return Verdict.FALSE_C, _simplify(n.child) if n.mark else n
    if isinstance(n, WeakNext):
        return Verdict.TRUE_C, _simplify(n.child) if n.mark else n
    if isinstance(n, (Prophecy, ActiveProphecy)):
        return Verdict.FALSE_C, replace(n, mark=False) if n.mark else n
    if isinstance(n, Not):
        value, child = settle(n.child)
        return b4.complement(value), _reduce(Not, child)
    if isinstance(n, (Or, And, Implies)):
        left_value, left = settle(n.left)
        right_value, right = settle(n.right)
        if isinstance(n, Or):
            value = b4.join(left_value, right_value)
        elif isinstance(n, And):
            value = b4.meet(left_value, right_value)
        else:
            value = b4.join(b4.complement(left_value), right_value)
        return value, _reduce(type(n), left, right)
    raise PipelineError(f"non-collapsible node {type(n).__name__}")


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
    else per step, so its size does not grow with the number of events."""

    prop: Property
    obligation: Node = field(init=False)
    last_time: Time | None = None
    last_verdict: Verdict | None = None
    prophecy_includes_now: bool = False

    def __post_init__(self):
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
    """Run the front stages over the obligation, then `settle` the
    processed tree once into the verdict and the next obligation; `delta`
    is the time since the previous event (0 at the first)."""
    tree = mark_outermost(obligation)
    tree = unroll_marked(tree)
    tree = shift_prophecies(tree, delta)
    tree = evaluate_atoms(tree, props)
    tree = evaluate_prophecies(tree, props)
    tree = activate_prophecies(tree, now=props if includes_now else None)

    verdict, next_obligation = settle(tree)

    if verdict is Verdict.TRUE and not isinstance(next_obligation, TrueF):
        raise PipelineError("final TRUE verdict with non-constant obligation")
    if verdict is Verdict.FALSE and not isinstance(next_obligation, FalseF):
        raise PipelineError("final FALSE verdict with non-constant obligation")
    return verdict, next_obligation


# --- coupling to snapshots ---------------------------------------------------


def resolve_event(snapshot, bindings) -> Event:
    """Map a snapshot to the one event every monitor sees in it.

    The event holds every bound proposition whose predicate matches the
    snapshot, at the snapshot's global clock.
    """
    from .model import eval_binding  # local import to keep layering one-way

    props = frozenset(
        name for name, binding in bindings.items() if eval_binding(binding, snapshot)
    )
    return Event(props, snapshot.clock)


def dispatch(snapshot, monitors, bindings) -> list[Verdict | None]:
    """Step every monitor whose agent is active; leave the others untouched.

    Returns the verdicts in monitor order, None where the agent was
    inactive this snapshot.  The snapshot's event is resolved once, when
    the first active monitor needs it.
    """
    event = None
    results: list[Verdict | None] = []
    for state in monitors:
        if state.agent not in snapshot.agents:
            raise MonitorError(f"property annotated with unknown agent {state.agent!r}")
        if state.agent in snapshot.active:
            if event is None:
                event = resolve_event(snapshot, bindings)
            results.append(state.step(event))
        else:
            results.append(None)
    return results
