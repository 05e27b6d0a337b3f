"""Stepwise monitoring by tree rewriting.

One monitor step runs a fixed pipeline over the current obligation
formula: mark the outermost temporal operators, unroll them one step,
shift activated prophecy windows by the elapsed time, evaluate atoms and
prophecies against the event, and activate fresh prophecies.  The
processed tree is then read in two independent ways: collapsed to a
four-valued verdict, and rewritten into the obligation carried to the
next event.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

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
    TrueF,
    Until,
    WeakNext,
    has_marks,
    strip_marks,
)
from .formula import Property
from .oracle import Event
from .verdict import Verdict


class MonitorError(ValueError):
    """Invalid monitor input (e.g. time regression)."""


class PipelineError(RuntimeError):
    """Internal pipeline invariant violated; indicates a bug."""


# --- pipeline steps ----------------------------------------------------------


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

    def go(n: Node) -> Node:
        if n.mark:
            if isinstance(n, Until):
                recur = Next(Until(n.left, n.right), mark=True)
                return Or(go(_mark(n.right)), And(go(_mark(n.left)), recur))
            if isinstance(n, Eventually):
                recur = Next(Eventually(n.child), mark=True)
                return Or(go(_mark(n.child)), recur)
            if isinstance(n, Always):
                recur = WeakNext(Always(n.child), mark=True)
                return And(go(_mark(n.child)), recur)
            return n  # X, WX and prophecies are their own one-step forms
        if isinstance(n, Not):
            return Not(go(n.child))
        if isinstance(n, Or):
            return Or(go(n.left), go(n.right))
        if isinstance(n, And):
            return And(go(n.left), go(n.right))
        if isinstance(n, Implies):
            return Implies(go(n.left), go(n.right))
        return n  # unmarked subtree: wait for a later event

    return go(tree)


def shift_prophecies(tree: Node, delta: Fraction) -> Node:
    """Decrease the window of every activated prophecy by delta."""
    if delta < 0:
        raise MonitorError(f"negative time shift {delta}")

    def go(n: Node) -> Node:
        if isinstance(n, ActiveProphecy):
            return replace(n, lower=n.lower - delta, upper=n.upper - delta)
        if isinstance(n, (Not, Next, WeakNext, Eventually, Always)):
            return replace(n, child=go(n.child))
        if isinstance(n, (Or, And, Implies, Until)):
            return replace(n, left=go(n.left), right=go(n.right))
        return n

    return go(tree)


def evaluate_atoms(tree: Node, event: Event) -> Node:
    """Replace every marked atom with the matching constant (kept marked)."""

    def go(n: Node) -> Node:
        if n.mark and isinstance(n, Atom):
            holds = n.name in event.props
            return TrueF(mark=True) if holds else FalseF(mark=True)
        if isinstance(n, (Not, Next, WeakNext, Eventually, Always)):
            return replace(n, child=go(n.child))
        if isinstance(n, (Or, And, Implies, Until)):
            return replace(n, left=go(n.left), right=go(n.right))
        return n

    return go(tree)


def evaluate_prophecies(tree: Node, event: Event) -> Node:
    """Decide marked activated prophecies against the current event.

    A window with a negative upper bound has been trespassed; an
    occurrence before the window opens violates the first-occurrence
    requirement.  Undecided prophecies stay, with the mark removed.
    """

    def decide(n: ActiveProphecy) -> Node:
        present = (n.prop in event.props) != n.negated
        if n.upper < 0:
            return FalseF(mark=True)
        if present and n.lower <= 0:
            return TrueF(mark=True)
        if present:  # occurrence before the window opens
            return FalseF(mark=True)
        return replace(n, mark=False)

    def go(n: Node) -> Node:
        if n.mark and isinstance(n, ActiveProphecy):
            return decide(n)
        if isinstance(n, (Not, Next, WeakNext, Eventually, Always)):
            return replace(n, child=go(n.child))
        if isinstance(n, (Or, And, Implies, Until)):
            return replace(n, left=go(n.left), right=go(n.right))
        return n

    return go(tree)


def activate_prophecies(tree: Node, now: Event | None = None) -> Node:
    """Turn marked inactive prophecies into activated ones (mark removed).

    When `now` is given (the current-event-counts reading), a prophecy
    whose window is already open and whose proposition holds right now is
    decided true immediately; the current event never blocks later
    witnesses, so no negative decision happens here.
    """

    def go(n: Node) -> Node:
        if n.mark and isinstance(n, Prophecy):
            if now is not None:
                present = (n.prop in now.props) != n.negated
                if present and n.lower <= 0 <= n.upper:
                    return TrueF(mark=True)
            return ActiveProphecy(n.lower, n.upper, n.prop, n.negated)
        if isinstance(n, (Not, Next, WeakNext, Eventually, Always)):
            return replace(n, child=go(n.child))
        if isinstance(n, (Or, And, Implies, Until)):
            return replace(n, left=go(n.left), right=go(n.right))
        return n

    return go(tree)


def verdict_collapse(tree: Node) -> Verdict:
    """Fold the processed tree into a single lattice value.

    Constants map to finals, pending next/prophecy operators to the
    matching current value (their subtrees are dropped), and boolean
    operators apply the lattice operations bottom-up.
    """

    def go(n: Node) -> Verdict:
        if isinstance(n, TrueF):
            return Verdict.TRUE
        if isinstance(n, FalseF):
            return Verdict.FALSE
        if isinstance(n, (Next, Prophecy, ActiveProphecy)):
            return Verdict.FALSE_C
        if isinstance(n, WeakNext):
            return Verdict.TRUE_C
        if isinstance(n, Not):
            return b4.complement(go(n.child))
        if isinstance(n, Or):
            return b4.join(go(n.left), go(n.right))
        if isinstance(n, And):
            return b4.meet(go(n.left), go(n.right))
        if isinstance(n, Implies):
            return b4.join(b4.complement(go(n.left)), go(n.right))
        raise PipelineError(f"non-collapsible node {type(n).__name__}")

    return go(tree)


def _simplify_once(n: Node) -> Node:
    if isinstance(n, Not):
        child = _simplify_once(n.child)
        if isinstance(child, TrueF):
            return FalseF()
        if isinstance(child, FalseF):
            return TrueF()
        return Not(child)
    if isinstance(n, And):
        left = _simplify_once(n.left)
        right = _simplify_once(n.right)
        if isinstance(left, FalseF) or isinstance(right, FalseF):
            return FalseF()
        if isinstance(left, TrueF):
            return right
        if isinstance(right, TrueF):
            return left
        return And(left, right)
    if isinstance(n, Or):
        left = _simplify_once(n.left)
        right = _simplify_once(n.right)
        if isinstance(left, TrueF) or isinstance(right, TrueF):
            return TrueF()
        if isinstance(left, FalseF):
            return right
        if isinstance(right, FalseF):
            return left
        return Or(left, right)
    if isinstance(n, Implies):
        left = _simplify_once(n.left)
        right = _simplify_once(n.right)
        if isinstance(left, FalseF) or isinstance(right, TrueF):
            return TrueF()
        if isinstance(left, TrueF):
            return right
        return Implies(left, right)
    return n


def _node_count(n: Node) -> int:
    if isinstance(n, (Not, Next, WeakNext, Eventually, Always)):
        return 1 + _node_count(n.child)
    if isinstance(n, (Or, And, Implies, Until)):
        return 1 + _node_count(n.left) + _node_count(n.right)
    return 1


def simplify(tree: Node) -> Node:
    """Constant-propagation rewriting to a fixpoint, with a loop guard."""
    bound = 10 * _node_count(tree)
    current = tree
    for _ in range(bound):
        nxt = _simplify_once(current)
        if nxt == current:
            return current
        current = nxt
    raise PipelineError("simplification did not reach a fixpoint")


def obligation_rewrite(tree: Node) -> Node:
    """Build the rest-formula for the next event.

    Marked (weak) next operators are replaced by their subtrees, constants
    are propagated away, pending prophecies and un-entered temporal
    subtrees survive verbatim, and all marks are cleared.
    """

    def drop_next(n: Node) -> Node:
        if n.mark and isinstance(n, (Next, WeakNext)):
            return drop_next(n.child)
        if isinstance(n, (Not, Next, WeakNext, Eventually, Always)):
            return replace(n, child=drop_next(n.child))
        if isinstance(n, (Or, And, Implies, Until)):
            return replace(n, left=drop_next(n.left), right=drop_next(n.right))
        return n

    return strip_marks(simplify(drop_next(tree)))


# --- stepping ----------------------------------------------------------------


@dataclass(frozen=True)
class StepResult:
    verdict: Verdict
    next_obligation: Node


@dataclass
class MonitorState:
    """Per-property monitor: the obligation so far, and the time and verdict
    of the last event stepped (None before the first).  It keeps nothing
    else per step, so its size does not grow with the number of events."""

    prop: Property
    obligation: Node = field(init=False)
    last_time: Fraction | None = None
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
        result = monitor_step(self, event)
        self.obligation = result.next_obligation
        self.last_time = event.time
        self.last_verdict = result.verdict
        return result.verdict


def monitor_step(state: MonitorState, event: Event) -> StepResult:
    """Run one pipeline pass; pure in (obligation, last_time, event)."""
    if state.last_time is not None and event.time < state.last_time:
        raise MonitorError(
            f"time regression: event at {event.time} after {state.last_time}"
        )
    delta = Fraction(0) if state.last_time is None else event.time - state.last_time

    tree = mark_outermost(state.obligation)
    tree = unroll_marked(tree)
    tree = shift_prophecies(tree, delta)
    tree = evaluate_atoms(tree, event)
    tree = evaluate_prophecies(tree, event)
    tree = activate_prophecies(
        tree, now=event if state.prophecy_includes_now else None
    )

    verdict = verdict_collapse(tree)
    obligation = obligation_rewrite(tree)

    if verdict is Verdict.TRUE and not isinstance(obligation, TrueF):
        raise PipelineError("final TRUE verdict with non-constant obligation")
    if verdict is Verdict.FALSE and not isinstance(obligation, FalseF):
        raise PipelineError("final FALSE verdict with non-constant obligation")
    return StepResult(verdict, obligation)


# --- coupling to snapshots ---------------------------------------------------


def resolve_event(snapshot, agent: str, bindings) -> Event:
    """Map a snapshot to the event seen by an agent's monitor.

    The event holds every bound proposition whose predicate matches the
    snapshot, at the snapshot's global clock.
    """
    from .model import eval_binding  # local import to keep layering one-way

    if agent not in snapshot.agents:
        raise MonitorError(f"unknown agent {agent!r}")
    if not snapshot.agents[agent].active:
        raise MonitorError(f"agent {agent!r} is not active in this snapshot")
    props = frozenset(
        name for name, binding in bindings.items() if eval_binding(binding, snapshot)
    )
    return Event(props, snapshot.clock)


def dispatch(snapshot, monitors, bindings) -> list[Verdict | None]:
    """Step every monitor whose agent is active; leave the others untouched.

    Returns the verdicts in monitor order, None where the agent was
    inactive this snapshot.
    """
    results: list[Verdict | None] = []
    for state in monitors:
        agent_state = snapshot.agents.get(state.agent)
        if agent_state is None:
            raise MonitorError(f"property annotated with unknown agent {state.agent!r}")
        if agent_state.active:
            event = resolve_event(snapshot, state.agent, bindings)
            results.append(state.step(event))
        else:
            results.append(None)
    return results
