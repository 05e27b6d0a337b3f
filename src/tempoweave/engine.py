"""Simulation rules and the layered coordination algorithm.

Each step runs five layers: behavioural rules to a fixpoint, one
environmental rule chosen by the policy, the time step, monitor dispatch,
and clearing of active marks.  Rules and the global steps check every
precondition first and then change the snapshot they are given.  Agent
states are frozen and shared between snapshots, so a rule that changes an
agent puts a new state in place of the old one.  `coordinate_step` runs
the rules on one working copy per step, so it never touches its input.
`run` yields each step's entry as the step ends and keeps none of them.
What the step reads of the scenario (agent names, task kinds, transitions
by task, timed transitions, reacting inputs) comes from tables each
Scenario builds once, on first use.
"""

from __future__ import annotations

import logging
import random
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .model import (
    TRIGGER_TAGS,
    AgentState,
    BindingSet,
    Scenario,
    ScenarioError,
    Snapshot,
    TransitionDef,
    check_conformance,
    init_snapshot,
)
from .monitor import MonitorState, dispatch
from .verdict import Verdict

log = logging.getLogger("tempoweave.engine")


class SimulationError(RuntimeError):
    """A rule was applied outside its precondition, or a policy failed."""


class EngineInvariantError(RuntimeError):
    """Internal invariant violated after a coordination layer."""


class RuleMatch(NamedTuple):
    rule: str
    agent: str | None = None
    transition: str | None = None
    input_kind: str | None = None
    message_id: int | None = None


BEHAVIOURAL_RULES = (
    "fire_initial_transition",
    "fire_transition_with_input",
    "fire_transition_with_guard",
    "fire_transition_with_timed_guard",
)
ENVIRONMENTAL_RULES = (
    "insert_input",
    "insert_effective_input",
    "delete_input",
    "receive_message",
)


def _require(condition: bool, message: str):
    if not condition:
        raise SimulationError(f"rule precondition violated: {message}")


# --- behavioural rule --------------------------------------------------------

_RULE_OF_TRIGGER = dict(zip(TRIGGER_TAGS, BEHAVIOURAL_RULES))


def _enabled(
    scenario: Scenario, snap: Snapshot, name: str
) -> Iterator[tuple[TransitionDef, RuleMatch]]:
    """Every behavioural match of one agent with its transition, in firing order.

    An inactive agent may fire a transition out of its current task whose
    trigger holds: a spontaneous one out of an initial task, an input one
    while the input is held, a message one once per held message of its
    kind, and a timed one once its counter reaches the threshold.
    """
    state = snap.agents.get(name)
    if state is None or state.active:
        return
    for t in scenario.outgoing[name, state.task]:
        tag, value = t.trigger or (None, None)
        rule = _RULE_OF_TRIGGER[tag]
        if tag == "input":
            if state.inputs.get(value, 0) > 0:
                yield t, RuleMatch(rule, name, t.ident, input_kind=value)
        elif tag == "message":
            for ident in sorted(state.messages):
                if state.messages[ident].kind == value:
                    yield t, RuleMatch(rule, name, t.ident, message_id=ident)
        elif tag is None or snap.elapsed[name, t.ident] >= value:
            yield t, RuleMatch(rule, name, t.ident)


def fire_transition(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    """Fire an enabled transition: the one rule behind all four behavioural names.

    The agent moves to the target task and becomes active, a message guard
    is consumed, a timed counter restarts, and the transition's messages go
    into transit.  Inputs are never consumed.
    """
    t = next((t for t, m in _enabled(scenario, snap, match.agent) if m == match), None)
    _require(t is not None, f"{match} is not enabled")
    state = snap.agents[match.agent]
    messages = state.messages
    if match.message_id is not None:
        messages = dict(messages)
        del messages[match.message_id]
    snap.agents[match.agent] = AgentState(t.target, True, state.inputs, messages)
    if t.is_timed:
        snap.elapsed[match.agent, t.ident] = Fraction(0)
    for kind, recipient in t.sends:
        msg = snap.new_message(kind, match.agent, recipient)
        snap.in_transit[msg.ident] = msg


# --- environmental rules -----------------------------------------------------


def _count_input(snap: Snapshot, name: str, kind: str, change: int) -> None:
    """Replace agent name's state with one holding `change` more of kind."""
    state = snap.agents[name]
    inputs = {**state.inputs, kind: state.inputs.get(kind, 0) + change}
    if not inputs[kind]:
        del inputs[kind]
    snap.agents[name] = AgentState(state.task, state.active, inputs, state.messages)


def insert_input(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    _require(match.agent in snap.agents, f"unknown agent {match.agent!r}")
    _require(match.input_kind in scenario.input_kinds, f"unknown input {match.input_kind!r}")
    _count_input(snap, match.agent, match.input_kind, 1)


def _reacting_inputs(scenario: Scenario, name: str, task: str) -> tuple[str, ...]:
    """Input kinds that a transition of agent name out of task reacts to."""
    return scenario.reacting_inputs.get((name, task), ())


def insert_effective_input(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    _require(match.agent in snap.agents, f"unknown agent {match.agent!r}")
    task = snap.agents[match.agent].task
    _require(
        match.input_kind in _reacting_inputs(scenario, match.agent, task),
        f"no transition out of {task!r} reacts to input {match.input_kind!r}",
    )
    insert_input(scenario, snap, match)


def delete_input(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    _require(match.agent in snap.agents, f"unknown agent {match.agent!r}")
    _require(
        snap.agents[match.agent].inputs.get(match.input_kind, 0) > 0,
        f"{match.agent} holds no {match.input_kind}",
    )
    _count_input(snap, match.agent, match.input_kind, -1)


def receive_message(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    msg = snap.in_transit.get(match.message_id)
    _require(msg is not None, f"no in-transit message {match.message_id}")
    del snap.in_transit[match.message_id]
    state = snap.agents[msg.recipient]
    snap.agents[msg.recipient] = AgentState(
        state.task, True, state.inputs, {**state.messages, msg.ident: msg}
    )


# --- global rules ------------------------------------------------------------


def step_time(snap: Snapshot, delta: Fraction) -> None:
    """Advance the clock and every timed-guard counter by delta."""
    if not delta > 0:
        raise SimulationError(f"time step must be positive, got {delta}")
    snap.clock += delta
    for key in snap.elapsed:
        snap.elapsed[key] += delta


def remove_active_marks(snap: Snapshot) -> None:
    for name, state in snap.agents.items():
        if state.active:  # replacing a value leaves the iteration valid
            snap.agents[name] = AgentState(state.task, False, state.inputs, state.messages)


# --- matching ----------------------------------------------------------------

_RULES = {
    **dict.fromkeys(BEHAVIOURAL_RULES, fire_transition),
    "insert_input": insert_input,
    "insert_effective_input": insert_effective_input,
    "delete_input": delete_input,
    "receive_message": receive_message,
}


def apply_match(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    try:
        rule = _RULES[match.rule]
    except KeyError:
        raise SimulationError(f"unknown rule {match.rule!r}") from None
    return rule(scenario, snap, match)


def find_matches(rule: str, scenario: Scenario, snap: Snapshot) -> list[RuleMatch]:
    """All bindings for a rule's precondition, in deterministic order."""
    if rule not in _RULES:
        raise SimulationError(f"unknown rule {rule!r}")
    matches: list[RuleMatch] = []
    agents = sorted(snap.agents)
    if rule in BEHAVIOURAL_RULES:
        for name in agents:
            matches.extend(m for _, m in _enabled(scenario, snap, name) if m.rule == rule)
    elif rule == "insert_input":
        for name in agents:
            for kind in scenario.input_kinds:
                matches.append(RuleMatch(rule, agent=name, input_kind=kind))
    elif rule == "insert_effective_input":
        for name in agents:
            for kind in _reacting_inputs(scenario, name, snap.agents[name].task):
                matches.append(RuleMatch(rule, agent=name, input_kind=kind))
    elif rule == "delete_input":
        for name in agents:
            for kind in sorted(snap.agents[name].inputs):
                if snap.agents[name].inputs[kind] > 0:
                    matches.append(RuleMatch(rule, agent=name, input_kind=kind))
    elif rule == "receive_message":
        for ident in sorted(snap.in_transit):
            matches.append(RuleMatch(rule, message_id=ident))
    return matches


def environmental_matches(scenario: Scenario, snap: Snapshot) -> list[RuleMatch]:
    """Concatenation of all environmental matches, in rule order."""
    matches: list[RuleMatch] = []
    for rule in ENVIRONMENTAL_RULES:
        matches.extend(find_matches(rule, scenario, snap))
    return matches


# --- environment policies ----------------------------------------------------


@dataclass(frozen=True)
class ScheduleEntry:
    action: str  # insert | insert_effective | delete | receive | noop
    kind: str | None = None
    agent: str | None = None
    sender: str | None = None
    recipient: str | None = None


class ScriptedPolicy:
    """Replays a step-indexed schedule of environmental actions."""

    def __init__(self, schedule: dict[int, ScheduleEntry]):
        self.schedule = schedule

    def choose(self, step_no, scenario, snap, matches):
        entry = self.schedule.get(step_no)
        if entry is None or entry.action == "noop":
            return None
        if entry.action == "insert":
            return RuleMatch("insert_input", agent=entry.agent, input_kind=entry.kind)
        if entry.action == "insert_effective":
            wanted = RuleMatch(
                "insert_effective_input", agent=entry.agent, input_kind=entry.kind
            )
            if wanted not in matches:
                raise SimulationError(
                    f"step {step_no}: effective insert of {entry.kind} into "
                    f"{entry.agent} does not match"
                )
            return wanted
        if entry.action == "delete":
            wanted = RuleMatch("delete_input", agent=entry.agent, input_kind=entry.kind)
            if wanted not in matches:
                raise SimulationError(
                    f"step {step_no}: {entry.agent} holds no {entry.kind} to delete"
                )
            return wanted
        if entry.action == "receive":
            for m in matches:
                if m.rule != "receive_message":
                    continue
                msg = snap.in_transit[m.message_id]
                if (
                    msg.kind == entry.kind
                    and msg.sender == entry.sender
                    and msg.recipient == entry.recipient
                ):
                    return m
            raise SimulationError(
                f"step {step_no}: no in-transit {entry.kind} from {entry.sender} "
                f"to {entry.recipient}"
            )
        raise SimulationError(f"unknown scripted action {entry.action!r}")


class SeededPolicy:
    """Uniform choice over all environmental matches plus an explicit no-op."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def choose(self, step_no, scenario, snap, matches):
        options = list(matches) + [None]
        return options[self.rng.randrange(len(options))]


def _tell(text: str) -> None:
    print(text, file=sys.stderr)


def _ask(prompt: str) -> str:
    """`input`, with the prompt on stderr."""
    print(prompt, end="", file=sys.stderr, flush=True)
    return input()


class InteractivePolicy:
    """Debug affordance: list the numbered matches and read a choice on stdin.

    The list and the prompt go to stderr, so stdout carries only the trace.
    """

    def __init__(self, input_fn=_ask, print_fn=_tell):
        self.input_fn = input_fn
        self.print_fn = print_fn

    def choose(self, step_no, scenario, snap, matches):
        self.print_fn(f"step {step_no}: environmental choices")
        for i, m in enumerate(matches):
            self.print_fn(f"  [{i}] {m}")
        self.print_fn("  [n] no-op")
        while True:
            try:
                answer = self.input_fn("> ").strip()
            except EOFError:
                raise SimulationError(
                    f"step {step_no}: input ended before a choice was made"
                ) from None
            if answer == "n":
                return None
            if answer.isdigit() and int(answer) < len(matches):
                return matches[int(answer)]
            self.print_fn("enter a match index or 'n'")


_SCHEDULE_RES = (
    (re.compile(r"insert!\s+(\w+)\s+into\s+(\w+)$"),
     lambda m: ScheduleEntry("insert_effective", kind=m.group(1), agent=m.group(2))),
    (re.compile(r"insert\s+(\w+)\s+into\s+(\w+)$"),
     lambda m: ScheduleEntry("insert", kind=m.group(1), agent=m.group(2))),
    (re.compile(r"delete\s+(\w+)\s+from\s+(\w+)$"),
     lambda m: ScheduleEntry("delete", kind=m.group(1), agent=m.group(2))),
    (re.compile(r"receive\s+(\w+)\s+from\s+(\w+)\s+at\s+(\w+)$"),
     lambda m: ScheduleEntry("receive", kind=m.group(1), sender=m.group(2),
                             recipient=m.group(3))),
    (re.compile(r"noop$"), lambda m: ScheduleEntry("noop")),
)

_AT_RE = re.compile(r"at\s+(\d+)\s*:\s*(.*)$")


def parse_schedule(text: str) -> dict[int, ScheduleEntry]:
    """Parse `at <step>: <action>` lines; steps must strictly increase."""
    schedule: dict[int, ScheduleEntry] = {}
    last_step = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _AT_RE.match(line)
        if not m:
            raise ScenarioError(f"line {lineno}: cannot parse schedule entry {raw!r}")
        try:
            step = int(m.group(1))
        except ValueError as exc:  # more digits than int() takes
            raise ScenarioError(f"line {lineno}: invalid step: {exc}") from None
        if step <= last_step:
            raise ScenarioError(f"line {lineno}: schedule steps must strictly increase")
        last_step = step
        action_text = m.group(2).strip()
        for pattern, build in _SCHEDULE_RES:
            am = pattern.match(action_text)
            if am:
                schedule[step] = build(am)
                break
        else:
            raise ScenarioError(f"line {lineno}: unknown action {action_text!r}")
    return schedule


# --- coordination ------------------------------------------------------------


@dataclass
class TraceEntry:
    snapshot: Snapshot  # post-clearing; active marks all false
    active: dict[str, bool]  # marks as seen by the monitors this step
    verdicts: list[Verdict | None]


def _assert_conformant(snap: Snapshot, scenario: Scenario, layer: str):
    violations = check_conformance(snap, scenario)
    if violations:
        raise EngineInvariantError(f"after layer {layer}: {violations}")


def coordinate_step(
    scenario: Scenario,
    snap: Snapshot,
    policy,
    monitors: list[MonitorState],
    bindings: BindingSet,
    delta: Fraction,
) -> TraceEntry:
    """Run the five layers of step snap.seq + 1 on a working copy; snap is not changed."""
    work = snap.clone()
    step_no = work.seq = snap.seq + 1

    # layer 1: every inactive agent fires its first enabled transition.  A
    # fire changes only its own agent's task, mark, messages and counter, so
    # one sweep reaches the fixpoint.  Fires go by rule, then by agent name.
    firsts = [
        next((m for _, m in _enabled(scenario, work, name)), None)
        for name in scenario.agent_names
    ]
    for match in sorted(filter(None, firsts), key=lambda m: BEHAVIOURAL_RULES.index(m.rule)):
        log.debug("step %d layer 1: %s", step_no, match)
        apply_match(scenario, work, match)
    _assert_conformant(work, scenario, "behavioural")

    # layer 2: one environmental rule (or a no-op)
    choice = policy.choose(step_no, scenario, work, environmental_matches(scenario, work))
    if choice is not None:
        log.debug("step %d layer 2: %s", step_no, choice)
        apply_match(scenario, work, choice)
    _assert_conformant(work, scenario, "environmental")

    # layer 3: global passage of time
    step_time(work, delta)
    _assert_conformant(work, scenario, "time")

    # layer 4: monitor dispatch on the active agents
    active = {name: state.active for name, state in work.agents.items()}
    verdicts = dispatch(work, monitors, bindings)

    # layer 5: clear all active marks
    remove_active_marks(work)
    _assert_conformant(work, scenario, "clear")

    return TraceEntry(work, active, verdicts)


def run(
    scenario: Scenario,
    monitors: list[MonitorState],
    bindings: BindingSet,
    policy,
    steps: int,
    delta: Fraction | None = None,
    early_stop: bool = True,
) -> Iterator[TraceEntry]:
    """Yield the entry of each of up to `steps` steps from the initial snapshot
    as the step ends, stepping the caller's monitors; with `early_stop`, stop
    once there are monitors and every one is final."""
    if steps < 1:
        raise SimulationError(f"steps must be >= 1, got {steps}")
    if delta is None:
        delta = scenario.timestep
    snap = init_snapshot(scenario)
    _assert_conformant(snap, scenario, "init")
    for _ in range(steps):
        entry = coordinate_step(scenario, snap, policy, monitors, bindings, delta)
        snap = entry.snapshot
        yield entry
        if early_stop and monitors and all(m.is_final for m in monitors):
            return
