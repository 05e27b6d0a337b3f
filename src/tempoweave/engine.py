"""Simulation rules and the layered coordination algorithm.

Each step runs five layers: behavioural rules to a fixpoint, one
environmental rule chosen by the policy, the time step, monitor dispatch,
and clearing of active marks.  Time moves only the clock (a timed counter
is the clock time of its last restart), and clearing swaps in an empty set.

There is one behavioural rule.  Its match is an agent and a transition
that `enabled` yields for it (with the message it consumes, for a message
trigger), and `fire_transition` fires it.  Layer 1 fires each agent's
first match, by trigger rank (`TransitionDef.rank`) and then agent name.
The four environmental rules are named by `RuleMatch.rule`: `find_matches`
lists the matches of all four, and `apply_match` applies one.

Rules and the global steps check every precondition first and then change
the snapshot they are given.  Agent states are frozen and shared between
snapshots, so a rule that changes an agent puts a new state in place of
the old one.  Firing and receiving also mark the agent in `snap.active`.
`coordinate_step` runs the rules on one working copy per step, so it never
touches its input.  `run` yields each step's entry as the step ends and
keeps none of them.  What the step reads of the scenario (agent names,
task kinds, transitions by task, timed transitions, reacting inputs) comes
from tables each Scenario builds once, on first use.  Work done per agent
is redone only for a new state object: `find_matches` keeps each agent's
insert, effective-insert and delete matches per state object, and the
conformance check after each layer re-checks an agent's own state only for
a new one.  Its cross-agent checks count first and walk the messages, marks
or stamps only to name a fault the count found.
"""

from __future__ import annotations

import logging
import random
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .formula import Time, _bound_str, propositions
from .model import (
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
    """One binding of an environmental rule, named by `rule`."""

    rule: str
    agent: str | None = None
    input_kind: str | None = None
    message_id: int | None = None


def _require(condition: bool, message: str):
    if not condition:
        raise SimulationError(f"rule precondition violated: {message}")


# --- behavioural rule --------------------------------------------------------


def enabled(
    scenario: Scenario, snap: Snapshot, agent: str
) -> Iterator[tuple[TransitionDef, int | None]]:
    """Every behavioural match of one agent, in firing order: a transition,
    with the id of the message it consumes if its trigger is a message.

    An inactive agent may fire a transition out of its current task whose
    trigger holds: a spontaneous one out of an initial task, an input one
    while the input is held, a message one once per held message of its
    kind, and a timed one once its counter reaches the threshold.
    """
    state = snap.agents.get(agent)
    if state is None or agent in snap.active:
        return
    for t in scenario.outgoing[agent, state.task]:
        tag, value = t.trigger or (None, None)
        if tag == "input":
            if state.inputs.get(value, 0) > 0:
                yield t, None
        elif tag == "message":
            for ident in sorted(state.messages):
                if state.messages[ident].kind == value:
                    yield t, ident
        elif tag is None or snap.clock - snap.restarted[agent, t.ident] >= value:
            yield t, None


def fire_transition(scenario: Scenario, snap: Snapshot, agent: str,
                    transition: TransitionDef, message_id: int | None = None) -> None:
    """Fire a transition that `enabled` yields for agent: the one behavioural rule.

    The agent moves to the target task and becomes active, a message guard
    is consumed, a timed counter restarts, and the transition's messages go
    into transit.  Inputs are never consumed.
    """
    _require((transition, message_id) in enabled(scenario, snap, agent),
             f"({agent}, {transition.ident}, message {message_id}) is not enabled")
    state = snap.agents[agent]
    messages = state.messages
    if message_id is not None:
        messages = dict(messages)
        del messages[message_id]
    snap.agents[agent] = AgentState(transition.target, state.inputs, messages)
    snap.active.add(agent)
    if transition.is_timed:
        snap.restarted[agent, transition.ident] = snap.clock
    for kind, recipient in transition.sends:
        msg = snap.new_message(kind, agent, recipient)
        snap.in_transit[msg.ident] = msg


# --- environmental rules -----------------------------------------------------


def _count_input(snap: Snapshot, name: str, kind: str, change: int) -> None:
    """Replace agent name's state with one holding `change` more of kind."""
    state = snap.agents[name]
    inputs = {**state.inputs, kind: state.inputs.get(kind, 0) + change}
    if not inputs[kind]:
        del inputs[kind]
    snap.agents[name] = AgentState(state.task, inputs, state.messages)


def insert_input(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    _require(match.agent in snap.agents, f"unknown agent {match.agent!r}")
    _require(match.input_kind in scenario.input_kinds, f"unknown input {match.input_kind!r}")
    _count_input(snap, match.agent, match.input_kind, 1)


def insert_effective_input(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    _require(match.agent in snap.agents, f"unknown agent {match.agent!r}")
    task = snap.agents[match.agent].task
    _require(
        match.input_kind in scenario.reacting_inputs.get((match.agent, task), ()),
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
        state.task, state.inputs, {**state.messages, msg.ident: msg}
    )
    snap.active.add(msg.recipient)


# --- global rules ------------------------------------------------------------


def step_time(snap: Snapshot, delta: Time) -> None:
    """Advance the clock by delta; every timed counter, held as a restart
    stamp, advances with it."""
    if not delta > 0:
        raise SimulationError(f"time step must be positive, got {_bound_str(delta)}")
    snap.clock += delta


# --- matching ----------------------------------------------------------------

_RULES = {
    "insert_input": insert_input,
    "insert_effective_input": insert_effective_input,
    "delete_input": delete_input,
    "receive_message": receive_message,
}


def apply_match(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    """Apply one environmental match."""
    try:
        rule = _RULES[match.rule]
    except KeyError:
        raise SimulationError(f"unknown rule {match.rule!r}") from None
    return rule(scenario, snap, match)


def find_matches(scenario: Scenario, snap: Snapshot) -> list[RuleMatch]:
    """Every environmental match: by rule (insert, effective insert, delete,
    receive), then by agent, then by input kind or message id.

    An agent's insert, effective-insert and delete matches depend on its
    state alone, so they are kept per state object in
    `scenario.env_matches` and built again only for a new one."""
    memo = scenario.env_matches
    per_agent = []
    for name in sorted(snap.agents):
        state = snap.agents[name]
        entry = memo.get(name)
        if entry is None or entry[0] is not state:
            entry = memo[name] = (
                state,
                [RuleMatch("insert_input", name, kind) for kind in scenario.input_kinds],
                [RuleMatch("insert_effective_input", name, kind)
                 for kind in scenario.reacting_inputs.get((name, state.task), ())],
                [RuleMatch("delete_input", name, kind)
                 for kind in sorted(state.inputs) if state.inputs[kind] > 0],
            )
        per_agent.append(entry)
    matches = []
    for rule in (1, 2, 3):
        for entry in per_agent:
            matches += entry[rule]
    return matches + [RuleMatch("receive_message", message_id=ident)
                      for ident in sorted(snap.in_transit)]


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
            try:
                if answer.isdigit() and int(answer) < len(matches):
                    return matches[int(answer)]
            except ValueError:  # a digit int() does not read, or too many digits
                pass
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
    snapshot: Snapshot  # post-clearing: its active set is empty
    active: set[str]  # the agents the monitors saw active this step
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
    delta: Time,
) -> TraceEntry:
    """Run the five layers of step snap.seq + 1 on a working copy; snap is not changed."""
    work = snap.clone()
    step_no = work.seq = snap.seq + 1

    # layer 1: every inactive agent fires its first enabled transition.  A
    # fire changes only its own agent's task, mark, messages and counter, so
    # one sweep reaches the fixpoint.  Fires go by trigger rank, then by
    # agent name.
    firsts = [(name, *first) for name in scenario.agent_names
              if (first := next(enabled(scenario, work, name), None))]
    for name, t, message_id in sorted(firsts, key=lambda f: f[1].rank):
        log.debug("step %d layer 1: %s fires %s", step_no, name, t.ident)
        fire_transition(scenario, work, name, t, message_id)
    _assert_conformant(work, scenario, "behavioural")

    # layer 2: one environmental rule (or a no-op)
    choice = policy.choose(step_no, scenario, work, find_matches(scenario, work))
    if choice is not None:
        log.debug("step %d layer 2: %s", step_no, choice)
        apply_match(scenario, work, choice)
    _assert_conformant(work, scenario, "environmental")

    # layer 3: global passage of time
    step_time(work, delta)
    _assert_conformant(work, scenario, "time")

    # layer 4: monitor dispatch on the active agents
    verdicts = dispatch(work, monitors, bindings)

    # layer 5: clear all active marks
    active, work.active = work.active, set()
    _assert_conformant(work, scenario, "clear")

    return TraceEntry(work, active, verdicts)


def run(
    scenario: Scenario,
    monitors: list[MonitorState],
    bindings: BindingSet,
    policy,
    steps: int,
    delta: Time | None = None,
    early_stop: bool = True,
) -> Iterator[TraceEntry]:
    """Yield the entry of each of up to `steps` steps from the initial snapshot
    as the step ends, stepping the caller's monitors; with `early_stop`, stop
    once there are monitors and every one is final.  A monitor's property
    must bind every proposition it names: ScenarioError otherwise."""
    if steps < 1:
        raise SimulationError(f"steps must be >= 1, got {steps}")
    for monitor in monitors:
        unbound = sorted(propositions(monitor.prop.body) - bindings.keys())
        if unbound:
            raise ScenarioError(
                f"property names proposition {unbound[0]!r}, which has no binding"
            )
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
