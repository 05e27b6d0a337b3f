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
lists the matches of all four, and `apply_match` applies one.  A rule's
precondition is that its match is listed: `fire_transition` refuses what
`enabled` does not yield, and `apply_match` refuses, with one message that
names the match, what `find_matches` does not list.  A schedule entry names
the rule it applies (`ScheduleEntry.rule`, None for `noop`) in the syntax
that `SCHEDULE_RULES` gives that rule.

Rules and the global steps check their precondition first and then change
the snapshot they are given.  Agent states are frozen and shared between
snapshots, so a rule that changes an agent puts a new state in place of
the old one.  Firing and receiving also mark the agent in `snap.active`.
`coordinate_step` runs the rules on one working copy per step, so it never
touches its input.  `run` yields each step's entry as the step ends and
keeps none of them.  What the step reads of the scenario (agent names,
task kinds, transitions by task, timed transitions, reacting inputs) comes
from tables each Scenario builds once, on first use.  A step pays for what
it changed: layer 1 probes only the agents whose task has outgoing
transitions, per-agent work is redone only for a new state object (the
matches that `find_matches` and `apply_match` share, the conformance
check's own-state checks, the writer's text), and the cross-agent checks
count before they walk, message ids only where two holders hold any.
"""

from __future__ import annotations

import logging
import random
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .formula import NAME, Time, _bound_str
from .model import (
    AgentState,
    BindingSet,
    Scenario,
    ScenarioError,
    Snapshot,
    TransitionDef,
    check_conformance,
    check_names,
    content_lines,
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
    if (transition, message_id) not in enabled(scenario, snap, agent):
        raise SimulationError(f"rule precondition violated: ({agent}, {transition.ident}, "
                              f"message {message_id}) is not enabled")
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


def _agent_matches(scenario: Scenario, snap: Snapshot, name: str) -> tuple:
    """(state, inserts, effective inserts, deletes) of agent name: its entry
    in `scenario.env_matches`, built again only for a new state object, which
    keeps the entry's inserts, and its effective inserts at the same task."""
    state = snap.agents[name]
    entry = scenario.env_matches.get(name)
    if entry is None or entry[0] is not state:
        inserts = entry[1] if entry else [RuleMatch("insert_input", name, kind)
                                          for kind in scenario.input_kinds]
        effective = entry[2] if entry and entry[0].task == state.task else [
            RuleMatch("insert_effective_input", name, kind)
            for kind in scenario.reacting_inputs.get((name, state.task), ())]
        entry = scenario.env_matches[name] = (state, inserts, effective, [
            RuleMatch("delete_input", name, kind)
            for kind in sorted(state.inputs) if state.inputs[kind] > 0])
    return entry


# input rule -> its place in an `_agent_matches` entry
_INPUT_RULES = {"insert_input": 1, "insert_effective_input": 2, "delete_input": 3}


def apply_match(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    """Apply one environmental match, which must equal one that
    `find_matches(scenario, snap)` lists.

    An input rule adds or takes one input of the agent's; receiving moves
    the message from transit to its recipient, which becomes active."""
    rule, name, kind, ident = match
    if rule == "receive_message":
        listed = ident in snap.in_transit and match == RuleMatch(rule, message_id=ident)
    else:
        place = _INPUT_RULES.get(rule)
        listed = (place is not None and name in snap.agents
                  and match in _agent_matches(scenario, snap, name)[place])
    if not listed:
        raise SimulationError(f"rule precondition violated: find_matches lists no {match}")
    if rule == "receive_message":
        msg = snap.in_transit.pop(ident)
        state = snap.agents[msg.recipient]
        snap.agents[msg.recipient] = AgentState(state.task, state.inputs,
                                                {**state.messages, msg.ident: msg})
        snap.active.add(msg.recipient)
    else:
        state = snap.agents[name]
        count = state.inputs.get(kind, 0) + (-1 if rule == "delete_input" else 1)
        inputs = {**state.inputs, kind: count}
        if not count:
            del inputs[kind]
        snap.agents[name] = AgentState(state.task, inputs, state.messages)


def find_matches(scenario: Scenario, snap: Snapshot) -> list[RuleMatch]:
    """Every environmental match, in one list: by rule (insert, effective
    insert, delete, receive), then by agent, then by input kind or message
    id.  An agent's input matches come from `_agent_matches`."""
    per_agent = [_agent_matches(scenario, snap, name) for name in sorted(snap.agents)]
    matches = []
    for place in _INPUT_RULES.values():
        for entry in per_agent:
            matches += entry[place]
    if snap.in_transit:
        matches += [RuleMatch("receive_message", message_id=i) for i in sorted(snap.in_transit)]
    return matches


# --- global rules ------------------------------------------------------------


def step_time(snap: Snapshot, delta: Time) -> None:
    """Advance the clock by delta; every timed counter, held as a restart
    stamp, advances with it."""
    if not delta > 0:
        raise SimulationError(f"time step must be positive, got {_bound_str(delta)}")
    snap.clock += delta


# --- environment policies ----------------------------------------------------


@dataclass(frozen=True)
class ScheduleEntry:
    rule: str | None = None  # the `RuleMatch` rule it applies; None for `noop`
    kind: str | None = None
    agent: str | None = None
    sender: str | None = None
    recipient: str | None = None


def _syntax(text: str) -> re.Pattern:
    """An entry's syntax, `{field}` standing for a name and a blank for blanks."""
    return re.compile(text.replace("{", "(?P<").replace("}", f">{NAME})").replace(" ", r"\s+"))


# rule -> (the syntax of an entry that applies it, the error when the listed
# matches lack the one it names); None is `noop`, which applies no rule
SCHEDULE_RULES = {
    "insert_input": (_syntax("insert {kind} into {agent}"),
                     "insert of {kind} into {agent} does not match"),
    "insert_effective_input": (_syntax("insert! {kind} into {agent}"),
                               "effective insert of {kind} into {agent} does not match"),
    "delete_input": (_syntax("delete {kind} from {agent}"), "{agent} holds no {kind} to delete"),
    "receive_message": (_syntax("receive {kind} from {sender} at {recipient}"),
                        "no in-transit {kind} from {sender} to {recipient}"),
    None: (_syntax("noop"), None),
}


class ScriptedPolicy:
    """Replays a step-indexed schedule of environmental rules: each step's
    choice is the first listed match that its entry names.  Every name in
    the schedule is checked when a scenario is first seen, before its step's
    choice."""

    def __init__(self, schedule: dict[int, ScheduleEntry]):
        self.schedule = schedule
        self.checked_for = None

    def choose(self, step_no, scenario, snap, matches):
        if scenario is not self.checked_for:
            check_schedule(self.schedule, scenario)
            self.checked_for = scenario
        entry = self.schedule.get(step_no)
        if entry is None or entry.rule is None:
            return None
        for m in matches:
            if m.rule != entry.rule:
                continue
            if m.message_id is None:
                named = (m.input_kind, m.agent) == (entry.kind, entry.agent)
            else:
                msg = snap.in_transit[m.message_id]
                named = ((msg.kind, msg.sender, msg.recipient)
                         == (entry.kind, entry.sender, entry.recipient))
            if named:
                return m
        missing = SCHEDULE_RULES[entry.rule][1]
        raise SimulationError(f"step {step_no}: " + missing.format(**vars(entry)))


class SeededPolicy:
    """Uniform choice over all environmental matches plus an explicit no-op."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def choose(self, step_no, scenario, snap, matches):
        """One index drawn over the matches and one past them, the no-op."""
        pick = self.rng.randrange(len(matches) + 1)
        return matches[pick] if pick < len(matches) else None


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


_AT_RE = re.compile(r"at\s+(\d+)\s*:\s*(.*)$")


def parse_schedule(text: str) -> dict[int, ScheduleEntry]:
    """Parse `at <step>: <entry>` lines; steps start at 1 and strictly increase."""
    schedule: dict[int, ScheduleEntry] = {}
    last_step = 0
    for lineno, line in content_lines(text):
        m = _AT_RE.match(line.strip())
        if not m:
            raw = text.splitlines()[lineno - 1]
            raise ScenarioError(f"line {lineno}: cannot parse schedule entry {raw!r}")
        try:
            step = int(m.group(1))
        except ValueError as exc:  # more digits than int() takes
            raise ScenarioError(f"line {lineno}: invalid step: {exc}") from None
        if step < 1:
            raise ScenarioError(f"line {lineno}: schedule steps start at 1")
        if step <= last_step:
            raise ScenarioError(f"line {lineno}: schedule steps must strictly increase")
        last_step = step
        entry_text = m.group(2).strip()
        for rule, (syntax, _) in SCHEDULE_RULES.items():
            if named := syntax.fullmatch(entry_text):
                schedule[step] = ScheduleEntry(rule, **named.groupdict())
                break
        else:
            raise ScenarioError(f"line {lineno}: unknown action {entry_text!r}")
    return schedule


def check_schedule(schedule: dict[int, ScheduleEntry], scenario: Scenario) -> None:
    """ScenarioError naming the step of the first entry whose input or message
    kind, agent, sender or recipient (in that order) the scenario lacks;
    SimulationError for an entry whose rule has no schedule syntax."""
    declared = scenario.declared
    for step, e in schedule.items():
        if e.rule not in SCHEDULE_RULES:
            raise SimulationError(f"step {step}: unknown rule {e.rule!r}")
        of = "message" if e.rule == "receive_message" else "input"
        for what, name, role in ((of, e.kind, of), ("agent", e.agent, "agent"),
                                 ("sender", e.sender, "agent"),
                                 ("recipient", e.recipient, "agent")):
            if name is not None and name not in declared[role]:
                raise ScenarioError(f"step {step}: unknown {what} {name!r}")


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
    outgoing, agents = scenario.outgoing, work.agents
    firsts = [(name, *first) for name in scenario.agent_names
              if (state := agents.get(name)) and outgoing[name, state.task]
              and (first := next(enabled(scenario, work, name), None))]
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
    once there are monitors and every one is final.  A name in the properties
    or bindings that does not resolve is ScenarioError before the first step."""
    if steps < 1:
        raise SimulationError(f"steps must be >= 1, got {steps}")
    check_names([m.prop for m in monitors], bindings, scenario)
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
