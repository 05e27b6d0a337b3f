"""Simulation rules and the layered coordination algorithm.

Each step runs five layers: behavioural rules to a fixpoint, one
environmental rule chosen by the policy, the time step, monitor dispatch,
and clearing of active marks.  Rules and the global steps check every
precondition first and then change the snapshot they are given in place.
`coordinate_step` runs them on one working copy per step, so it never
touches its input snapshot.
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .model import (
    BindingSet,
    Scenario,
    ScenarioError,
    Snapshot,
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


@dataclass(frozen=True)
class RuleMatch:
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


# --- behavioural rules -------------------------------------------------------


def _do_sends(snap: Snapshot, sender: str, sends) -> None:
    for kind, recipient in sends:
        msg = snap.new_message(kind, sender, recipient)
        snap.in_transit[msg.ident] = msg


def fire_initial_transition(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    state = snap.agents[match.agent]
    tr = scenario.transition(match.agent, match.transition)
    kind = scenario.agent(match.agent).task_kind(state.task)
    _require(not state.active, f"{match.agent} already active")
    _require(kind in scenario.initial_kinds(), f"{match.agent} not at an initial task")
    _require(tr.source == state.task and tr.trigger is None, "not an initial transition")
    state.task = tr.target
    state.active = True
    _do_sends(snap, match.agent, tr.sends)


def fire_transition_with_input(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    state = snap.agents[match.agent]
    tr = scenario.transition(match.agent, match.transition)
    _require(not state.active, f"{match.agent} already active")
    _require(tr.source == state.task, f"{match.agent} not at {tr.source}")
    _require(tr.trigger is not None and tr.trigger[0] == "input", "not an input transition")
    kind = tr.trigger[1]
    _require(state.inputs.get(kind, 0) > 0, f"{match.agent} holds no {kind}")
    state.task = tr.target
    state.active = True
    # inputs are never consumed by firing
    _do_sends(snap, match.agent, tr.sends)


def fire_transition_with_guard(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    state = snap.agents[match.agent]
    tr = scenario.transition(match.agent, match.transition)
    _require(not state.active, f"{match.agent} already active")
    _require(tr.source == state.task, f"{match.agent} not at {tr.source}")
    _require(
        tr.trigger is not None and tr.trigger[0] == "message",
        "not a message-guarded transition",
    )
    kind = tr.trigger[1]
    held = [i for i, m in state.messages.items() if m.kind == kind]
    _require(bool(held), f"{match.agent} holds no {kind} message")
    consumed = match.message_id if match.message_id is not None else min(held)
    _require(consumed in held, f"message {consumed} not held as a {kind} guard")
    state.task = tr.target
    state.active = True
    del state.messages[consumed]  # the guard is consumed
    _do_sends(snap, match.agent, tr.sends)


def fire_transition_with_timed_guard(
    scenario: Scenario, snap: Snapshot, match: RuleMatch
) -> None:
    state = snap.agents[match.agent]
    tr = scenario.transition(match.agent, match.transition)
    _require(not state.active, f"{match.agent} already active")
    _require(tr.source == state.task, f"{match.agent} not at {tr.source}")
    _require(tr.is_timed, "not a timed transition")
    threshold = tr.trigger[1]
    elapsed = snap.elapsed[(match.agent, match.transition)]
    _require(elapsed >= threshold, f"elapsed {elapsed} below threshold {threshold}")
    state.task = tr.target
    state.active = True
    snap.elapsed[(match.agent, match.transition)] = Fraction(0)
    _do_sends(snap, match.agent, tr.sends)


# --- environmental rules -----------------------------------------------------


def insert_input(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    _require(match.agent in snap.agents, f"unknown agent {match.agent!r}")
    _require(match.input_kind in scenario.input_kinds, f"unknown input {match.input_kind!r}")
    snap.agents[match.agent].inputs[match.input_kind] += 1


def insert_effective_input(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    _require(match.agent in snap.agents, f"unknown agent {match.agent!r}")
    state = snap.agents[match.agent]
    triggered = any(
        t.source == state.task and t.trigger == ("input", match.input_kind)
        for t in scenario.agent(match.agent).transitions
    )
    _require(
        triggered,
        f"no transition out of {state.task!r} reacts to input {match.input_kind!r}",
    )
    insert_input(scenario, snap, match)


def delete_input(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    _require(match.agent in snap.agents, f"unknown agent {match.agent!r}")
    state = snap.agents[match.agent]
    _require(
        state.inputs.get(match.input_kind, 0) > 0,
        f"{match.agent} holds no {match.input_kind}",
    )
    state.inputs[match.input_kind] -= 1
    if state.inputs[match.input_kind] == 0:
        del state.inputs[match.input_kind]


def receive_message(scenario: Scenario, snap: Snapshot, match: RuleMatch) -> None:
    msg = snap.in_transit.get(match.message_id)
    _require(msg is not None, f"no in-transit message {match.message_id}")
    del snap.in_transit[match.message_id]
    recipient = snap.agents[msg.recipient]
    recipient.messages[msg.ident] = msg
    recipient.active = True


# --- global rules ------------------------------------------------------------


def step_time(snap: Snapshot, delta: Fraction) -> None:
    """Advance the clock and every timed-guard counter by delta."""
    if not delta > 0:
        raise SimulationError(f"time step must be positive, got {delta}")
    snap.clock += delta
    for key in snap.elapsed:
        snap.elapsed[key] += delta


def remove_active_marks(snap: Snapshot) -> None:
    for state in snap.agents.values():
        state.active = False


# --- matching ----------------------------------------------------------------

_RULES = {
    "fire_initial_transition": fire_initial_transition,
    "fire_transition_with_input": fire_transition_with_input,
    "fire_transition_with_guard": fire_transition_with_guard,
    "fire_transition_with_timed_guard": fire_transition_with_timed_guard,
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
    if rule == "fire_initial_transition":
        initial = scenario.initial_kinds()
        for name in agents:
            state = snap.agents[name]
            if state.active:
                continue
            if scenario.agent(name).task_kind(state.task) not in initial:
                continue
            for t in sorted(scenario.agent(name).transitions, key=lambda t: t.ident):
                if t.source == state.task and t.trigger is None:
                    matches.append(RuleMatch(rule, agent=name, transition=t.ident))
    elif rule == "fire_transition_with_input":
        for name in agents:
            state = snap.agents[name]
            if state.active:
                continue
            for t in sorted(scenario.agent(name).transitions, key=lambda t: t.ident):
                if (
                    t.source == state.task
                    and t.trigger is not None
                    and t.trigger[0] == "input"
                    and state.inputs.get(t.trigger[1], 0) > 0
                ):
                    matches.append(
                        RuleMatch(rule, agent=name, transition=t.ident,
                                  input_kind=t.trigger[1])
                    )
    elif rule == "fire_transition_with_guard":
        for name in agents:
            state = snap.agents[name]
            if state.active:
                continue
            for t in sorted(scenario.agent(name).transitions, key=lambda t: t.ident):
                if t.source == state.task and t.trigger is not None and t.trigger[0] == "message":
                    for ident in sorted(state.messages):
                        if state.messages[ident].kind == t.trigger[1]:
                            matches.append(
                                RuleMatch(rule, agent=name, transition=t.ident,
                                          message_id=ident)
                            )
    elif rule == "fire_transition_with_timed_guard":
        for name in agents:
            state = snap.agents[name]
            if state.active:
                continue
            for t in sorted(scenario.agent(name).transitions, key=lambda t: t.ident):
                if (
                    t.source == state.task
                    and t.is_timed
                    and snap.elapsed[(name, t.ident)] >= t.trigger[1]
                ):
                    matches.append(RuleMatch(rule, agent=name, transition=t.ident))
    elif rule == "insert_input":
        for name in agents:
            for kind in scenario.input_kinds:
                matches.append(RuleMatch(rule, agent=name, input_kind=kind))
    elif rule == "insert_effective_input":
        for name in agents:
            state = snap.agents[name]
            kinds = []
            for t in scenario.agent(name).transitions:
                if (
                    t.source == state.task
                    and t.trigger is not None
                    and t.trigger[0] == "input"
                    and t.trigger[1] not in kinds
                ):
                    kinds.append(t.trigger[1])
            for kind in kinds:
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

    def __init__(self, schedule: dict[int, ScheduleEntry], strict: bool = False):
        self.schedule = schedule
        self.strict = strict

    def choose(self, step_no, scenario, snap, matches):
        entry = self.schedule.get(step_no)
        if entry is None:
            if self.strict:
                raise SimulationError(f"no scripted action for step {step_no}")
            return None
        if entry.action == "noop":
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


class InteractivePolicy:
    """Debug affordance: prompt on stdin with the numbered match list."""

    def __init__(self, input_fn=input, print_fn=print):
        self.input_fn = input_fn
        self.print_fn = print_fn

    def choose(self, step_no, scenario, snap, matches):
        self.print_fn(f"step {step_no}: environmental choices")
        for i, m in enumerate(matches):
            self.print_fn(f"  [{i}] {m}")
        self.print_fn("  [n] no-op")
        while True:
            answer = self.input_fn("> ").strip()
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
        step = int(m.group(1))
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


@dataclass
class RunTrace:
    entries: list[TraceEntry] = field(default_factory=list)
    status: str = "completed"
    monitors: list[MonitorState] = field(default_factory=list)


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
    step_no: int,
) -> TraceEntry:
    """Run the five layers on one working copy of snap; snap is not changed."""
    work = snap.clone()
    work.seq = snap.seq + 1

    # layer 1: behavioural rules to a fixpoint
    fires = 0
    bound = len(scenario.agents)
    while True:
        match = None
        for rule in BEHAVIOURAL_RULES:
            found = find_matches(rule, scenario, work)
            if found:
                match = found[0]
                break
        if match is None:
            break
        log.debug("step %d layer 1: %s", step_no, match)
        apply_match(scenario, work, match)
        fires += 1
        if fires > bound:
            raise EngineInvariantError(
                f"behavioural layer fired more than {bound} times"
            )
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
    properties,
    bindings: BindingSet,
    policy,
    steps: int,
    delta: Fraction | None = None,
    early_stop: bool = True,
    prophecy_includes_now: bool = False,
) -> RunTrace:
    """Simulate `steps` coordination steps from the initial snapshot."""
    if steps < 1:
        raise SimulationError(f"steps must be >= 1, got {steps}")
    if delta is None:
        delta = scenario.timestep
    monitors = [
        MonitorState(p, prophecy_includes_now=prophecy_includes_now)
        for p in properties
    ]
    trace = RunTrace(monitors=monitors)
    snap = init_snapshot(scenario)
    _assert_conformant(snap, scenario, "init")
    for step_no in range(1, steps + 1):
        entry = coordinate_step(
            scenario, snap, policy, monitors, bindings, delta, step_no
        )
        trace.entries.append(entry)
        snap = entry.snapshot
        if early_stop and monitors and all(m.is_final for m in monitors):
            trace.status = "early-stop"
            break
    return trace
