"""Workflow data model: scenario definitions, runtime snapshots, bindings.

A Scenario is the static definition (task/input/message kinds, agents,
transitions, timestep).  A Snapshot is one global runtime state.  It maps
agent names to frozen AgentState values that snapshots share, so a copy is
a new dict and a change to one agent replaces its entry.  Beside them it
holds the set of agents marked active this step, and for each timed
transition the clock time (a `formula.Time`) its counter last restarted.
Bindings tie proposition names to predicate templates over snapshots, which
is how monitored formulas observe the simulation; one table gives each
template its argument roles and its predicate.  Scenario and bindings text
are read by the lexical rules of `formula`, and scenario text through the
formula parser's token cursor, `formula.Cursor`.

The typing hierarchy is fixed at three levels: the language concepts are
hard-coded here, kinds are declared per scenario, and snapshots hold the
runtime instances.  check_conformance verifies the full chain.  It skips
the per-agent checks of a (frozen) state object it has found conformant
before, and its cross-agent checks count before they walk.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

from .formula import (NAME, NAMES, Cursor, FormulaError, Property, Time, _bound_str,
                      propositions, scan, time_str)


class ScenarioError(ValueError):
    """Malformed scenario or bindings text, or an inconsistent definition."""


# --- static definitions ------------------------------------------------------

# trigger encodings: None, ("input", kind), ("message", kind), ("after", time)
Trigger = tuple | None
# trigger tags in firing precedence; None is a spontaneous (initial) transition
TRIGGER_TAGS = (None, "input", "message", "after")


@dataclass(frozen=True)
class TransitionDef:
    ident: str
    source: str
    target: str
    trigger: Trigger = None
    sends: tuple[tuple[str, str], ...] = ()  # (message kind, recipient agent)

    @property
    def is_timed(self) -> bool:
        return self.trigger is not None and self.trigger[0] == "after"

    @property
    def rank(self) -> int:
        """Firing precedence: the trigger tag's place in TRIGGER_TAGS."""
        return TRIGGER_TAGS.index(self.trigger and self.trigger[0])


@dataclass(frozen=True)
class AgentDef:
    name: str
    tasks: tuple[tuple[str, str], ...]  # (task id, task kind)
    transitions: tuple[TransitionDef, ...] = ()


@dataclass(frozen=True)
class Scenario:
    name: str
    task_kinds: tuple[tuple[str, bool], ...]  # (kind name, initial-capable)
    input_kinds: tuple[str, ...]
    message_kinds: tuple[str, ...]
    agents: tuple[AgentDef, ...]
    timestep: Time = 1

    def agent(self, name: str) -> AgentDef:
        for a in self.agents:
            if a.name == name:
                return a
        raise ScenarioError(f"unknown agent {name!r}")

    def initial_kinds(self) -> set[str]:
        return {kind for kind, initial in self.task_kinds if initial}

    def initial_task(self, agent_name: str) -> str:
        initial = self.initial_kinds()
        for ident, kind in self.agent(agent_name).tasks:
            if kind in initial:
                return ident
        raise ScenarioError(f"agent {agent_name!r} has no initial task")

    @cached_property
    def outgoing(self) -> dict[tuple[str, str], tuple[TransitionDef, ...]]:
        """(agent, task) -> the transitions that can fire there, in firing order.

        The order is by trigger tag, as in TRIGGER_TAGS, and then by id.  A
        spontaneous transition fires only out of an initial task, so it is
        listed only there.
        """
        initial = self.initial_kinds()
        return {
            (a.name, task): tuple(sorted(
                (t for t in a.transitions
                 if t.source == task and (t.trigger is not None or kind in initial)),
                key=lambda t: (t.rank, t.ident),
            ))
            for a in self.agents
            for task, kind in a.tasks
        }

    @cached_property
    def conformant_states(self) -> dict[str, AgentState]:
        """agent -> the last state object check_conformance found with no
        per-agent violation (held, so an identity match is exact)."""
        return {}

    @cached_property
    def env_matches(self) -> dict[str, tuple]:
        """agent -> (the last state object `engine.find_matches` or
        `engine.apply_match` saw, and the agent's insert, effective-insert
        and delete matches in that state)."""
        return {}

    # Tables the step reads, derived once: a Scenario never changes.

    @cached_property
    def agent_names(self) -> tuple[str, ...]:
        """The declared agent names, sorted."""
        return tuple(sorted(a.name for a in self.agents))

    @cached_property
    def agent_set(self) -> frozenset[str]:
        return frozenset(self.agent_names)

    @cached_property
    def task_kind_of(self) -> dict[str, dict[str, str]]:
        """agent -> task -> task kind."""
        return {a.name: dict(a.tasks) for a in self.agents}

    @cached_property
    def declared(self) -> dict[str, tuple[str, ...]]:
        """role -> the names declared in it, in declaration order: "task"
        (the task kinds), "input" and "message" (kinds) and "agent"."""
        return {"task": tuple(k for k, _ in self.task_kinds), "input": self.input_kinds,
                "message": self.message_kinds, "agent": tuple(a.name for a in self.agents)}

    @cached_property
    def timed_keys(self) -> dict[tuple[str, str], None]:
        """(agent, transition) of every timed transition, in declaration order
        (a dict used as an ordered set)."""
        return {(a.name, t.ident): None for a in self.agents
                for t in a.transitions if t.is_timed}

    @cached_property
    def reacting_inputs(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """(agent, task) -> the input kinds that transitions out of the task
        react to, in transition declaration order."""
        return {
            (a.name, task): tuple(dict.fromkeys(
                t.trigger[1] for t in a.transitions
                if t.source == task and t.trigger is not None and t.trigger[0] == "input"
            ))
            for a in self.agents
            for task, _ in a.tasks
        }


def _refuse_duplicates(names, what: str, where: str = "") -> None:
    """ScenarioError naming the first of `names` that occurs more than once."""
    dupes = [n for n, c in Counter(names).items() if c > 1]
    if dupes:
        raise ScenarioError(f"duplicate {what} {dupes[0]!r}{where}")


def validate_scenario(s: Scenario) -> None:
    """Check the structural invariants; raise ScenarioError on the first."""
    declared = s.declared
    for role, names in declared.items():
        _refuse_duplicates(names, role if role == "agent" else f"{role} kind")
    initial = s.initial_kinds()
    for a in s.agents:
        ids = [ident for ident, _ in a.tasks]
        _refuse_duplicates(ids, "task id", f" in agent {a.name}")
        for ident, kind in a.tasks:
            if kind not in declared["task"]:
                raise ScenarioError(
                    f"task {a.name}.{ident} has undeclared kind {kind!r}"
                )
        starts = [ident for ident, kind in a.tasks if kind in initial]
        if len(starts) != 1:
            raise ScenarioError(
                f"agent {a.name} must have exactly one initial task, has {len(starts)}"
            )
        _refuse_duplicates([t.ident for t in a.transitions], "transition id",
                           f" in agent {a.name}")
        seen_triggers = set()
        for t in a.transitions:
            for endpoint in (t.source, t.target):
                if endpoint not in ids:
                    raise ScenarioError(
                        f"transition {a.name}.{t.ident} references undeclared task "
                        f"{endpoint!r}"
                    )
            key = (t.source, t.trigger)
            if key in seen_triggers:
                raise ScenarioError(
                    f"agent {a.name}: more than one transition out of {t.source!r} "
                    f"with trigger {t.trigger!r}"
                )
            seen_triggers.add(key)
            # `after T` needs a positive T; `on <tag> K`, a K declared as a <tag>
            tag, value = t.trigger or (None, None)
            if tag == "after" and not value > 0:
                raise ScenarioError(f"transition {a.name}.{t.ident} has non-positive threshold")
            if tag not in (None, "after") and value not in declared[tag]:
                raise ScenarioError(
                    f"transition {a.name}.{t.ident} uses undeclared {tag} {value!r}")
            for kind, recipient in t.sends:
                if kind not in declared["message"]:
                    raise ScenarioError(
                        f"transition {a.name}.{t.ident} sends undeclared message "
                        f"{kind!r}"
                    )
                if recipient not in declared["agent"]:
                    raise ScenarioError(
                        f"transition {a.name}.{t.ident} sends to undeclared agent "
                        f"{recipient!r}"
                    )
    if s.timestep <= 0:
        raise ScenarioError("timestep must be positive")


# --- runtime snapshots -------------------------------------------------------


@dataclass(frozen=True)
class Message:
    """One message instance; the id makes containment trackable."""

    ident: int
    kind: str
    sender: str
    recipient: str


@dataclass(frozen=True)
class AgentState:
    """One agent's state, shared by snapshots: no code writes its dicts."""

    task: str
    inputs: dict[str, int] = field(default_factory=dict)  # input kind -> count
    messages: dict[int, Message] = field(default_factory=dict)


@dataclass
class Snapshot:
    clock: Time
    agents: dict[str, AgentState]
    in_transit: dict[int, Message] = field(default_factory=dict)
    restarted: dict[tuple[str, str], Time] = field(default_factory=dict)
    active: set[str] = field(default_factory=set)  # agents marked this step
    seq: int = 0
    next_message_id: int = 0

    def clone(self) -> "Snapshot":
        """A working copy: new containers, the same (shared) agent states."""
        return Snapshot(self.clock, dict(self.agents), dict(self.in_transit),
                        dict(self.restarted), set(self.active), self.seq,
                        self.next_message_id)

    def new_message(self, kind: str, sender: str, recipient: str) -> Message:
        msg = Message(self.next_message_id, kind, sender, recipient)
        self.next_message_id += 1
        return msg


def init_snapshot(s: Scenario) -> Snapshot:
    """Fresh runtime state: clock zero, everyone at their initial task."""
    return Snapshot(
        clock=0,
        agents={a.name: AgentState(task=s.initial_task(a.name)) for a in s.agents},
        restarted=dict.fromkeys(s.timed_keys, 0),
    )


def check_conformance(snap: Snapshot, s: Scenario) -> list[str]:
    """Return every invariant violation (empty list means conformant).

    The per-agent checks skip a state object found conformant before (see
    `Scenario.conformant_states`).  The cross-agent checks count first and
    walk only to name what they found: the message ids are counted only
    when two holders (agents or transit) hold messages, and walked when
    there are fewer distinct ids than messages; the active marks are walked
    when some mark is not on a declared agent, and the restart stamps when
    their keys are not the timed transitions or the latest stamp is after
    the clock.
    """
    violations = []
    if snap.clock < 0:
        violations.append(f"clock is negative: {_bound_str(snap.clock)}")
    declared_agents = s.agent_set
    if snap.agents.keys() != declared_agents:
        violations.append(
            f"snapshot agents {sorted(snap.agents)} do not match scenario agents "
            f"{list(s.agent_names)}"
        )
    declared = s.declared
    task_kind_of = s.task_kind_of
    checked = s.conformant_states
    holders = []  # the non-empty message dicts: the agents', then transit
    for name, state in snap.agents.items():
        if state.messages:
            holders.append(state.messages)
        if checked.get(name) is state or name not in declared_agents:
            continue
        found = len(violations)
        kind = task_kind_of[name].get(state.task)
        if kind is None:
            violations.append(f"agent {name} is at undeclared task {state.task!r}")
        elif kind not in declared["task"]:
            violations.append(
                f"agent {name}: task {state.task!r} has undeclared kind {kind!r}"
            )
        for input_kind, count in state.inputs.items():
            if input_kind not in declared["input"]:
                violations.append(f"agent {name} holds undeclared input {input_kind!r}")
            if count < 0:
                violations.append(f"agent {name}: negative input count for {input_kind!r}")
        for msg in state.messages.values():
            if msg.kind not in declared["message"]:
                violations.append(f"agent {name} holds undeclared message {msg.kind!r}")
            if msg.sender not in declared_agents:
                violations.append(
                    f"message {msg.ident} has undeclared sender {msg.sender!r}"
                )
        if len(violations) == found:
            checked[name] = state
    for msg in snap.in_transit.values():
        if msg.kind not in declared["message"]:
            violations.append(f"in-transit message of undeclared kind {msg.kind!r}")
        if msg.recipient not in declared_agents or msg.sender not in declared_agents:
            violations.append(f"in-transit message {msg.ident} has undeclared endpoints")
    # exclusive containment: the ids are distinct unless two holders share one
    if snap.in_transit:
        holders.append(snap.in_transit)
    if len(holders) > 1 and len(set().union(*holders)) != sum(map(len, holders)):
        seen = dict.fromkeys(snap.in_transit, "system")
        for name, state in snap.agents.items():
            for ident in state.messages:
                if ident in seen:
                    violations.append(
                        f"message {ident} contained by both {seen[ident]} and agent {name}"
                    )
                else:
                    seen[ident] = f"agent {name}"
    if not snap.active <= declared_agents:
        for name in sorted(snap.active - declared_agents):
            violations.append(f"active mark on undeclared agent {name!r}")
    timed = s.timed_keys
    if (snap.restarted.keys() != timed.keys()
            or timed and max(snap.restarted.values()) > snap.clock):
        for key, stamp in snap.restarted.items():
            if key not in timed:
                violations.append(f"restart stamp for non-timed transition {key}")
            if stamp > snap.clock:
                violations.append(f"restart stamp {_bound_str(stamp)} on transition {key} "
                                  "is after the clock")
        for key in timed:
            if key not in snap.restarted:
                violations.append(f"missing restart stamp for timed transition {key}")
    return violations


# --- proposition bindings ----------------------------------------------------

_ABSENT = AgentState(None)  # what a binding reads of an agent the snapshot lacks

# template -> (its argument roles, in order; its truth in a snapshot, given
# its arguments)
_TEMPLATES = {
    "task_current": (("agent", "task"), lambda snap, agent, task:
                     snap.agents.get(agent, _ABSENT).task == task),
    "input_present": (("agent", "input"), lambda snap, agent, kind:
                      snap.agents.get(agent, _ABSENT).inputs.get(kind, 0) > 0),
    "message_held": (("agent", "message"), lambda snap, agent, kind: any(
        m.kind == kind for m in snap.agents.get(agent, _ABSENT).messages.values())),
    "message_in_transit": (("message", "agent", "agent"), lambda snap, kind, sender, to: any(
        m.kind == kind and m.sender == sender and m.recipient == to
        for m in snap.in_transit.values())),
    "agent_active": (("agent",), lambda snap, agent: agent in snap.active),
}


@dataclass(frozen=True)
class Binding:
    template: str
    args: tuple[str, ...]

    def __post_init__(self):
        if self.template not in _TEMPLATES:
            raise ScenarioError(f"unknown binding template {self.template!r}")
        if len(self.args) != len(self.roles):
            raise ScenarioError(
                f"{self.template} takes {len(self.roles)} arguments, got {len(self.args)}")

    @property
    def roles(self) -> tuple[str, ...]:
        """Each argument's role, in order."""
        return _TEMPLATES[self.template][0]

    @property
    def agents(self) -> tuple[str, ...]:
        """The agents whose state the predicate reads."""
        return tuple(a for role, a in zip(self.roles, self.args) if role == "agent")


BindingSet = dict[str, Binding]


def eval_binding(b: Binding, snap: Snapshot) -> bool:
    """Truth of one predicate template against a snapshot."""
    return _TEMPLATES[b.template][1](snap, *b.args)


def validate_bindings(bindings: BindingSet, s: Scenario) -> None:
    """Every name a binding references must exist in the scenario: its agents
    first, then its other arguments in order.  A task is one of its agent's."""
    for prop, b in bindings.items():
        for role, name in sorted(zip(b.roles, b.args), key=lambda arg: arg[0] != "agent"):
            task = role == "task"
            if name not in (s.task_kind_of[b.args[0]] if task else s.declared[role]):
                what = f"task {b.args[0]}.{name}" if task else f"{role} {name!r}"
                raise ScenarioError(f"binding {prop!r} references unknown {what}")


def check_names(properties: list[Property], bindings: BindingSet | None,
                scenario: Scenario | None = None, lines: list[int] | None = None) -> None:
    """ScenarioError on the first name that does not resolve: a property's
    proposition with no binding, then a binding's name the scenario lacks
    (`validate_bindings`), then a property's agent it lacks.  A check runs
    only given what it needs; `lines` prefixes an unbound one's line."""
    for i, prop in enumerate(properties if bindings is not None else ()):
        unbound = sorted(propositions(prop.body) - bindings.keys())
        if unbound:
            where = f"line {lines[i]}: " if lines else ""
            raise ScenarioError(f"{where}property names proposition {unbound[0]!r}, "
                                "which has no binding")
    if scenario is not None:
        validate_bindings(bindings or {}, scenario)
        for prop in properties:
            if prop.agent not in scenario.agent_set:
                raise ScenarioError(f"property agent {prop.agent!r} not in scenario")


# --- concrete syntax ---------------------------------------------------------

def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text before any `#`) of every line that is not blank or
    a comment.  The text keeps its leading blanks, so its columns are the file's."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            yield lineno, line


_SYMBOLS = ("->", *"{}:")


def load_scenario(text: str) -> Scenario:
    """Parse scenario text; the result is fully validated."""
    tokens = scan("", _SYMBOLS)  # EOF alone, for a text with no content
    try:
        for lineno, line in content_lines(text):
            tokens[-1:] = scan(line, _SYMBOLS, line=lineno)  # in place of the last EOF
        scenario = _parse_scenario(Cursor(tokens))
    except FormulaError as exc:  # at a token, or at a character that starts none
        raise ScenarioError(f"line {exc.line}: {exc.reason}") from None
    validate_scenario(scenario)
    return scenario


def _ident(sc: Cursor) -> str:
    return sc.expect("IDENT", "identifier").text


def _word(sc: Cursor, word: str) -> None:
    """Read the scenario word `word`, a name matched by its text."""
    if not sc.accept(word):
        sc.fail_expected(repr(word))


def _parse_scenario(sc: Cursor) -> Scenario:
    _word(sc, "system")
    name = _ident(sc)
    task_kinds: list[tuple[str, bool]] = []
    input_kinds: list[str] = []
    message_kinds: list[str] = []
    agents: list[AgentDef] = []
    timestep: Time = 1
    while sc.cur.kind != "EOF":
        keyword = sc.advance()
        if keyword.text == "taskkind":
            task_kinds.append((_ident(sc), sc.accept("initial")))
        elif keyword.text == "inputkind":
            input_kinds.append(_ident(sc))
        elif keyword.text == "messagekind":
            message_kinds.append(_ident(sc))
        elif keyword.text == "timestep":
            timestep = sc.number("number")
        elif keyword.text == "agent":
            agents.append(_parse_agent(sc))
        else:
            sc.fail(f"unexpected declaration {keyword.text!r}", keyword)
    return Scenario(
        name=name,
        task_kinds=tuple(task_kinds),
        input_kinds=tuple(input_kinds),
        message_kinds=tuple(message_kinds),
        agents=tuple(agents),
        timestep=timestep,
    )


def _parse_agent(sc: Cursor) -> AgentDef:
    name = _ident(sc)
    sc.expect("{")
    tasks: list[tuple[str, str]] = []
    transitions: list[TransitionDef] = []
    while sc.cur.kind not in ("}", "EOF"):
        keyword = sc.advance()
        if keyword.text == "task":
            ident = _ident(sc)
            sc.expect(":")
            tasks.append((ident, _ident(sc)))
        elif keyword.text == "transition":
            ident = _ident(sc)
            sc.expect(":")
            source = _ident(sc)
            sc.expect("->")
            target = _ident(sc)
            trigger: Trigger = None
            if sc.accept("after"):
                trigger = ("after", sc.number("number"))
            elif sc.accept("on"):
                tag = sc.cur.text
                if tag not in ("input", "message"):
                    sc.fail_expected("'input' or 'message'")
                sc.advance()
                trigger = (tag, _ident(sc))
            sends: list[tuple[str, str]] = []
            while sc.accept("send"):
                kind = _ident(sc)
                _word(sc, "to")
                sends.append((kind, _ident(sc)))
            transitions.append(TransitionDef(ident, source, target, trigger, tuple(sends)))
        else:
            sc.fail(f"unexpected keyword {keyword.text!r} in agent {name}", keyword)
    sc.expect("}")
    return AgentDef(name, tuple(tasks), tuple(transitions))


def print_scenario(s: Scenario) -> str:
    """Render a scenario; load_scenario(print_scenario(s)) == s."""
    lines = [f"system {s.name}"]
    for kind, initial in s.task_kinds:
        lines.append(f"taskkind {kind} initial" if initial else f"taskkind {kind}")
    for role in ("input", "message"):
        lines += [f"{role}kind {kind}" for kind in s.declared[role]]
    lines.append(f"timestep {time_str(s.timestep)}")
    for a in s.agents:
        lines.append(f"agent {a.name} {{")
        for ident, kind in a.tasks:
            lines.append(f"  task {ident} : {kind}")
        for t in a.transitions:
            parts = [f"  transition {t.ident} : {t.source} -> {t.target}"]
            if t.trigger is not None:
                tag, value = t.trigger
                parts.append(f"after {time_str(value)}" if tag == "after" else f"on {tag} {value}")
            for kind, recipient in t.sends:
                parts.append(f"send {kind} to {recipient}")
            lines.append(" ".join(parts))
        lines.append("}")
    return "\n".join(lines) + "\n"


_BINDING_RE = re.compile(rf"prop\s+({NAME})\s*=\s*({NAME})\s*\(\s*({NAMES})\s*\)")


def parse_bindings(text: str) -> BindingSet:
    """Parse `prop name = template(args)` lines into a binding set."""
    bindings: BindingSet = {}
    for lineno, line in content_lines(text):
        m = _BINDING_RE.fullmatch(line.strip())
        if not m:
            raw = text.splitlines()[lineno - 1]
            raise ScenarioError(f"line {lineno}: cannot parse binding {raw!r}")
        name, template, arg_text = m.groups()
        if name in bindings:
            raise ScenarioError(f"line {lineno}: duplicate proposition {name!r}")
        try:
            bindings[name] = Binding(template, tuple(re.findall(NAME, arg_text)))
        except ScenarioError as exc:  # an unknown template or a wrong arity
            raise ScenarioError(f"line {lineno}: {exc}") from None
    return bindings


def print_bindings(bindings: BindingSet) -> str:
    lines = [
        f"prop {name} = {b.template}({', '.join(b.args)})"
        for name, b in bindings.items()
    ]
    return "\n".join(lines) + "\n"
