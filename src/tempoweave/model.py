"""Workflow data model: scenario definitions, runtime snapshots, bindings.

A Scenario is the static definition (task/input/message kinds, agents,
transitions, timestep).  A Snapshot is one global runtime state.  It maps
agent names to frozen AgentState values that snapshots share, so a copy is
a new dict and a change to one agent replaces its entry.  Beside them it
holds the set of agents marked active this step, and for each timed
transition the clock time (a `formula.Time`) its counter last restarted.
Bindings tie proposition names to predicate templates over snapshots, which
is how monitored formulas observe the simulation.

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

from .formula import Property, Time, _bound_str, parse_decimal, propositions, time_str


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
    def kind_sets(self) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        """The declared task, input and message kinds."""
        return (frozenset(k for k, _ in self.task_kinds),
                frozenset(self.input_kinds), frozenset(self.message_kinds))

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


def validate_scenario(s: Scenario) -> None:
    """Check the structural invariants; raise ScenarioError on the first."""
    task_kind_names = [k for k, _ in s.task_kinds]
    for category, names in (
        ("task kind", task_kind_names),
        ("input kind", list(s.input_kinds)),
        ("message kind", list(s.message_kinds)),
        ("agent", [a.name for a in s.agents]),
    ):
        dupes = [n for n, c in Counter(names).items() if c > 1]
        if dupes:
            raise ScenarioError(f"duplicate {category} {dupes[0]!r}")
    initial = s.initial_kinds()
    agent_names = {a.name for a in s.agents}
    for a in s.agents:
        ids = [ident for ident, _ in a.tasks]
        dupes = [n for n, c in Counter(ids).items() if c > 1]
        if dupes:
            raise ScenarioError(f"duplicate task id {dupes[0]!r} in agent {a.name}")
        for ident, kind in a.tasks:
            if kind not in task_kind_names:
                raise ScenarioError(
                    f"task {a.name}.{ident} has undeclared kind {kind!r}"
                )
        starts = [ident for ident, kind in a.tasks if kind in initial]
        if len(starts) != 1:
            raise ScenarioError(
                f"agent {a.name} must have exactly one initial task, has {len(starts)}"
            )
        tids = [t.ident for t in a.transitions]
        dupes = [n for n, c in Counter(tids).items() if c > 1]
        if dupes:
            raise ScenarioError(f"duplicate transition id {dupes[0]!r} in agent {a.name}")
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
            if t.trigger is not None:
                tag, value = t.trigger
                if tag == "input" and value not in s.input_kinds:
                    raise ScenarioError(
                        f"transition {a.name}.{t.ident} uses undeclared input {value!r}"
                    )
                if tag == "message" and value not in s.message_kinds:
                    raise ScenarioError(
                        f"transition {a.name}.{t.ident} uses undeclared message {value!r}"
                    )
                if tag == "after" and not value > 0:
                    raise ScenarioError(
                        f"transition {a.name}.{t.ident} has non-positive threshold"
                    )
            for kind, recipient in t.sends:
                if kind not in s.message_kinds:
                    raise ScenarioError(
                        f"transition {a.name}.{t.ident} sends undeclared message "
                        f"{kind!r}"
                    )
                if recipient not in agent_names:
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
    walk only to name what they found: the message ids are walked when
    there are fewer distinct ids than held and in-transit messages, the
    active marks when some mark is not on a declared agent, and the
    restart stamps when their keys are not the timed transitions or the
    latest stamp is after the clock.
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
    task_kinds, input_kinds, message_kinds = s.kind_sets
    task_kind_of = s.task_kind_of
    checked = s.conformant_states
    for name, state in snap.agents.items():
        if name not in declared_agents or checked.get(name) is state:
            continue
        found = len(violations)
        kind = task_kind_of[name].get(state.task)
        if kind is None:
            violations.append(f"agent {name} is at undeclared task {state.task!r}")
        elif kind not in task_kinds:
            violations.append(
                f"agent {name}: task {state.task!r} has undeclared kind {kind!r}"
            )
        for input_kind, count in state.inputs.items():
            if input_kind not in input_kinds:
                violations.append(f"agent {name} holds undeclared input {input_kind!r}")
            if count < 0:
                violations.append(f"agent {name}: negative input count for {input_kind!r}")
        for msg in state.messages.values():
            if msg.kind not in message_kinds:
                violations.append(f"agent {name} holds undeclared message {msg.kind!r}")
            if msg.sender not in declared_agents:
                violations.append(
                    f"message {msg.ident} has undeclared sender {msg.sender!r}"
                )
        if len(violations) == found:
            checked[name] = state
    for msg in snap.in_transit.values():
        if msg.kind not in message_kinds:
            violations.append(f"in-transit message of undeclared kind {msg.kind!r}")
        if msg.recipient not in declared_agents or msg.sender not in declared_agents:
            violations.append(f"in-transit message {msg.ident} has undeclared endpoints")
    # exclusive containment: a message id lives in transit xor in one agent,
    # so the ids are all distinct unless some id is counted twice
    ids, count = set(snap.in_transit), len(snap.in_transit)
    for state in snap.agents.values():
        if state.messages:
            ids.update(state.messages)
            count += len(state.messages)
    if len(ids) != count:
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

# each template's argument roles, in order
_TEMPLATE_ARGS = {
    "task_current": ("agent", "task"),
    "input_present": ("agent", "input"),
    "message_held": ("agent", "message"),
    "message_in_transit": ("message", "agent", "agent"),  # kind, sender, recipient
    "agent_active": ("agent",),
}


@dataclass(frozen=True)
class Binding:
    template: str
    args: tuple[str, ...]

    def __post_init__(self):
        roles = _TEMPLATE_ARGS.get(self.template)
        if roles is None:
            raise ScenarioError(f"unknown binding template {self.template!r}")
        if len(self.args) != len(roles):
            raise ScenarioError(
                f"{self.template} takes {len(roles)} arguments, got {len(self.args)}"
            )

    @property
    def agents(self) -> tuple[str, ...]:
        """The agents whose state the predicate reads."""
        roles = _TEMPLATE_ARGS[self.template]
        return tuple(a for role, a in zip(roles, self.args) if role == "agent")


BindingSet = dict[str, Binding]


def eval_binding(b: Binding, snap: Snapshot) -> bool:
    """Truth of one predicate template against a snapshot."""
    if b.template == "task_current":
        agent, task = b.args
        state = snap.agents.get(agent)
        return state is not None and state.task == task
    if b.template == "input_present":
        agent, kind = b.args
        state = snap.agents.get(agent)
        return state is not None and state.inputs.get(kind, 0) > 0
    if b.template == "message_held":
        agent, kind = b.args
        state = snap.agents.get(agent)
        return state is not None and any(m.kind == kind for m in state.messages.values())
    if b.template == "message_in_transit":
        kind, sender, recipient = b.args
        return any(
            m.kind == kind and m.sender == sender and m.recipient == recipient
            for m in snap.in_transit.values()
        )
    if b.template == "agent_active":
        return b.args[0] in snap.active
    raise ScenarioError(f"unknown binding template {b.template!r}")


def validate_bindings(bindings: BindingSet, s: Scenario) -> None:
    """Every name a binding references must exist in the scenario."""
    kinds = {"input": s.input_kinds, "message": s.message_kinds}
    for prop, b in bindings.items():
        for name in b.agents:
            if name not in s.agent_set:
                raise ScenarioError(f"binding {prop!r} references unknown agent {name!r}")
        for role, name in zip(_TEMPLATE_ARGS[b.template], b.args):
            if role == "task" and name not in s.task_kind_of[b.args[0]]:
                raise ScenarioError(
                    f"binding {prop!r} references unknown task {b.args[0]}.{name}")
            if role in kinds and name not in kinds[role]:
                raise ScenarioError(f"binding {prop!r} references unknown {role} {name!r}")


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


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"\d+(?:\.\d+)?")


class _Scanner:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, int]] = []  # (token, line)
        for lineno, line in content_lines(text):
            pos = 0
            while pos < len(line):
                ch = line[pos]
                if ch.isspace():
                    pos += 1
                    continue
                m = _IDENT_RE.match(line, pos) or _NUM_RE.match(line, pos)
                if m:
                    self.tokens.append((m.group(), lineno))
                    pos = m.end()
                    continue
                if line.startswith("->", pos):
                    self.tokens.append(("->", lineno))
                    pos += 2
                    continue
                if ch in "{}:,()=":
                    self.tokens.append((ch, lineno))
                    pos += 1
                    continue
                raise ScenarioError(f"line {lineno}: unexpected character {ch!r}")
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self, expected: str | None = None) -> str:
        if self.pos >= len(self.tokens):
            raise ScenarioError(f"unexpected end of input, expected {expected or 'token'}")
        token, lineno = self.tokens[self.pos]
        if expected is not None and token != expected:
            raise ScenarioError(f"line {lineno}: expected {expected!r}, found {token!r}")
        self.pos += 1
        return token

    def ident(self) -> str:
        token = self.next()
        if not _IDENT_RE.fullmatch(token):
            raise ScenarioError(f"expected identifier, found {token!r}")
        return token

    def num(self) -> Time:
        token = self.next()
        if not _NUM_RE.fullmatch(token):
            raise ScenarioError(f"expected number, found {token!r}")
        try:
            return parse_decimal(token)
        except ValueError as exc:
            lineno = self.tokens[self.pos - 1][1]
            raise ScenarioError(f"line {lineno}: invalid number: {exc}") from None


def load_scenario(text: str) -> Scenario:
    """Parse scenario text; the result is fully validated."""
    sc = _Scanner(text)
    sc.next("system")
    name = sc.ident()
    task_kinds: list[tuple[str, bool]] = []
    input_kinds: list[str] = []
    message_kinds: list[str] = []
    agents: list[AgentDef] = []
    timestep: Time = 1
    while sc.peek() is not None:
        keyword = sc.next()
        if keyword == "taskkind":
            kind = sc.ident()
            initial = False
            if sc.peek() == "initial":
                sc.next()
                initial = True
            task_kinds.append((kind, initial))
        elif keyword == "inputkind":
            input_kinds.append(sc.ident())
        elif keyword == "messagekind":
            message_kinds.append(sc.ident())
        elif keyword == "timestep":
            timestep = sc.num()
        elif keyword == "agent":
            agents.append(_parse_agent(sc))
        else:
            raise ScenarioError(f"unexpected declaration {keyword!r}")
    scenario = Scenario(
        name=name,
        task_kinds=tuple(task_kinds),
        input_kinds=tuple(input_kinds),
        message_kinds=tuple(message_kinds),
        agents=tuple(agents),
        timestep=timestep,
    )
    validate_scenario(scenario)
    return scenario


def _parse_agent(sc: _Scanner) -> AgentDef:
    name = sc.ident()
    sc.next("{")
    tasks: list[tuple[str, str]] = []
    transitions: list[TransitionDef] = []
    while sc.peek() != "}":
        keyword = sc.next()
        if keyword == "task":
            ident = sc.ident()
            sc.next(":")
            tasks.append((ident, sc.ident()))
        elif keyword == "transition":
            ident = sc.ident()
            sc.next(":")
            source = sc.ident()
            sc.next("->")
            target = sc.ident()
            trigger: Trigger = None
            if sc.peek() == "on":
                sc.next()
                what = sc.next()
                if what == "input":
                    trigger = ("input", sc.ident())
                elif what == "message":
                    trigger = ("message", sc.ident())
                else:
                    raise ScenarioError(f"expected 'input' or 'message', found {what!r}")
            elif sc.peek() == "after":
                sc.next()
                trigger = ("after", sc.num())
            sends: list[tuple[str, str]] = []
            while sc.peek() == "send":
                sc.next()
                kind = sc.ident()
                sc.next("to")
                sends.append((kind, sc.ident()))
            transitions.append(TransitionDef(ident, source, target, trigger, tuple(sends)))
        else:
            raise ScenarioError(f"unexpected keyword {keyword!r} in agent {name}")
    sc.next("}")
    return AgentDef(name, tuple(tasks), tuple(transitions))


def print_scenario(s: Scenario) -> str:
    """Render a scenario; load_scenario(print_scenario(s)) == s."""
    lines = [f"system {s.name}"]
    for kind, initial in s.task_kinds:
        lines.append(f"taskkind {kind} initial" if initial else f"taskkind {kind}")
    for kind in s.input_kinds:
        lines.append(f"inputkind {kind}")
    for kind in s.message_kinds:
        lines.append(f"messagekind {kind}")
    lines.append(f"timestep {time_str(s.timestep)}")
    for a in s.agents:
        lines.append(f"agent {a.name} {{")
        for ident, kind in a.tasks:
            lines.append(f"  task {ident} : {kind}")
        for t in a.transitions:
            parts = [f"  transition {t.ident} : {t.source} -> {t.target}"]
            if t.trigger is not None:
                tag, value = t.trigger
                if tag == "input":
                    parts.append(f"on input {value}")
                elif tag == "message":
                    parts.append(f"on message {value}")
                else:
                    parts.append(f"after {time_str(value)}")
            for kind, recipient in t.sends:
                parts.append(f"send {kind} to {recipient}")
            lines.append(" ".join(parts))
        lines.append("}")
    return "\n".join(lines) + "\n"


_BINDING_RE = re.compile(
    r"prop\s+([A-Za-z_]\w*)\s*=\s*([A-Za-z_]\w*)\s*\(([^)]*)\)\s*$"
)


def parse_bindings(text: str) -> BindingSet:
    """Parse `prop name = template(args)` lines into a binding set."""
    bindings: BindingSet = {}
    for lineno, line in content_lines(text):
        m = _BINDING_RE.match(line.strip())
        if not m:
            raw = text.splitlines()[lineno - 1]
            raise ScenarioError(f"line {lineno}: cannot parse binding {raw!r}")
        name, template, arg_text = m.groups()
        if name in bindings:
            raise ScenarioError(f"line {lineno}: duplicate proposition {name!r}")
        args = tuple(a.strip() for a in arg_text.split(",")) if arg_text.strip() else ()
        bindings[name] = Binding(template, args)
    return bindings


def print_bindings(bindings: BindingSet) -> str:
    lines = [
        f"prop {name} = {b.template}({', '.join(b.args)})"
        for name, b in bindings.items()
    ]
    return "\n".join(lines) + "\n"
