"""Line-delimited trace records and the offline replay checker.

Each simulation step serializes to one self-contained JSON line (schema
version "v": 1).  `check_trace` replays such lines one record at a time:
`parse_record` reads each in one pass, checking it against `TRACE_SCHEMA`
as it rebuilds the snapshot (an agent whose sub-object and message ids
repeat the record before keeps the state read then), and the monitors
re-run through the engine's `dispatch`.  The recorded verdict columns are
checked for shape only, not compared with the replayed verdicts.

`TRACE_SCHEMA` is the record format as a JSON Schema (Draft 2020-12).  The
reader accepts exactly what a Draft 2020-12 validator of it accepts (the
tests hold the two equal) save one kind of record: one whose clock has more
digits than `int()` takes, which the schema accepts and the reader refuses.
"""

from __future__ import annotations

import json
import json.encoder
import re
from collections.abc import Iterable, Iterator

from .formula import NUMBER, FormulaError, Property, Time, exact_time, time_str
from .model import AgentState, BindingSet, Snapshot, check_names
from .monitor import MonitorError, MonitorState, dispatch
from .verdict import Verdict

TRACE_SCHEMA = {
    "type": "object",
    "required": ["v", "seq", "clock", "agents", "transit", "verdicts"],
    "additionalProperties": False,
    "properties": {
        "v": {"const": 1},
        "seq": {"type": "integer", "minimum": 1},
        "clock": {"type": "string", "pattern": rf"^{NUMBER}$"},
        "agents": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["task", "active", "inputs", "messages"],
                "additionalProperties": False,
                "properties": {
                    "task": {"type": "string"},
                    "active": {"type": "boolean"},
                    "inputs": {"type": "array", "items": {"type": "string"}},
                    "messages": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "items": {"type": "string"},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    },
                },
            },
        },
        "transit": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "string"},
                "minItems": 3,
                "maxItems": 3,
            },
        },
        "verdicts": {
            "type": "array",
            "items": {"enum": ["T", "Tc", "Fc", "F", None]},
        },
    },
}


class TraceFormatError(ValueError):
    """The trace stream is not a valid record sequence."""


class TraceResolutionError(ValueError):
    """A property or binding refers to a name the trace does not contain."""


_json_str = json.encoder.encode_basestring_ascii  # what json.dumps uses for a str
_VERDICT_JSON = {None: "null", **{v: _json_str(v.short) for v in Verdict}}


def _json_strs(items) -> str:
    """A JSON array of strings."""
    return "[" + ",".join(map(_json_str, items)) + "]"


def record_to_json(snapshot: Snapshot, active: set[str],
                   verdicts: list[Verdict | None], parts: dict | None = None) -> str:
    """One step and the agents active in it as a single JSON line: the bytes
    `json.dumps(record, separators=(",", ":"), sort_keys=True)` gives.  The
    line is written by hand, keys in that sorted order, every string escaped
    by the function json.dumps uses and each input kind encoded once.  With
    `parts` (agent -> state, mark, encoded `"name":{...}`, encoded messages),
    an agent whose state object and mark are the stored ones reuses that
    text; another is encoded, its messages only for a new messages dict."""
    parts = {} if parts is None else parts
    agents = []
    for name in sorted(snapshot.agents):
        state, mark = snapshot.agents[name], name in active
        part = parts.get(name)
        if part is None or part[0] is not state or part[1] != mark:
            inputs = "".join((_json_str(k) + ",") * n for k, n in sorted(state.inputs.items()))
            held = (part[3] if part and part[0].messages is state.messages else ",".join(
                map(_json_strs, sorted((m.kind, m.sender) for m in state.messages.values()))))
            part = parts[name] = (state, mark, (
                f'{_json_str(name)}:{{"active":{"true" if mark else "false"},'
                f'"inputs":[{inputs[:-1]}],"messages":[{held}],'
                f'"task":{_json_str(state.task)}}}'), held)
        agents.append(part[2])
    transit = snapshot.in_transit and sorted(
        (m.kind, m.sender, m.recipient) for m in snapshot.in_transit.values())
    return (f'{{"agents":{{{",".join(agents)}}},'
            f'"clock":{_json_str(time_str(snapshot.clock))},"seq":{snapshot.seq},'
            f'"transit":[{",".join(map(_json_strs, transit))}],"v":1,'
            f'"verdicts":[{",".join([_VERDICT_JSON[v] for v in verdicts])}]}}')


def trace_lines(entries: Iterable) -> Iterator[str]:
    """Serialize trace entries to JSON lines, each as it is taken, with one
    `parts` table (see record_to_json) for the whole stream."""
    parts: dict = {}
    return (record_to_json(e.snapshot, e.active, e.verdicts, parts) for e in entries)


def parse_record(line: str, lineno: int = 0, parts: dict | None = None) -> Snapshot:
    """The snapshot one trace line records, read in one pass: the line is
    decoded once, then each field is checked and put into the snapshot.  An
    over-long clock is the one record the schema accepts and this refuses.
    With `parts`, which maps an agent to (its decoded sub-object, the state
    read from it, its first message id), an agent whose sub-object equals
    the stored one, with a bool mark and the stored first id, reuses that
    state, and any other agent is checked and stored.
    """
    where = f"line {lineno}: " if lineno else ""
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, huge ints
        raise TraceFormatError(f"{where}invalid JSON: {exc}") from None
    try:
        return _read_record(record, {} if parts is None else parts)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{where}{exc}") from None


_RECORD_FIELDS = tuple(TRACE_SCHEMA["required"])
_AGENT_FIELDS = tuple(TRACE_SCHEMA["properties"]["agents"]["additionalProperties"]["required"])
_RECORD_KEYS = frozenset(_RECORD_FIELDS)
_AGENT_KEYS = frozenset(_AGENT_FIELDS)
_CLOCK = re.compile(TRACE_SCHEMA["properties"]["clock"]["pattern"])
_VERDICTS = TRACE_SCHEMA["properties"]["verdicts"]["items"]["enum"]


def _read_record(record, parts: dict) -> Snapshot:
    """The snapshot `record` describes, or TraceFormatError naming the field
    path where TRACE_SCHEMA rejects it; the clock is converted last.

    JSON Schema types, not Python's: an integer may be a float with no
    fraction but not a bool, `pattern` matches with `re.search`, and an
    enum or const member equals no bool.
    """
    _check_fields(record, _RECORD_FIELDS, _RECORD_KEYS, ())
    v, seq, clock = record["v"], record["seq"], record["clock"]
    if v != 1 or v is True:
        raise _rejected(("v",), "must be 1")
    if not (type(seq) is int or type(seq) is float and seq.is_integer()) or seq < 1:
        raise _rejected(("seq",), "must be an integer >= 1")
    if not isinstance(clock, str) or not _CLOCK.search(clock):
        raise _rejected(("clock",), "must be a decimal string such as '3' or '2.5'")
    agents = record["agents"]
    if not isinstance(agents, dict):
        raise _rejected(("agents",), "must be an object")
    snap = Snapshot(clock=None, agents={}, seq=seq)  # the clock is read last
    for name, info in agents.items():
        part, first_id = parts.get(name), snap.next_message_id
        # True == 1 == 1.0, so an equal sub-object may still hold a non-bool
        if (part is not None and part[0] == info and type(info["active"]) is bool
                and part[2] == first_id):
            snap.next_message_id += len(part[1].messages)
        else:
            part = parts[name] = (info, _read_agent(name, info, snap), first_id)
        snap.agents[name] = part[1]
        if info["active"]:
            snap.active.add(name)
    transit = record["transit"]
    if not isinstance(transit, list):
        raise _rejected(("transit",), "must be an array")
    for i, message in enumerate(transit):
        msg = snap.new_message(*_strings(message, ("transit", i), 3))
        snap.in_transit[msg.ident] = msg
    verdicts = record["verdicts"]
    if not isinstance(verdicts, list):
        raise _rejected(("verdicts",), "must be an array")
    for i, verdict in enumerate(verdicts):
        # `in` compares with ==, and no bool or number equals a str or None
        if verdict not in _VERDICTS:
            raise _rejected(("verdicts", i), "must be one of 'T', 'Tc', 'Fc', 'F' or null")
    whole, _, frac = clock.rstrip("\n").partition(".")
    scale = 10 ** len(frac)
    try:  # each side may have as many digits as int() takes, as in Fraction()
        snap.clock = exact_time(int(whole) * scale + int(frac or 0), scale)
    except ValueError as exc:  # more digits than int() takes
        raise TraceFormatError(f"clock: {exc}") from None
    return snap


def _read_agent(name: str, info, snap: Snapshot) -> AgentState:
    """The state `info` records for agent `name`, its messages numbered by `snap`."""
    _check_fields(info, _AGENT_FIELDS, _AGENT_KEYS, ("agents", name))
    if not isinstance(info["task"], str):
        raise _rejected(("agents", name, "task"), "must be a string")
    if type(info["active"]) is not bool:
        raise _rejected(("agents", name, "active"), "must be a boolean")
    inputs: dict[str, int] = {}
    for kind in _strings(info["inputs"], ("agents", name, "inputs")):
        inputs[kind] = inputs.get(kind, 0) + 1
    messages = info["messages"]
    if not isinstance(messages, list):
        raise _rejected(("agents", name, "messages"), "must be an array")
    inbox = {}
    for i, pair in enumerate(messages):
        msg = snap.new_message(*_strings(pair, ("agents", name, "messages", i), 2), name)
        inbox[msg.ident] = msg
    return AgentState(info["task"], inputs, inbox)


def _check_fields(obj, fields: tuple, keys: frozenset, path: tuple) -> None:
    """`obj` is an object whose keys are exactly `fields`."""
    if not isinstance(obj, dict):
        raise _rejected(path, "must be an object")
    if obj.keys() != keys:
        missing = [repr(f) for f in fields if f not in obj]
        if missing:
            raise _rejected(path, f"is missing {', '.join(missing)}")
        extra = sorted(obj.keys() - keys)
        raise _rejected(path, f"has unexpected field {extra[0]!r}")


def _strings(items, path: tuple, size: int | None = None) -> list[str]:
    """`items`, which must be an array of strings, of `size` items if given."""
    if not isinstance(items, list):
        raise _rejected(path, "must be an array")
    if size is not None and len(items) != size:
        raise _rejected(path, f"must have {size} items")
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise _rejected((*path, i), "must be a string")
    return items


def _rejected(path: tuple, problem: str) -> TraceFormatError:
    """An error for the value at `path`, written like `agents.Master.inputs[0]`."""
    where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    return TraceFormatError(f"{where[1:] or 'record'} {problem}")


def check_trace(
    lines,
    properties: list[Property],
    bindings: BindingSet,
    prophecy_includes_now: bool = False,
) -> tuple[Iterator[list[str | None]], list[MonitorState]]:
    """Replay the monitors over a recorded trace; a proposition with no
    binding is ScenarioError, in `run`'s words, before any row.

    Returns the recomputed verdict rows (shorts or None, one row per
    record) and the monitor states.  The rows are a generator: taking a
    row reads, checks and replays the next record, stepping the monitors,
    so `lines` is read as the rows are taken and neither is kept.  A bad
    record raises when its row is taken, after the rows before it; a trace
    with no records raises once the rows are exhausted.
    """
    check_names(properties, bindings)
    monitors = [
        MonitorState(p, prophecy_includes_now=prophecy_includes_now)
        for p in properties
    ]
    return _replay(lines, monitors, bindings), monitors


def _replay(lines, monitors: list[MonitorState],
            bindings: BindingSet) -> Iterator[list[str | None]]:
    binding_agents = {a for b in bindings.values() for a in b.agents}
    last_clock: Time | None = None
    last_seq = 0
    parts: dict = {}  # one table for the stream; see parse_record
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        snap = parse_record(line, lineno, parts)
        if last_clock is not None and snap.clock < last_clock:
            try:
                change = f" from {time_str(last_clock)} to {time_str(snap.clock)}"
            except FormulaError as exc:  # a clock too long to print
                change = f": {exc}"
            raise TraceFormatError(f"line {lineno}: clock decreases{change}")
        if snap.seq <= last_seq:
            raise TraceFormatError(f"line {lineno}: sequence numbers must increase")
        last_clock, last_seq = snap.clock, snap.seq
        if not snap.agents.keys() >= binding_agents:
            prop, agent = next((p, a) for p, b in bindings.items()
                               for a in b.agents if a not in snap.agents)
            raise TraceResolutionError(
                f"line {lineno}: binding {prop!r} references agent {agent!r} "
                "absent from the trace"
            )
        try:
            verdicts = dispatch(snap, monitors, bindings)
        except MonitorError as exc:
            raise TraceResolutionError(f"line {lineno}: {exc}") from None
        yield [v.short if v is not None else None for v in verdicts]
    if last_clock is None:
        raise TraceFormatError("trace contains no records")
