"""Line-delimited trace records and the offline replay checker.

Each simulation step serializes to one self-contained JSON line (schema
version "v": 1).  `check_trace` reconstructs the snapshot stream from such
lines, one record at a time, and re-runs the monitors through the engine's
`dispatch`, which must reproduce the recorded verdict columns exactly.

`TRACE_SCHEMA` is the record format as a JSON Schema (Draft 2020-12).
Records are checked against it by the hand-written `_check_record`, which
accepts exactly what a Draft 2020-12 validator of `TRACE_SCHEMA` accepts;
the tests hold the two equal.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .formula import Property, time_str
from .model import AgentState, BindingSet, Message, Snapshot
from .monitor import MonitorError, MonitorState, dispatch
from .verdict import Verdict

TRACE_SCHEMA = {
    "type": "object",
    "required": ["v", "seq", "clock", "agents", "transit", "verdicts"],
    "additionalProperties": False,
    "properties": {
        "v": {"const": 1},
        "seq": {"type": "integer", "minimum": 1},
        "clock": {"type": "string", "pattern": r"^\d+(\.\d+)?$"},
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


def record_to_json(seq: int, snapshot: Snapshot, active: dict[str, bool],
                   verdicts: list[Verdict | None]) -> str:
    """Serialize one step as a single JSON line."""
    agents = {}
    for name in sorted(snapshot.agents):
        state = snapshot.agents[name]
        agents[name] = {
            "task": state.task,
            "active": active[name],
            "inputs": [k for k, n in sorted(state.inputs.items()) for _ in range(n)],
            "messages": sorted(
                [m.kind, m.sender] for m in state.messages.values()
            ),
        }
    transit = sorted(
        [m.kind, m.sender, m.recipient] for m in snapshot.in_transit.values()
    )
    record = {
        "v": 1,
        "seq": seq,
        "clock": time_str(snapshot.clock),
        "agents": agents,
        "transit": transit,
        "verdicts": [v.short if v is not None else None for v in verdicts],
    }
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


def trace_lines(entries: Iterable) -> Iterator[str]:
    """Serialize trace entries to JSON lines, each as it is taken."""
    return (
        record_to_json(entry.snapshot.seq, entry.snapshot, entry.active,
                       entry.verdicts)
        for entry in entries
    )


def parse_record(line: str, lineno: int = 0) -> dict:
    """Parse and schema-validate one trace line."""
    where = f"line {lineno}: " if lineno else ""
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, huge ints
        raise TraceFormatError(f"{where}invalid JSON: {exc}") from None
    try:
        _check_record(record)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{where}{exc}") from None
    return record


_RECORD_FIELDS = tuple(TRACE_SCHEMA["required"])
_AGENT_FIELDS = tuple(TRACE_SCHEMA["properties"]["agents"]["additionalProperties"]["required"])
_RECORD_KEYS = frozenset(_RECORD_FIELDS)
_AGENT_KEYS = frozenset(_AGENT_FIELDS)
_CLOCK = re.compile(TRACE_SCHEMA["properties"]["clock"]["pattern"])
_VERDICTS = TRACE_SCHEMA["properties"]["verdicts"]["items"]["enum"]


def _check_record(record) -> None:
    """Raise TraceFormatError, naming the field path, unless TRACE_SCHEMA
    accepts `record`.

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
    for name, info in agents.items():
        _check_fields(info, _AGENT_FIELDS, _AGENT_KEYS, ("agents", name))
        if not isinstance(info["task"], str):
            raise _rejected(("agents", name, "task"), "must be a string")
        if type(info["active"]) is not bool:
            raise _rejected(("agents", name, "active"), "must be a boolean")
        _check_strings(info["inputs"], ("agents", name, "inputs"))
        messages = info["messages"]
        if not isinstance(messages, list):
            raise _rejected(("agents", name, "messages"), "must be an array")
        for i, message in enumerate(messages):
            _check_strings(message, ("agents", name, "messages", i), 2)
    transit = record["transit"]
    if not isinstance(transit, list):
        raise _rejected(("transit",), "must be an array")
    for i, message in enumerate(transit):
        _check_strings(message, ("transit", i), 3)
    verdicts = record["verdicts"]
    if not isinstance(verdicts, list):
        raise _rejected(("verdicts",), "must be an array")
    for i, verdict in enumerate(verdicts):
        # `in` compares with ==, and no bool or number equals a str or None
        if verdict not in _VERDICTS:
            raise _rejected(("verdicts", i), "must be one of 'T', 'Tc', 'Fc', 'F' or null")


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


def _check_strings(items, path: tuple, size: int | None = None) -> None:
    """`items` is an array of strings, of `size` items if given."""
    if not isinstance(items, list):
        raise _rejected(path, "must be an array")
    if size is not None and len(items) != size:
        raise _rejected(path, f"must have {size} items")
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise _rejected((*path, i), "must be a string")


def _rejected(path: tuple, problem: str) -> TraceFormatError:
    """An error for the value at `path`, written like `agents.Master.inputs[0]`."""
    where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    return TraceFormatError(f"{where[1:] or 'record'} {problem}")


def _record_snapshot(record: dict) -> Snapshot:
    """Rebuild a snapshot (fresh message ids, recorded active marks) from one record."""
    clock = Fraction(record["clock"])
    snap = Snapshot(clock=clock, agents={}, seq=record["seq"])
    for name, info in record["agents"].items():
        messages = {}
        for kind, sender in info["messages"]:
            ident = snap.next_message_id
            snap.next_message_id += 1
            messages[ident] = Message(ident, kind, sender, name)
        inputs: dict[str, int] = {}
        for kind in info["inputs"]:
            inputs[kind] = inputs.get(kind, 0) + 1
        snap.agents[name] = AgentState(info["task"], info["active"], inputs, messages)
    for kind, sender, recipient in record["transit"]:
        ident = snap.next_message_id
        snap.next_message_id += 1
        snap.in_transit[ident] = Message(ident, kind, sender, recipient)
    return snap


def check_trace(
    lines,
    properties: list[Property],
    bindings: BindingSet,
    prophecy_includes_now: bool = False,
) -> tuple[Iterator[list[str | None]], list[MonitorState]]:
    """Replay the monitors over a recorded trace.

    Returns the recomputed verdict rows (shorts or None, one row per
    record) and the monitor states.  The rows are a generator: taking a
    row reads, checks and replays the next record, stepping the monitors,
    so `lines` is read as the rows are taken and neither is kept.  A bad
    record raises when its row is taken, after the rows before it; a trace
    with no records raises once the rows are exhausted.
    """
    monitors = [
        MonitorState(p, prophecy_includes_now=prophecy_includes_now)
        for p in properties
    ]
    return _replay(lines, monitors, bindings), monitors


def _replay(lines, monitors: list[MonitorState],
            bindings: BindingSet) -> Iterator[list[str | None]]:
    binding_agents = {a for b in bindings.values() for a in b.agents}
    last_clock: Fraction | None = None
    last_seq = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        record = parse_record(line, lineno)
        try:
            snap = _record_snapshot(record)
        except ValueError as exc:  # a clock with more digits than int() takes
            raise TraceFormatError(f"line {lineno}: clock: {exc}") from None
        if last_clock is not None and snap.clock < last_clock:
            raise TraceFormatError(
                f"line {lineno}: clock decreases from {last_clock} to {snap.clock}"
            )
        if record["seq"] <= last_seq:
            raise TraceFormatError(
                f"line {lineno}: sequence numbers must increase"
            )
        last_clock, last_seq = snap.clock, record["seq"]
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
