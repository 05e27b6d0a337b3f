"""Line-delimited trace records and the offline replay checker.

Each simulation step serializes to one self-contained JSON line (schema
version "v": 1).  `check_trace` reconstructs the snapshot stream from such
lines and re-runs the monitors through the engine's `dispatch`, which must
reproduce the recorded verdict columns exactly.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import jsonschema

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

_VALIDATOR = jsonschema.Draft202012Validator(TRACE_SCHEMA)


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
            "inputs": sorted(state.inputs.elements()),
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


def trace_lines(run_trace) -> list[str]:
    """Serialize a RunTrace entry list to JSON lines."""
    return [
        record_to_json(entry.snapshot.seq, entry.snapshot, entry.active,
                       entry.verdicts)
        for entry in run_trace.entries
    ]


def parse_record(line: str, lineno: int = 0) -> dict:
    """Parse and schema-validate one trace line."""
    where = f"line {lineno}: " if lineno else ""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{where}invalid JSON: {exc}") from None
    errors = sorted(_VALIDATOR.iter_errors(record), key=str)
    if errors:
        raise TraceFormatError(f"{where}{errors[0].message}")
    return record


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
        snap.agents[name] = AgentState(
            task=info["task"],
            active=info["active"],
            inputs=Counter(info["inputs"]),
            messages=messages,
        )
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
) -> tuple[list[list[str | None]], list[MonitorState]]:
    """Replay the monitors over a recorded trace.

    Returns the recomputed verdict rows (shorts or None, one row per
    record) and the final monitor states.
    """
    monitors = [
        MonitorState(p, prophecy_includes_now=prophecy_includes_now)
        for p in properties
    ]
    rows: list[list[str | None]] = []
    last_clock: Fraction | None = None
    last_seq = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        record = parse_record(line, lineno)
        snap = _record_snapshot(record)
        if last_clock is not None and snap.clock < last_clock:
            raise TraceFormatError(
                f"line {lineno}: clock decreases from {last_clock} to {snap.clock}"
            )
        if record["seq"] <= last_seq:
            raise TraceFormatError(
                f"line {lineno}: sequence numbers must increase"
            )
        last_clock, last_seq = snap.clock, record["seq"]
        try:
            verdicts = dispatch(snap, monitors, bindings)
        except MonitorError as exc:
            raise TraceResolutionError(f"line {lineno}: {exc}") from None
        rows.append([v.short if v is not None else None for v in verdicts])
    if not rows:
        raise TraceFormatError("trace contains no records")
    return rows, monitors
