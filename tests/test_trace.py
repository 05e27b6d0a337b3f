"""The hand-written record checker accepts exactly what TRACE_SCHEMA accepts,
the hand-written writer gives the bytes `json.dumps` gives, and the writer's
and the reader's reused parts give the bytes and snapshots of a record
written or read afresh.

jsonschema (from the `test` extra) is the oracle: every line `simulate`
writes for the test scenarios, seeded mutations of those records and the
named edge cases of Draft 2020-12 must get the same accept/reject from both.
"""

import gc
import json
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import tempoweave.trace
from helpers import gen_scenario
from tempoweave.engine import SeededPolicy, run
from tempoweave.formula import parse_formula, time_str
from tempoweave.model import (
    AgentState,
    Message,
    Snapshot,
    init_snapshot,
    load_scenario,
    parse_bindings,
)
from tempoweave.monitor import MonitorState
from tempoweave.trace import (
    TRACE_SCHEMA,
    TraceFormatError,
    check_trace,
    parse_record,
    record_to_json,
    trace_lines,
)
from tempoweave.verdict import Verdict

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
VALIDATOR = jsonschema.Draft202012Validator(TRACE_SCHEMA)
MUTATIONS = 3000

# values a mutation puts in place of (or next to) a recorded one
ODD_VALUES = [
    None, True, False, 0, 1, -1, 2, 1.0, 2.0, 1.5, float("nan"), float("inf"),
    "", "0", "1", "1\n", "1.", "1.5", "x", "T", "Tc", "Fc", "F", "t",
    [], ["a"], ["a", "b"], ["a", "b", "c"], [1, "b"], ["a", None, "c"],
    {}, {"task": "x"},
]
ODD_KEYS = ["v", "seq", "clock", "task", "active", "inputs", "messages", "Master", "x"]


def monitored(name: str):
    """A test scenario with properties and bindings to monitor on it."""
    scenario = load_scenario((DATA / f"{name}.scn").read_text())
    if name == "master_saviour":
        props = [parse_formula(line) for line in
                 (DATA / "master_saviour.props").read_text().splitlines()
                 if line.startswith("@")]
        bindings = parse_bindings((DATA / "master_saviour.bindings").read_text())
    else:
        first = scenario.agents[0].name
        props = [parse_formula(f"@{first}: G a")]
        bindings = parse_bindings(f"prop a = agent_active({first})")
    return scenario, props, bindings


def simulated_lines(name: str) -> list[str]:
    """Ten seeded 100-step `simulate` traces of one test scenario."""
    scenario, props, bindings = monitored(name)
    lines = []
    for seed in range(10):
        monitors = [MonitorState(p) for p in props]
        lines += trace_lines(run(scenario, monitors, bindings, SeededPolicy(seed),
                                 steps=100))
    return lines


SCENARIOS = sorted(path.stem for path in DATA.glob("*.scn"))
LINES = {name: simulated_lines(name) for name in SCENARIOS}


def checker_accepts(text: str) -> bool:
    try:
        parse_record(text)
    except TraceFormatError:
        return False
    return True


def schema_accepts(text: str) -> bool:
    return VALIDATOR.is_valid(json.loads(text))


def read_error(text: str, parts: dict | None = None) -> str | None:
    """The reader's message for `text`, or None if it accepts it."""
    try:
        parse_record(text, parts=parts)
    except TraceFormatError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_simulated_line_is_accepted_by_both(name):
    lines = LINES[name]
    assert lines
    for line in lines:
        assert schema_accepts(line), line
        assert checker_accepts(line), line


def places(value, path=()):
    """Every (path, value) inside a decoded record, the record itself first."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from places(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from places(item, (*path, i))


def mutate(record, rng: random.Random):
    """Replace one value, or delete or add one key or element, in place."""
    path, target = rng.choice(list(places(record)))
    action = rng.choice(("replace", "delete", "add"))
    if action == "replace" and path:
        parent = record
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = rng.choice(ODD_VALUES)
    elif action == "delete" and isinstance(target, (dict, list)) and target:
        key = rng.choice(list(target) if isinstance(target, dict) else range(len(target)))
        del target[key]
    elif isinstance(target, dict):
        target[rng.choice(ODD_KEYS)] = rng.choice(ODD_VALUES)
    elif isinstance(target, list):
        # a copy of a sibling keeps the record valid; an odd value may not
        if target and rng.random() < 0.5:
            extra = json.loads(json.dumps(rng.choice(target)))
        else:
            extra = rng.choice(ODD_VALUES)
        target.insert(rng.randrange(len(target) + 1), extra)
    else:
        return mutate(record, rng)  # a scalar can only be replaced
    return record


def test_mutated_records_get_the_same_verdict():
    rng = random.Random(2026)
    pool = [line for name in SCENARIOS for line in LINES[name]]
    accepted, disagreements = 0, []
    parts = {}  # the reader's table, shared by each original and its mutant
    for _ in range(MUTATIONS):
        original = rng.choice(pool)
        text = json.dumps(mutate(json.loads(original), rng))
        expected = schema_accepts(text)
        accepted += expected
        if checker_accepts(text) != expected:
            disagreements.append(f"schema accepts: {expected}: {text}")
        parse_record(original, parts=parts)
        shared, fresh = read_error(text, parts), read_error(text)
        if shared != fresh or (shared is None) != expected:
            disagreements.append(f"shared table: {shared!r}, fresh: {fresh!r}: {text}")
    assert not disagreements, disagreements[:5]
    assert 0.1 < accepted / MUTATIONS < 0.9  # both verdicts well exercised


VALID = {"v": 1, "seq": 1, "clock": "1",
         "agents": {"A": {"task": "t", "active": True, "inputs": ["i"],
                          "messages": [["m", "B"]]}},
         "transit": [["m", "A", "B"]], "verdicts": ["T", None]}


DELETE = object()


def edited(path, value):
    record = json.loads(json.dumps(VALID))
    parent = record
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return record


@pytest.mark.parametrize("path,value,accepted", [
    (("v",), 1.0, True),  # integer and const compare as numbers...
    (("v",), True, False),  # ...and a bool is no number
    (("v",), "1", False),
    (("seq",), 3.0, True),
    (("seq",), True, False),
    (("seq",), 0, False),
    (("seq",), 2.5, False),
    (("agents", "A", "active"), 0, False),  # boolean is no integer
    (("agents", "A", "active"), 1, False),
    (("agents", "A", "active"), False, True),
    (("clock",), "1\n", True),  # pattern uses re.search: $ matches before \n
    (("clock",), "2.50", True),
    (("clock",), "1.", False),
    (("clock",), " 1", False),
    (("clock",), 1, False),
    (("verdicts", 0), True, False),  # enum members equal no bool or number
    (("verdicts", 0), 1, False),
    (("verdicts", 0), 0, False),
    (("verdicts", 0), "Fc", True),
    (("x",), 1, False),  # additionalProperties false: exact key sets
    (("agents", "A", "x"), 1, False),
    (("transit",), DELETE, False),
    (("agents", "A", "inputs"), DELETE, False),
    (("agents", "A", "messages", 0), ["m"], False),
    (("agents", "A", "messages", 0), ["m", "B", "C"], False),
    (("transit", 0), ["m", "A"], False),
    (("agents", "A", "inputs", 0), 1, False),
    (("agents",), {}, True),
    (("agents",), [], False),
], ids=lambda v: "DELETE" if v is DELETE else
    repr(v) if not isinstance(v, tuple) else ".".join(map(str, v)))
def test_edge_case(path, value, accepted):
    text = json.dumps(edited(path, value))
    assert schema_accepts(text) is accepted
    assert checker_accepts(text) is accepted


@pytest.mark.parametrize("before,value", [(True, 1), (True, 1.0), (False, 0), (False, 0.0)])
def test_reader_reuses_no_agent_whose_mark_is_no_bool(before, value):
    """True == 1 == 1.0: a sub-object equal to the stored one whose mark is
    a number is still refused."""
    parts = {}
    parse_record(json.dumps(edited(("agents", "A", "active"), before)), parts=parts)
    text = json.dumps(edited(("agents", "A", "active"), value))
    assert read_error(text, parts) == read_error(text) == "agents.A.active must be a boolean"


def test_reader_renumbers_a_repeated_agent_after_a_grown_inbox():
    """B's sub-object repeats, but A, read before it, gained a message: B's
    message gets the id a fresh read gives it, not the one stored."""
    record = edited(("agents",), {
        "A": {"task": "t", "active": False, "inputs": [], "messages": []},
        "B": {"task": "u", "active": True, "inputs": [], "messages": [["m", "A"]]}})
    parts = {}
    parse_record(json.dumps(record), parts=parts)
    record["seq"] = 2
    record["agents"]["A"]["messages"].append(["m", "B"])
    snap = parse_record(json.dumps(record), parts=parts)
    assert vars(snap) == vars(parse_record(json.dumps(record)))
    assert list(snap.agents["B"].messages) == [1]


def test_reader_with_a_shared_table_reads_fresh_snapshots():
    """One table for every simulated line of the test scenarios and ten
    generated ones: each snapshot equals a fresh read's in every field
    (agents, message ids, in_transit, active, seq, clock, next_message_id),
    and over a quarter of agents' states come from the table."""
    lines = [line for name in SCENARIOS for line in LINES[name]]
    for i in range(10):
        lines += trace_lines(run(gen_scenario(i), [], {}, SeededPolicy(i), steps=200))
    parts, reused, agents = {}, 0, 0
    for line in lines:
        stored = {name: part[1] for name, part in parts.items()}
        shared, fresh = parse_record(line, parts=parts), parse_record(line)
        assert vars(shared) == vars(fresh), line
        reused += sum(stored.get(name) is state for name, state in shared.agents.items())
        agents += len(shared.agents)
    assert reused > agents / 4, (reused, agents)


def test_replay_keeps_one_table_entry_per_agent(monkeypatch):
    """After a 2,000-record replay the reader's table holds one entry per
    agent, the last record's, and no snapshot outlives its row."""
    scenario, props, bindings = monitored("master_saviour")
    lines = list(trace_lines(run(scenario, [], {}, SeededPolicy(0), steps=2000)))
    tables, snapshots = [], []

    def spy(line, lineno=0, parts=None):
        snap = parse_record(line, lineno, parts)
        tables.append(parts)
        snapshots.append(weakref.ref(snap))
        return snap

    monkeypatch.setattr(tempoweave.trace, "parse_record", spy)
    rows, _ = check_trace(iter(lines), props, bindings)
    assert sum(1 for _ in rows) == len(lines) == 2000
    table = tables[0]
    assert all(t is table for t in tables)
    last, last_snap = json.loads(lines[-1])["agents"], parse_record(lines[-1])
    assert table.keys() == last.keys() == {a.name for a in scenario.agents}
    for name, (info, state, first_id) in table.items():
        assert info == last[name] and state == last_snap.agents[name]
        assert isinstance(first_id, int)
    gc.collect()
    assert all(ref() is None for ref in snapshots)


def test_importing_the_cli_does_not_load_jsonschema():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c",
         "import sys, tempoweave.cli; assert 'jsonschema' not in sys.modules"],
        env=env, check=True,
    )


def fresh_records(entries) -> list[str]:
    """Each entry's record, encoded with no parts kept from the one before."""
    return [record_to_json(e.snapshot, e.active, e.verdicts) for e in entries]


@pytest.mark.parametrize("name", SCENARIOS)
def test_writer_with_reused_parts_writes_fresh_records(name):
    """`trace_lines` keeps one parts table for the whole run; every record
    it writes is the one `record_to_json` writes without it."""
    scenario = load_scenario((DATA / f"{name}.scn").read_text())
    for seed in range(10):
        entries = list(run(scenario, [], {}, SeededPolicy(seed), steps=200))
        assert list(trace_lines(entries)) == fresh_records(entries), seed


def test_writer_with_reused_parts_writes_fresh_records_generated():
    for i in range(50):
        entries = list(run(gen_scenario(i), [], {}, SeededPolicy(i), steps=200))
        assert list(trace_lines(entries)) == fresh_records(entries), i


def test_writer_reencodes_an_agent_whose_mark_alone_changed():
    """The same state object with another active mark is encoded again."""
    scenario = load_scenario((DATA / "master_saviour.scn").read_text())
    snap = init_snapshot(scenario)
    parts = {}
    for active in (set(), {"Master"}, set()):
        line = record_to_json(snap, active, [], parts)
        assert line == record_to_json(snap, active, [])
        assert json.loads(line)["agents"]["Master"]["active"] == bool(active)


def dumped(snapshot, active, verdicts) -> str:
    """The record as `json.dumps` writes it: the writer's specification."""
    return json.dumps({
        "v": 1, "seq": snapshot.seq, "clock": time_str(snapshot.clock),
        "agents": {name: {
            "task": state.task, "active": name in active,
            "inputs": [k for k, n in sorted(state.inputs.items()) for _ in range(n)],
            "messages": sorted([m.kind, m.sender] for m in state.messages.values()),
        } for name, state in snapshot.agents.items()},
        "transit": sorted([m.kind, m.sender, m.recipient]
                          for m in snapshot.in_transit.values()),
        "verdicts": [v.short if v is not None else None for v in verdicts],
    }, separators=(",", ":"), sort_keys=True)


# names that json.dumps escapes: a quote, a backslash, a control character,
# non-ASCII and an astral character (written as a surrogate pair)
ODD_NAMES = ['Q"t', "B\\s", "C\x01\n", "caf\u00e9", "s\U0001F600"]


def odd_snapshot() -> Snapshot:
    """A snapshot whose names, kinds and ordering all need the writer's care:
    among its agents, one holds two kinds many times each, and one holds a
    kind at count 0 between two it holds once."""
    a, b, c, d, e = ODD_NAMES
    msgs = [Message(i, kind, sender, recipient) for i, (kind, sender, recipient) in
            enumerate([(e, a, b), (c, b, a), (c, a, b), (a, e, d), (a, c, e)])]
    return Snapshot(
        clock=Fraction(5, 2), seq=7,
        agents={
            e: AgentState(d, {c: 2, a: 1, "zz": 0}, {m.ident: m for m in msgs[:2]}),
            a: AgentState(b),
            c: AgentState("T", {e: 3}, {msgs[2].ident: msgs[2]}),
            "many": AgentState("T", {b: 13, d: 2}),
            "zero": AgentState("T", {"zz": 1, "m0": 0, d: 1}),
        },
        in_transit={m.ident: m for m in msgs[2:]},
    )


@pytest.mark.parametrize("active,verdicts", [
    (set(), []),
    ({ODD_NAMES[0]}, [None]),
    (set(ODD_NAMES), [Verdict.TRUE, None, Verdict.TRUE_C, Verdict.FALSE_C,
                      Verdict.FALSE, None]),
], ids=["none-active", "one-active", "all-active"])
def test_writer_writes_the_bytes_json_dumps_writes(active, verdicts):
    """Escaping, key order, repeated inputs (two kinds 13 and 2 times, and a
    count of 0 written no times), sorted messages and transit, a non-whole
    clock and null verdicts: the writer, with parts kept or not, matches
    `json.dumps` byte for byte."""
    snap = odd_snapshot()
    expected = dumped(snap, active, verdicts)
    assert expected.isascii() and "\\ud83d\\ude00" in expected
    parts = {}
    assert record_to_json(snap, active, verdicts) == expected
    assert record_to_json(snap, active, verdicts, parts) == expected
    assert record_to_json(snap, active, verdicts, parts) == expected
    assert json.loads(expected)["clock"] == "2.5"


@pytest.mark.parametrize("name", SCENARIOS)
def test_writer_matches_json_dumps_on_simulated_records(name):
    scenario = load_scenario((DATA / f"{name}.scn").read_text())
    for seed in range(3):
        entries = list(run(scenario, [], {}, SeededPolicy(seed), steps=100))
        assert list(trace_lines(entries)) == [
            dumped(e.snapshot, e.active, e.verdicts) for e in entries], seed
