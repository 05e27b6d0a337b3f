"""Scenario definitions, runtime snapshots, conformance, and bindings."""

from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import gen_scenario
from tempoweave.model import (
    AgentDef,
    AgentState,
    Binding,
    Message,
    Scenario,
    ScenarioError,
    check_conformance,
    eval_binding,
    init_snapshot,
    load_scenario,
    parse_bindings,
    print_bindings,
    print_scenario,
    validate_bindings,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def scenario():
    return load_scenario((DATA / "master_saviour.scn").read_text())


class TestLoading:
    def test_declarations(self, scenario):
        assert scenario.name == "master_saviour"
        assert scenario.initial_kinds() == {"Initial"}
        assert scenario.input_kinds == ("Obstacle",)
        assert scenario.message_kinds == ("Stop", "Stopped")
        assert [a.name for a in scenario.agents] == ["Master", "Slave1", "Slave2"]
        assert scenario.timestep == 1

    def test_transition_details(self, scenario):
        (t,) = scenario.outgoing["Master", "Go"]
        assert t.ident == "m1" and t.source == "Go" and t.target == "Blocked"
        assert t.trigger == ("input", "Obstacle")
        assert t.sends == (("Stop", "Slave1"), ("Stop", "Slave2"))

    def test_timed_transition(self):
        s = load_scenario((DATA / "timed_relay.scn").read_text())
        (t,) = s.outgoing["Timer", "A"]
        assert t.ident == "t1"
        assert t.is_timed and t.trigger == ("after", Fraction(3))

    def test_outgoing_in_firing_order(self):
        """By trigger, then id; a spontaneous transition only out of an initial task."""
        s = load_scenario(
            "system idx\ntaskkind Start initial\ntaskkind Work\n"
            "inputkind I\ninputkind J\nmessagekind M\n"
            "agent A {\n task S : Start\n task W : Work\n"
            " transition z : S -> W after 1\n transition y : S -> W on message M\n"
            " transition x : S -> W on input I\n transition b : S -> W on input J\n"
            " transition w : S -> W\n transition v : W -> S\n}\n"
        )
        assert [t.ident for t in s.outgoing["A", "S"]] == ["w", "b", "x", "y", "z"]
        assert s.outgoing["A", "W"] == ()

    @pytest.mark.parametrize("name", [
        "master_saviour", "timed_relay", "cycle", "broadcast",
    ])
    def test_print_load_identity(self, name):
        s = load_scenario((DATA / f"{name}.scn").read_text())
        assert load_scenario(print_scenario(s)) == s

    def test_generated_round_trips(self):
        for seed in range(40):
            s = gen_scenario(seed)
            assert load_scenario(print_scenario(s)) == s

    @pytest.mark.parametrize("text", [
        "",                                     # no header
        "system s\ntaskkind T initial\ntaskkind T",  # duplicate kind
        "system s\nagent A {",                  # unterminated block
        "system s\ntaskkind T initial\nagent A { task x : Missing }",
        # no initial task
        "system s\ntaskkind T initial\ntaskkind W\nagent A { task x : W }",
        # two initial tasks
        ("system s\ntaskkind T initial\n"
         "agent A { task x : T\n task y : T }"),
        # transition to undeclared task
        ("system s\ntaskkind T initial\n"
         "agent A { task x : T\n transition t : x -> nowhere }"),
        # undeclared input kind
        ("system s\ntaskkind T initial\ntaskkind W\n"
         "agent A { task x : T\n task y : W\n"
         " transition t : x -> y on input Nope }"),
        # send to unknown agent
        ("system s\ntaskkind T initial\ntaskkind W\nmessagekind M\n"
         "agent A { task x : T\n task y : W\n"
         " transition t : x -> y send M to Ghost }"),
        # zero threshold
        ("system s\ntaskkind T initial\ntaskkind W\n"
         "agent A { task x : T\n task y : W\n"
         " transition t : x -> y after 0 }"),
        "system s\ntaskkind T initial\ntimestep 0",
    ])
    def test_rejects(self, text):
        with pytest.raises(ScenarioError):
            load_scenario(text)

    @pytest.mark.parametrize("text, message", [
        ("system 12", "line 1: expected identifier, found '12'"),
        ("system s\ntaskkind T initial\ntimestep x", "line 3: expected number, found 'x'"),
        ("system s\ntaskkind T initial\n\nagent 12 {", "line 4: expected identifier, found '12'"),
        ("system s\ntaskkind T initial\nagent A {\n task x : 7\n}",
         "line 4: expected identifier, found '7'"),
        ("system s\ntaskkind T initial\nagent A {\n task x : T\n"
         " transition t : x -> -> x\n}", "line 5: expected identifier, found '->'"),
        ("system s\ntaskkind T initial\nagent A {\n task x : T\n"
         " transition t : x -> x\n # a comment\n after y\n}",
         "line 7: expected number, found 'y'"),
    ], ids=["header", "timestep", "agent", "task", "transition", "after"])
    def test_expected_token_names_its_line(self, text, message):
        with pytest.raises(ScenarioError) as exc:
            load_scenario(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, message", [
        ("system s\ntaskkind T initial\n\ntasks x", "line 4: unexpected declaration 'tasks'"),
        ("system s\ntaskkind T initial\nagent A {\n task x : T\n send x\n}",
         "line 5: unexpected keyword 'send' in agent A"),
        ("system s\ntaskkind T initial\nagent A {\n task x : T\n transition t : x -> x on\n"
         " # the tag may start the next line\n timer K\n}",
         "line 7: expected 'input' or 'message', found 'timer'"),
    ], ids=["declaration", "agent-keyword", "trigger-tag"])
    def test_unexpected_keyword_names_its_line(self, text, message):
        with pytest.raises(ScenarioError) as exc:
            load_scenario(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, message", [
        ("system s\ntaskkind (", "line 2: unexpected character '('"),
        ("system s\ntaskkind a=b", "line 2: unexpected character '='"),
        ("system s\ntaskkind a, b", "line 2: unexpected character ','"),
    ], ids=["parenthesis", "equals", "comma"])
    def test_character_no_rule_reads_is_refused_as_such(self, text, message):
        """The scanner knows only the symbols a scenario rule reads."""
        with pytest.raises(ScenarioError) as exc:
            load_scenario(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, message", [
        ("system s\ntaskkind", "line 2: expected identifier, found 'end of input'"),
        ("system s\ntaskkind T initial\nagent A {\n# no tasks yet\n",
         "line 3: expected '}', found 'end of input'"),
        ("system s\ntaskkind T initial\nagent A {\n task x : T\n transition t : x -> x on",
         "line 5: expected 'input' or 'message', found 'end of input'"),
    ], ids=["declaration", "agent-block", "trigger-tag"])
    def test_end_of_input_names_its_line(self, text, message):
        """An early end is reported at the last line with content."""
        with pytest.raises(ScenarioError) as exc:
            load_scenario(text)
        assert str(exc.value) == message

    def test_duplicate_source_trigger_rejected(self):
        text = (
            "system s\ntaskkind T initial\ntaskkind W\ninputkind K\n"
            "agent A { task x : T\n task y : W\n"
            " transition a : x -> y on input K\n"
            " transition b : x -> x on input K }"
        )
        with pytest.raises(ScenarioError):
            load_scenario(text)

    def test_comments_and_blank_lines_ignored(self, scenario):
        text = "# leading comment\n\n" + print_scenario(scenario)
        assert load_scenario(text) == scenario


class TestSnapshots:
    def test_init(self, scenario):
        snap = init_snapshot(scenario)
        assert snap.clock == 0
        assert snap.seq == 0
        assert {n: a.task for n, a in snap.agents.items()} == {
            "Master": "Init", "Slave1": "Init", "Slave2": "Init",
        }
        assert snap.active == set()
        assert snap.in_transit == {}

    def test_init_seeds_timed_counters(self):
        s = load_scenario((DATA / "timed_relay.scn").read_text())
        snap = init_snapshot(s)
        assert snap.restarted == {
            ("Timer", "t1"): Fraction(0),
            ("Timer", "t2"): Fraction(0),
        }

    def test_state_is_frozen(self, scenario):
        state = init_snapshot(scenario).agents["Master"]
        with pytest.raises(FrozenInstanceError):
            state.task = "Go"
        assert not hasattr(AgentState, "clone")

    def test_clone_shares_states(self, scenario):
        """A clone has new dicts holding the same states; replacing one
        agent's state in the copy leaves the original as it was."""
        snap = init_snapshot(scenario)
        msg = snap.new_message("Stop", "Master", "Slave1")
        snap.in_transit[msg.ident] = msg
        copy = snap.clone()
        assert copy == snap
        assert all(copy.agents[name] is state for name, state in snap.agents.items())
        assert copy.agents is not snap.agents
        assert copy.in_transit is not snap.in_transit
        assert copy.restarted is not snap.restarted
        assert copy.active is not snap.active
        original = snap.agents["Master"]
        copy.agents["Master"] = replace(original, task="Go", inputs={"Obstacle": 1})
        del copy.in_transit[msg.ident]
        assert snap.agents["Master"] is original
        assert original == AgentState(task="Init")
        assert snap.in_transit == {msg.ident: msg}


class TestConformance:
    def test_fresh_snapshot_conforms(self, scenario):
        assert check_conformance(init_snapshot(scenario), scenario) == []

    def test_negative_clock(self, scenario):
        snap = init_snapshot(scenario)
        snap.clock = Fraction(-1)
        assert check_conformance(snap, scenario) == ["clock is negative: -1"]

    def test_agent_set_mismatch(self, scenario):
        snap = init_snapshot(scenario)
        del snap.agents["Slave2"]
        assert check_conformance(snap, scenario) == [
            "snapshot agents ['Master', 'Slave1'] do not match scenario agents "
            "['Master', 'Slave1', 'Slave2']"
        ]

    def test_undeclared_task(self, scenario):
        snap = init_snapshot(scenario)
        snap.agents["Master"] = replace(snap.agents["Master"], task="Phantom")
        assert check_conformance(snap, scenario) == [
            "agent Master is at undeclared task 'Phantom'"
        ]

    def test_undeclared_input_kind(self, scenario):
        snap = init_snapshot(scenario)
        snap.agents["Master"] = replace(snap.agents["Master"], inputs={"Banana": 1})
        assert check_conformance(snap, scenario) == [
            "agent Master holds undeclared input 'Banana'"
        ]

    def test_message_must_be_somewhere_once(self, scenario):
        snap = init_snapshot(scenario)
        msg = snap.new_message("Stop", "Master", "Slave1")
        snap.in_transit[msg.ident] = msg
        assert check_conformance(snap, scenario) == []
        # the same message both in transit and held: containment violated
        snap.agents["Slave1"] = replace(snap.agents["Slave1"], messages={msg.ident: msg})
        assert check_conformance(snap, scenario) == [
            "message 0 contained by both system and agent Slave1"
        ]

    def test_undeclared_message_kind(self, scenario):
        snap = init_snapshot(scenario)
        msg = snap.new_message("Telegram", "Master", "Slave1")
        snap.in_transit[msg.ident] = msg
        assert check_conformance(snap, scenario) == [
            "in-transit message of undeclared kind 'Telegram'"
        ]

    def test_restart_stamp_after_clock(self):
        """A counter restarted later than now would have negative elapsed time."""
        s = load_scenario((DATA / "timed_relay.scn").read_text())
        snap = init_snapshot(s)
        snap.restarted[("Timer", "t1")] = Fraction(1, 2)
        assert check_conformance(snap, s) == [
            "restart stamp 0.5 on transition ('Timer', 't1') is after the clock"
        ]
        snap.clock = Fraction(1, 2)
        assert check_conformance(snap, s) == []

    @pytest.mark.parametrize("changes,violation", [
        ({"task": "Phantom"}, "agent Master is at undeclared task 'Phantom'"),
        ({"inputs": {"Banana": 1}}, "agent Master holds undeclared input 'Banana'"),
        ({"inputs": {"Obstacle": -1}}, "agent Master: negative input count for 'Obstacle'"),
        ({"messages": {9: Message(9, "Telegram", "Slave1", "Master")}},
         "agent Master holds undeclared message 'Telegram'"),
        ({"messages": {9: Message(9, "Stop", "Nobody", "Master")}},
         "message 9 has undeclared sender 'Nobody'"),
    ], ids=["undeclared-task", "undeclared-input", "negative-count",
            "undeclared-message", "unknown-sender"])
    def test_checked_state_swapped_for_a_corrupt_one(self, scenario, changes, violation):
        """A conformant state is remembered by object, not by agent or task:
        a corrupt replacement, even at the same task, is checked, and it is
        reported on every check, not only the first."""
        snap = init_snapshot(scenario)
        assert check_conformance(snap, scenario) == []
        snap.agents["Master"] = replace(snap.agents["Master"], **changes)
        assert check_conformance(snap, scenario) == [violation]
        assert check_conformance(snap, scenario) == [violation]

    def test_restart_stamp_keys_must_match(self):
        s = load_scenario((DATA / "timed_relay.scn").read_text())
        snap = init_snapshot(s)
        del snap.restarted[("Timer", "t2")]
        assert check_conformance(snap, s) == [
            "missing restart stamp for timed transition ('Timer', 't2')"
        ]

    def test_active_mark_on_undeclared_agent(self, scenario):
        snap = init_snapshot(scenario)
        snap.active = {"Master", "Ghost"}
        assert check_conformance(snap, scenario) == [
            "active mark on undeclared agent 'Ghost'"
        ]

    def test_task_of_undeclared_kind(self):
        """Only an unvalidated scenario can declare a task of an unknown kind."""
        s = Scenario("bare", (("Start", True),), (), (), (
            AgentDef("A", (("S", "Start"), ("W", "Nope"))),
        ))
        snap = init_snapshot(s)
        snap.agents["A"] = replace(snap.agents["A"], task="W")
        assert check_conformance(snap, s) == [
            "agent A: task 'W' has undeclared kind 'Nope'"
        ]

    def test_every_violation_in_order(self):
        """One snapshot that breaks every invariant at once, reported in check order."""
        s = load_scenario((DATA / "timed_relay.scn").read_text())
        snap = init_snapshot(s)
        snap.clock = Fraction(-1)
        del snap.agents["Sink"]
        snap.agents["Ghost"] = AgentState(task="S")
        snap.agents["Timer"] = replace(
            snap.agents["Timer"], task="Z", inputs={"Go": -1},
            messages={0: Message(0, "Pong", "Nobody", "Timer")},
        )
        snap.in_transit[0] = Message(0, "Ping", "Timer", "Ghost")
        snap.in_transit[1] = Message(1, "Pong", "Timer", "Sink")
        snap.active = {"Ghost", "Sink", "Timer"}
        snap.restarted[("Timer", "t0")] = Fraction(-1)
        snap.restarted[("Timer", "t1")] = Fraction(2)
        del snap.restarted[("Timer", "t2")]
        assert check_conformance(snap, s) == [
            "clock is negative: -1",
            "snapshot agents ['Ghost', 'Timer'] do not match scenario agents "
            "['Sink', 'Timer']",
            "agent Timer is at undeclared task 'Z'",
            "agent Timer holds undeclared input 'Go'",
            "agent Timer: negative input count for 'Go'",
            "agent Timer holds undeclared message 'Pong'",
            "message 0 has undeclared sender 'Nobody'",
            "in-transit message 0 has undeclared endpoints",
            "in-transit message of undeclared kind 'Pong'",
            "message 0 contained by both system and agent Timer",
            "active mark on undeclared agent 'Ghost'",
            "restart stamp 2 on transition ('Timer', 't1') is after the clock",
            "restart stamp for non-timed transition ('Timer', 't0')",
            "missing restart stamp for timed transition ('Timer', 't2')",
        ]

    @staticmethod
    def hold(snap, name, *msgs):
        snap.agents[name] = replace(snap.agents[name], messages={m.ident: m for m in msgs})

    def relay_snapshot(self, s):
        """timed_relay at clock 4: Ping 0 in transit, Ping 1 held by Sink."""
        snap = init_snapshot(s)
        snap.clock = 4
        snap.next_message_id = 2
        snap.in_transit[0] = Message(0, "Ping", "Timer", "Sink")
        self.hold(snap, "Sink", Message(1, "Ping", "Timer", "Sink"))
        return snap

    @pytest.mark.parametrize("corrupt,violations", [
        (lambda t, snap: t.hold(snap, "Sink", *snap.agents["Sink"].messages.values(),
                                snap.in_transit[0]),
         ["message 0 contained by both system and agent Sink"]),
        (lambda t, snap: t.hold(snap, "Timer", *snap.agents["Sink"].messages.values()),
         ["message 1 contained by both agent Timer and agent Sink"]),
        (lambda t, snap: snap.active.update({"Sink", "Ghost", "Alien"}),
         ["active mark on undeclared agent 'Alien'",
          "active mark on undeclared agent 'Ghost'"]),
        (lambda t, snap: snap.restarted.update({("Timer", "t0"): 1}),
         ["restart stamp for non-timed transition ('Timer', 't0')"]),
        (lambda t, snap: snap.restarted.update({("Timer", "t1"): 5}),
         ["restart stamp 5 on transition ('Timer', 't1') is after the clock"]),
        (lambda t, snap: snap.restarted.update({("Timer", "t2"): Fraction(9, 2)}),
         ["restart stamp 4.5 on transition ('Timer', 't2') is after the clock"]),
        (lambda t, snap: snap.restarted.pop(("Timer", "t2")),
         ["missing restart stamp for timed transition ('Timer', 't2')"]),
        (lambda t, snap: snap.restarted.update({("Timer", "t2"): 4}), []),
        (lambda t, snap: setattr(snap, "restarted", dict(reversed(snap.restarted.items()))),
         []),
        (lambda t, snap: (
            snap.restarted.update({("Timer", "t2"): 7, ("Sink", "u1"): 0}),
            snap.active.add("Ghost"),
            t.hold(snap, "Timer", snap.in_transit[0], *snap.agents["Sink"].messages.values()),
        ), [
            "message 0 contained by both system and agent Timer",
            "message 1 contained by both agent Timer and agent Sink",
            "active mark on undeclared agent 'Ghost'",
            "restart stamp 7 on transition ('Timer', 't2') is after the clock",
            "restart stamp for non-timed transition ('Sink', 'u1')",
        ]),
    ], ids=["transit-and-agent", "two-agents", "undeclared-marks", "non-timed-stamp",
            "stamp-after-clock", "non-whole-stamp-after-clock", "missing-stamp",
            "stamp-at-clock", "stamps-reordered", "several-at-once"])
    def test_cross_agent_violation(self, corrupt, violations):
        """Each cross-agent check, and several at once, in check order: a
        snapshot whose counts say nothing is wrong gets no violation, and one
        with a fault gets the walk's exact text."""
        s = load_scenario((DATA / "timed_relay.scn").read_text())
        snap = self.relay_snapshot(s)
        assert check_conformance(snap, s) == []
        corrupt(self, snap)
        assert check_conformance(snap, s) == violations
        assert check_conformance(snap, s) == violations


class TestBindings:
    def snapshot(self, scenario):
        snap = init_snapshot(scenario)
        snap.agents["Master"] = replace(snap.agents["Master"], task="Go",
                                        inputs={"Obstacle": 1})
        snap.active.add("Master")
        msg = snap.new_message("Stop", "Master", "Slave1")
        snap.agents["Slave1"] = replace(snap.agents["Slave1"], messages={msg.ident: msg})
        transit = snap.new_message("Stop", "Master", "Slave2")
        snap.in_transit[transit.ident] = transit
        return snap

    @pytest.mark.parametrize("template,args,expected", [
        ("task_current", ("Master", "Go"), True),
        ("task_current", ("Master", "Init"), False),
        ("input_present", ("Master", "Obstacle"), True),
        ("input_present", ("Slave1", "Obstacle"), False),
        ("message_held", ("Slave1", "Stop"), True),
        ("message_held", ("Slave2", "Stop"), False),
        ("message_in_transit", ("Stop", "Master", "Slave2"), True),
        ("message_in_transit", ("Stop", "Master", "Slave1"), False),
        ("agent_active", ("Master",), True),
        ("agent_active", ("Slave1",), False),
    ])
    def test_eval(self, scenario, template, args, expected):
        snap = self.snapshot(scenario)
        assert eval_binding(Binding(template, tuple(args)), snap) is expected

    def test_arity_checked(self):
        with pytest.raises(ScenarioError):
            Binding("agent_active", ("A", "B"))
        with pytest.raises(ScenarioError):
            Binding("message_in_transit", ("Stop", "A"))

    def test_unknown_template(self):
        with pytest.raises(ScenarioError):
            Binding("message_count", ("A",))

    def test_parse_print_round_trip(self):
        text = (DATA / "master_saviour.bindings").read_text()
        bindings = parse_bindings(text)
        assert bindings == {
            "o": Binding("input_present", ("Master", "Obstacle")),
            "m1": Binding("message_held", ("Slave1", "Stop")),
            "m2": Binding("message_held", ("Slave2", "Stop")),
        }
        assert parse_bindings(print_bindings(bindings)) == bindings

    def test_parse_rejects_garbage(self):
        with pytest.raises(ScenarioError):
            parse_bindings("prop = input_present(A, B)")
        with pytest.raises(ScenarioError):
            parse_bindings("o := input_present(A, B)")

    @pytest.mark.parametrize("text, message", [
        ("# a proposition per line\nprop m1 = message_held(Slave1, prop Stop)",
         "line 2: cannot parse binding 'prop m1 = message_held(Slave1, prop Stop)'"),
        ("prop o = agent_active(A, )", "line 1: cannot parse binding 'prop o = agent_active(A, )'"),
        ("prop o = agent_active(A)\n\nprop m1 = message_held(Slave1)",
         "line 3: message_held takes 2 arguments, got 1"),
        ("prop o = agent_active(A)\nprop c = message_count(A)",
         "line 2: unknown binding template 'message_count'"),
    ], ids=["argument-not-a-name", "empty-argument", "arity", "template"])
    def test_parse_errors_name_their_line(self, text, message):
        with pytest.raises(ScenarioError) as exc:
            parse_bindings(text)
        assert str(exc.value) == message

    def test_duplicate_names_rejected(self):
        with pytest.raises(ScenarioError):
            parse_bindings(
                "prop o = agent_active(A)\nprop o = agent_active(B)"
            )

    def test_validate_against_scenario(self, scenario):
        good = parse_bindings("prop o = input_present(Master, Obstacle)")
        validate_bindings(good, scenario)
        for bad in (
            "prop o = input_present(Ghost, Obstacle)",
            "prop o = input_present(Master, Banana)",
            "prop o = message_held(Slave1, Telegram)",
            "prop o = task_current(Master, Nowhere)",
        ):
            with pytest.raises(ScenarioError):
                validate_bindings(parse_bindings(bad), scenario)
