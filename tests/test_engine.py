"""Simulation rules, environment policies, and the layered step."""

import copy
import gc
import hashlib
import importlib.util
import json
import re
import sys
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import gen_scenario
from tempoweave import engine
from tempoweave.cli import load_properties
from tempoweave.engine import (
    EngineInvariantError,
    InteractivePolicy,
    RuleMatch,
    ScheduleEntry,
    ScriptedPolicy,
    SeededPolicy,
    SimulationError,
    apply_match,
    coordinate_step,
    enabled,
    find_matches,
    fire_transition,
    parse_schedule,
    run,
    step_time,
)
from tempoweave.formula import parse_bare_formula, parse_formula
from tempoweave.model import (
    Message,
    ScenarioError,
    check_conformance,
    init_snapshot,
    load_scenario,
    parse_bindings,
)
from tempoweave.monitor import MonitorState
from tempoweave.trace import check_trace, trace_lines
from tempoweave.verdict import Verdict

DATA = Path(__file__).parent / "data"
RULES = ["insert_input", "insert_effective_input", "delete_input", "receive_message"]


@pytest.fixture
def scenario():
    return load_scenario((DATA / "master_saviour.scn").read_text())


@pytest.fixture
def timed():
    return load_scenario((DATA / "timed_relay.scn").read_text())


def transition(scenario, agent, ident):
    """The transition `ident` of `agent`, as `enabled` yields it."""
    return next(t for t in scenario.agent(agent).transitions if t.ident == ident)


def started(scenario):
    """Snapshot after all agents left their start tasks, marks cleared."""
    snap = init_snapshot(scenario)
    initial = [(name, t) for name in scenario.agent_names
               for t, _ in enabled(scenario, snap, name) if t.trigger is None]
    for name, t in initial:
        fire_transition(scenario, snap, name, t)
    snap.active = set()
    return snap


class TestBehaviouralRules:
    def test_initial_fire(self, scenario):
        snap = init_snapshot(scenario)
        fire_transition(scenario, snap, "Master", transition(scenario, "Master", "m0"))
        assert snap.agents["Master"].task == "Go"
        assert "Master" in snap.active

    def test_initial_fire_requires_initial_task(self, scenario):
        snap = started(scenario)
        with pytest.raises(SimulationError):
            fire_transition(scenario, snap, "Master", transition(scenario, "Master", "m0"))

    def test_input_fire_keeps_the_input(self, scenario):
        snap = started(scenario)
        snap.agents["Master"] = replace(snap.agents["Master"], inputs={"Obstacle": 1})
        fire_transition(scenario, snap, "Master", transition(scenario, "Master", "m1"))
        assert snap.agents["Master"].task == "Blocked"
        assert snap.agents["Master"].inputs["Obstacle"] == 1  # not consumed
        kinds = sorted(
            (m.kind, m.recipient) for m in snap.in_transit.values()
        )
        assert kinds == [("Stop", "Slave1"), ("Stop", "Slave2")]

    def test_input_fire_requires_the_input(self, scenario):
        snap = started(scenario)
        with pytest.raises(SimulationError):
            fire_transition(scenario, snap, "Master", transition(scenario, "Master", "m1"))

    def test_active_agent_cannot_fire_again(self, scenario):
        snap = started(scenario)
        snap.agents["Master"] = replace(snap.agents["Master"], inputs={"Obstacle": 1})
        snap.active.add("Master")
        with pytest.raises(SimulationError):
            fire_transition(scenario, snap, "Master", transition(scenario, "Master", "m1"))

    def test_guard_fire_consumes_exactly_one_message(self, scenario):
        snap = started(scenario)
        for _ in range(2):
            msg = snap.new_message("Stop", "Master", "Slave1")
            state = snap.agents["Slave1"]
            snap.agents["Slave1"] = replace(state, messages={**state.messages, msg.ident: msg})
        fire_transition(scenario, snap, "Slave1", transition(scenario, "Slave1", "s1"),
                        message_id=0)
        assert snap.agents["Slave1"].task == "Halt"
        assert len(snap.agents["Slave1"].messages) == 1
        assert [m.kind for m in snap.in_transit.values()] == ["Stopped"]

    def test_timed_fire_threshold_inclusive_and_reset(self, timed):
        snap = started(timed)
        snap.clock = Fraction(3)  # 3 since the restart at 0
        fire_transition(timed, snap, "Timer", transition(timed, "Timer", "t1"))
        assert snap.agents["Timer"].task == "B"
        assert snap.restarted[("Timer", "t1")] == snap.clock
        assert [m.kind for m in snap.in_transit.values()] == ["Ping"]

    def test_timed_fire_below_threshold(self, timed):
        snap = started(timed)
        snap.clock = Fraction(5, 2)
        with pytest.raises(SimulationError):
            fire_transition(timed, snap, "Timer", transition(timed, "Timer", "t1"))


class TestEnvironmentalRules:
    def test_insert_input(self, scenario):
        snap = started(scenario)
        apply_match(
            scenario, snap,
            RuleMatch("insert_input", agent="Slave1", input_kind="Obstacle"),
        )
        assert snap.agents["Slave1"].inputs["Obstacle"] == 1

    def test_effective_insert_needs_a_reacting_transition(self, scenario):
        snap = started(scenario)
        apply_match(
            scenario, snap,
            RuleMatch("insert_effective_input", agent="Master",
                      input_kind="Obstacle"),
        )
        with pytest.raises(SimulationError):
            apply_match(
                scenario, snap,
                RuleMatch("insert_effective_input", agent="Slave1",
                          input_kind="Obstacle"),
            )

    def test_failed_precondition_leaves_snapshot_unchanged(self, scenario):
        class Returning:
            """A policy that returns one match whatever is listed."""
            def __init__(self, match):
                self.match = match

            def choose(self, step_no, scenario, snap, matches):
                return self.match

        snap = started(scenario)
        before = copy.deepcopy(snap)
        for match in (
            RuleMatch("delete_input", agent="Master", input_kind="Obstacle"),
            RuleMatch("insert_effective_input", agent="Slave1",
                      input_kind="Obstacle"),
            RuleMatch("receive_message", message_id=7),
        ):
            with pytest.raises(SimulationError):
                apply_match(scenario, snap, match)
            # a policy is held to the listed matches too
            with pytest.raises(SimulationError, match=f"lists no {re.escape(str(match))}$"):
                coordinate_step(scenario, snap, Returning(match), [], {}, Fraction(1))
        m0, m1 = (transition(scenario, "Master", ident) for ident in ("m0", "m1"))
        with pytest.raises(SimulationError):
            fire_transition(scenario, snap, "Master", m1)  # no Obstacle held
        with pytest.raises(SimulationError):
            step_time(snap, Fraction(0))
        assert snap == before
        # m1 is enabled now, and each input differs from it in one part
        snap.agents["Master"] = replace(snap.agents["Master"], inputs={"Obstacle": 1})
        assert list(enabled(scenario, snap, "Master")) == [(m1, None)]
        before = copy.deepcopy(snap)
        for agent, t, message_id in (
            ("Master", m1, 0),  # a message id, but m1 is not a message guard
            ("Master", m0, None),  # out of Init, and Master is at Go
            ("Nobody", m1, None),  # an unknown agent
        ):
            with pytest.raises(SimulationError):
                fire_transition(scenario, snap, agent, t, message_id)
        assert snap == before

    def test_delete_input(self, scenario):
        snap = started(scenario)
        snap.agents["Master"] = replace(snap.agents["Master"], inputs={"Obstacle": 1})
        apply_match(
            scenario, snap,
            RuleMatch("delete_input", agent="Master", input_kind="Obstacle"),
        )
        assert snap.agents["Master"].inputs == {}
        with pytest.raises(SimulationError):
            apply_match(scenario, snap,
                        RuleMatch("delete_input", agent="Master",
                                  input_kind="Obstacle"))

    def test_receive_sets_recipient_active(self, scenario):
        snap = started(scenario)
        msg = snap.new_message("Stop", "Master", "Slave1")
        snap.in_transit[msg.ident] = msg
        apply_match(
            scenario, snap, RuleMatch("receive_message", message_id=msg.ident)
        )
        assert snap.in_transit == {}
        assert snap.agents["Slave1"].messages[msg.ident].kind == "Stop"
        assert "Slave1" in snap.active


class TestGlobalRules:
    def test_step_time_advances_clock_and_counters(self, timed):
        """A counter is a restart stamp, so it advances with the clock and
        step_time writes nothing but the clock."""
        snap = started(timed)
        snap.clock = clock = Fraction(1)  # 1 since the restart at 0
        restarted = dict(snap.restarted)
        step_time(snap, Fraction(3, 2))
        assert snap.clock == clock + Fraction(3, 2)
        assert snap.clock - snap.restarted[("Timer", "t1")] == Fraction(5, 2)
        assert snap.restarted == restarted

    def test_step_time_rejects_nonpositive(self, scenario):
        snap = init_snapshot(scenario)
        for bad in (Fraction(0), Fraction(-1)):
            with pytest.raises(SimulationError):
                step_time(snap, bad)

    def test_step_time_prints_the_delta_as_a_decimal(self, scenario):
        with pytest.raises(SimulationError, match=r"time step must be positive, got -0\.5$"):
            step_time(init_snapshot(scenario), Fraction(-1, 2))

    def test_remove_active_marks(self, scenario):
        """Layer 5 swaps an empty set in: the marks go to the entry, and the
        recorded snapshot holds none."""
        entry = coordinate_step(scenario, init_snapshot(scenario), ScriptedPolicy({}),
                                [], {}, Fraction(1))
        assert entry.active == {"Master", "Slave1", "Slave2"}
        assert entry.snapshot.active == set()


class TestMatching:
    def test_initial_matches_everyone_at_start(self, scenario):
        snap = init_snapshot(scenario)
        got = [name for name in scenario.agent_names
               for t, _ in enabled(scenario, snap, name) if t.trigger is None]
        assert got == ["Master", "Slave1", "Slave2"]

    def test_no_behavioural_matches_after_start(self, scenario):
        snap = started(scenario)
        for name in scenario.agent_names:
            assert list(enabled(scenario, snap, name)) == []

    def test_two_transit_messages_give_two_receive_matches(self, scenario):
        snap = started(scenario)
        for _ in range(2):
            msg = snap.new_message("Stop", "Master", "Slave1")
            snap.in_transit[msg.ident] = msg
        got = [m for m in find_matches(scenario, snap) if m.rule == "receive_message"]
        assert [m.message_id for m in got] == [0, 1]

    def test_guard_matches_bind_each_held_message(self, scenario):
        snap = started(scenario)
        for _ in range(2):
            msg = snap.new_message("Stop", "Master", "Slave1")
            state = snap.agents["Slave1"]
            snap.agents["Slave1"] = replace(state, messages={**state.messages, msg.ident: msg})
        got = [(name, message_id) for name in scenario.agent_names
               for t, message_id in enabled(scenario, snap, name)
               if t.trigger == ("message", "Stop")]
        assert got == [
            ("Slave1", 0), ("Slave1", 1),
        ]

    def test_environmental_matches_order(self, scenario):
        snap = started(scenario)
        snap.agents["Master"] = replace(snap.agents["Master"], inputs={"Obstacle": 1})
        rules = [m.rule for m in find_matches(scenario, snap)]
        # grouped by rule in the fixed precedence
        assert rules == sorted(rules, key=[
            "insert_input", "insert_effective_input", "delete_input",
            "receive_message",
        ].index)

    def test_unknown_rule(self, scenario):
        with pytest.raises(SimulationError, match=re.escape(
                "find_matches lists no RuleMatch(rule='teleport', agent=None, "
                "input_kind=None, message_id=None)")):
            apply_match(scenario, init_snapshot(scenario), RuleMatch("teleport"))

    @staticmethod
    def candidates(scenario, snap):
        """Every rule and `teleport`, on every agent and `Nobody` with every
        input kind and `Nothing`, or on every message id up to the next;
        then an insert carrying a message id and receives carrying an agent,
        which `find_matches` never lists."""
        agents = [*scenario.agent_names, "Nobody"]
        kinds = [*scenario.input_kinds, "Nothing"]
        ids = range(snap.next_message_id + 1)
        for rule in (*RULES, "teleport"):
            yield from (RuleMatch(rule, agent, kind) for agent in agents for kind in kinds)
            yield from (RuleMatch(rule, message_id=ident) for ident in ids)
        yield RuleMatch("insert_input", agents[0], kinds[0], message_id=0)
        yield from (RuleMatch("receive_message", agents[0], message_id=ident) for ident in ids)

    @pytest.mark.parametrize("source", [*sorted(p.stem for p in DATA.glob("*.scn")), *range(4)],
                             ids=lambda s: f"gen_scenario({s})" if isinstance(s, int) else s)
    def test_apply_match_accepts_exactly_the_listed_matches(self, source):
        """On each state of seeded runs, `apply_match` applies a candidate
        exactly when `find_matches` lists it; it refuses the rest with
        SimulationError and leaves the snapshot as it was."""
        scenario = (gen_scenario(source) if isinstance(source, int)
                    else load_scenario((DATA / f"{source}.scn").read_text()))
        for seed in range(2):
            for entry in run(scenario, [], {}, SeededPolicy(seed), steps=40):
                snap = entry.snapshot
                before = copy.deepcopy(snap)
                accepted = set()
                for match in self.candidates(scenario, snap):
                    work = snap.clone()
                    try:
                        apply_match(scenario, work, match)
                    except SimulationError:
                        assert work == before, match
                    else:
                        accepted.add(match)
                        assert check_conformance(work, scenario) == [], match
                listed = find_matches(scenario, snap)
                assert accepted == set(listed), (source, seed, snap.seq)
                assert snap == before

    def test_effective_inserts_follow_declaration_order(self):
        """Not id order, not input-kind order: the order the transitions are declared."""
        sc = load_scenario(
            "system order\ntaskkind Start initial\ntaskkind Work\n"
            "inputkind Alpha\ninputkind Zed\n"
            "agent A {\n task S : Start\n task V : Work\n task W : Work\n"
            " transition b : S -> W on input Zed\n"
            " transition a : S -> V on input Alpha\n}\n"
        )
        got = [m for m in find_matches(sc, init_snapshot(sc))
               if m.rule == "insert_effective_input"]
        assert got == [
            RuleMatch("insert_effective_input", agent="A", input_kind="Zed"),
            RuleMatch("insert_effective_input", agent="A", input_kind="Alpha"),
        ]


def unmemoised_matches(scenario, snap):
    """`find_matches` as it was before it kept matches per state object."""
    agents = sorted(snap.agents.items())
    return (
        [RuleMatch("insert_input", name, kind)
         for name, _ in agents for kind in scenario.input_kinds]
        + [RuleMatch("insert_effective_input", name, kind)
           for name, state in agents
           for kind in scenario.reacting_inputs.get((name, state.task), ())]
        + [RuleMatch("delete_input", name, kind)
           for name, state in agents
           for kind in sorted(state.inputs) if state.inputs[kind] > 0]
        + [RuleMatch("receive_message", message_id=ident) for ident in sorted(snap.in_transit)]
    )


class CheckedSeededPolicy(SeededPolicy):
    """SeededPolicy that first holds the engine's match list to the memo-free one."""

    def __init__(self, seed):
        super().__init__(seed)
        self.steps = 0

    def choose(self, step_no, scenario, snap, matches):
        assert matches == unmemoised_matches(scenario, snap), step_no
        self.steps += 1
        return super().choose(step_no, scenario, snap, matches)


class TestMatchMemo:
    @pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.scn")))
    def test_memo_gives_the_unmemoised_matches(self, name):
        scenario = load_scenario((DATA / f"{name}.scn").read_text())
        for seed in range(5):
            policy = CheckedSeededPolicy(seed)
            for _ in run(scenario, [], {}, policy, steps=100):
                pass
            assert policy.steps == 100

    def test_memo_gives_the_unmemoised_matches_generated(self):
        for i in range(50):
            policy = CheckedSeededPolicy(i)
            for _ in run(gen_scenario(i), [], {}, policy, steps=100):
                pass
            assert policy.steps == 100, i

    def test_new_state_at_the_same_task_gets_fresh_delete_matches(self, scenario):
        delete = RuleMatch("delete_input", "Master", "Obstacle")
        snap = started(scenario)
        assert delete not in find_matches(scenario, snap)
        for count in (2, 0, 1):
            snap.agents["Master"] = replace(snap.agents["Master"],
                                            inputs={"Obstacle": count} if count else {})
            assert (delete in find_matches(scenario, snap)) == (count > 0)
            assert find_matches(scenario, snap) == unmemoised_matches(scenario, snap)

    @pytest.mark.parametrize("name", ["master_saviour", "broadcast"])
    def test_memo_holds_one_entry_per_agent(self, name):
        scenario = load_scenario((DATA / f"{name}.scn").read_text())
        *_, last = run(scenario, [], {}, SeededPolicy(3), steps=200, early_stop=False)
        assert last.snapshot.seq == 200
        assert scenario.env_matches.keys() == scenario.agent_set


class TestSchedules:
    def test_parse(self):
        text = (DATA / "fast.sched").read_text()
        schedule = parse_schedule(text)
        assert schedule[3] == ScheduleEntry("insert_effective_input",
                                            kind="Obstacle", agent="Master")
        assert schedule[4] == ScheduleEntry("delete_input", kind="Obstacle",
                                            agent="Master")
        assert schedule[5] == ScheduleEntry("receive_message", kind="Stop",
                                            sender="Master", recipient="Slave1")

    def test_noop_and_plain_insert(self):
        schedule = parse_schedule("at 1: noop\nat 2: insert K into A\n")
        assert schedule[1] == ScheduleEntry(None)
        assert schedule[2] == ScheduleEntry("insert_input", kind="K", agent="A")

    @pytest.mark.parametrize("text", [
        "at 2: noop\nat 1: noop",     # steps must increase
        "at 1: noop\nat 1: noop",
        "step 1: noop",
        "at 1: explode K",
        "at 1: insert K",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ScenarioError):
            parse_schedule(text)

    def test_step_0_is_refused(self):
        """Steps are numbered from 1, as `coordinate_step` numbers them."""
        with pytest.raises(ScenarioError, match="^line 1: schedule steps start at 1$"):
            parse_schedule("at 0: noop")
        with pytest.raises(ScenarioError, match="^line 2: schedule steps start at 1$"):
            parse_schedule("# first\nat 00: insert K into A\nat 1: noop")

    @pytest.mark.parametrize("rule", ["insert", "noop", "insert_inputs", ""])
    def test_unknown_rule_is_refused_at_the_first_choice(self, scenario, rule):
        """An entry names a `RuleMatch` rule or None; the policy checks the
        whole schedule at its first choice, so step 1 refuses step 3's."""
        policy = ScriptedPolicy({1: ScheduleEntry(None),
                                 3: ScheduleEntry(rule, kind="Obstacle", agent="Master")})
        snap = started(scenario)
        with pytest.raises(SimulationError, match=f"^step 3: unknown rule {rule!r}$"):
            policy.choose(1, scenario, snap, find_matches(scenario, snap))

    @pytest.mark.parametrize("name", ["master_saviour", "broadcast"])
    def test_every_listed_match_has_one_schedule_text(self, name):
        """The schedule syntax of each environmental rule, stated here apart
        from the engine's table: on seeded runs, every match `find_matches`
        lists is written as its entry, which parses to that match's rule and
        which `ScriptedPolicy` turns back into the first listed match with
        the same text (the match itself, unless an earlier in-transit message
        has the same kind, sender and recipient)."""
        syntax = {
            "insert_input": "insert {input_kind} into {agent}",
            "insert_effective_input": "insert! {input_kind} into {agent}",
            "delete_input": "delete {input_kind} from {agent}",
            "receive_message": "receive {kind} from {sender} at {recipient}",
        }
        scenario = load_scenario((DATA / f"{name}.scn").read_text())
        seen = set()

        class Checked(SeededPolicy):
            def choose(self, step_no, scenario, snap, matches):
                texts = [syntax[m.rule].format(**m._asdict(), **(
                    vars(snap.in_transit[m.message_id]) if m.message_id is not None else {}))
                    for m in matches]
                for m, text in zip(matches, texts):
                    entry = parse_schedule(f"at {step_no}: {text}")[step_no]
                    assert entry.rule == m.rule, text
                    chosen = ScriptedPolicy({step_no: entry}).choose(
                        step_no, scenario, snap, matches)
                    assert chosen is matches[texts.index(text)], text
                    seen.add(m.rule)
                noop = parse_schedule(f"at {step_no}: noop")
                assert noop == {step_no: ScheduleEntry(None)}
                assert ScriptedPolicy(noop).choose(step_no, scenario, snap, matches) is None
                return super().choose(step_no, scenario, snap, matches)

        for seed in range(3):
            *_, last = run(scenario, [], {}, Checked(seed), steps=100, early_stop=False)
            assert last.snapshot.seq == 100
        assert seen == set(RULES)

    def test_unknown_schedule_name_is_refused_before_step_1(self, scenario):
        """The library's ScriptedPolicy checks its whole schedule at its first
        choice, so `run` yields no entry before a later entry's typo."""
        policy = ScriptedPolicy(parse_schedule("at 5: insert Obstacle into Mastr\n"))
        entries = run(scenario, [], {}, policy, steps=20)
        with pytest.raises(ScenarioError, match="^step 5: unknown agent 'Mastr'$"):
            next(entries)

    def test_inapplicable_delete_is_an_error(self, scenario):
        policy = ScriptedPolicy({1: ScheduleEntry("delete_input", kind="Obstacle",
                                                  agent="Master")})
        snap = started(scenario)
        with pytest.raises(SimulationError):
            policy.choose(1, scenario, snap,
                          find_matches(scenario, snap))

    def test_missing_transit_message_is_an_error(self, scenario):
        policy = ScriptedPolicy({1: ScheduleEntry(
            "receive_message", kind="Stop", sender="Master", recipient="Slave1")})
        snap = started(scenario)
        with pytest.raises(SimulationError):
            policy.choose(1, scenario, snap,
                          find_matches(scenario, snap))


class TestCoordinateStep:
    def props(self):
        return [parse_formula("@Master: G (o -> (within[0,3] m1 & within[0,3] m2))")]

    def bindings(self):
        return parse_bindings((DATA / "master_saviour.bindings").read_text())

    def test_layers_in_order(self, scenario):
        """An input inserted at step k is only fired at step k+1."""
        policy = ScriptedPolicy({1: ScheduleEntry(
            "insert_input", kind="Obstacle", agent="Master")})
        monitors = []
        snap = init_snapshot(scenario)
        entry = coordinate_step(scenario, snap, policy, monitors,
                                {}, Fraction(1))
        # step 1: everyone fired their start transition, then the insert
        assert entry.snapshot.agents["Master"].task == "Go"
        assert entry.snapshot.agents["Master"].inputs["Obstacle"] == 1
        assert entry.active == {"Master", "Slave1", "Slave2"}
        # recorded snapshot has cleared marks
        assert not entry.snapshot.active
        entry2 = coordinate_step(scenario, entry.snapshot, policy, monitors,
                                 {}, Fraction(1))
        assert entry2.snapshot.agents["Master"].task == "Blocked"

    def test_clock_advances_by_delta(self, scenario):
        snap = init_snapshot(scenario)
        entry = coordinate_step(scenario, snap, ScriptedPolicy({}), [],
                                {}, Fraction(1, 2))
        assert entry.snapshot.clock == Fraction(1, 2)
        assert entry.snapshot.seq == 1

    @pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.scn")))
    def test_input_snapshot_untouched(self, name):
        """The rules change one working copy; the step's input stays as it was."""
        sc = load_scenario((DATA / name).read_text())
        policy = SeededPolicy(5)
        snap = init_snapshot(sc)
        for _ in range(30):
            before = copy.deepcopy(snap)  # clone() would share the agent states
            entry = coordinate_step(sc, snap, policy, [], {}, sc.timestep)
            assert snap == before
            assert entry.snapshot is not snap
            snap = entry.snapshot

    def test_fires_go_by_rule_then_agent(self):
        """B's initial fire precedes A's input fire, so B's message is sent first."""
        sc = load_scenario(
            "system order\ntaskkind Start initial\ntaskkind Work\n"
            "inputkind Go\nmessagekind Hello\n"
            "agent A {\n task S : Start\n task W : Work\n task V : Work\n"
            " transition a0 : S -> W\n"
            " transition a1 : W -> V on input Go send Hello to B\n}\n"
            "agent B {\n task S : Start\n task W : Work\n"
            " transition b0 : S -> W send Hello to A\n}\n"
        )
        snap = init_snapshot(sc)
        snap.agents["A"] = replace(snap.agents["A"], task="W", inputs={"Go": 1})
        entry = coordinate_step(sc, snap, ScriptedPolicy({}), [], {},
                                Fraction(1))
        assert {a: s.task for a, s in entry.snapshot.agents.items()} == {
            "A": "V", "B": "W",
        }
        senders = {m.sender: m.ident for m in entry.snapshot.in_transit.values()}
        assert senders == {"B": 0, "A": 1}

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
    def test_layer_check_names_the_layer(self, scenario, changes, violation):
        """A policy that swaps a corrupt state into the working copy fails the
        environmental check."""
        class Corrupting:
            def choose(self, step_no, scenario, snap, matches):
                snap.agents["Master"] = replace(snap.agents["Master"], **changes)
                return None

        with pytest.raises(EngineInvariantError, match="after layer environmental") as exc:
            coordinate_step(scenario, init_snapshot(scenario), Corrupting(), [],
                            {}, Fraction(1))
        assert violation in str(exc.value)

    @staticmethod
    def corrupt_after_layer(monkeypatch, layer, corrupt):
        """The policy for a step whose `layer` ends with corrupt(work); the
        other layers are patched in place."""
        def after(fn, snap_arg):
            """fn, then corrupt the snapshot it was given as args[snap_arg]."""
            def corrupting(*args):
                result = fn(*args)
                corrupt(args[snap_arg])
                return result
            return corrupting

        class Corrupting:
            def choose(self, step_no, scenario, work, matches):
                corrupt(work)
                return None

        if layer == "behavioural":
            monkeypatch.setattr(engine, "fire_transition", after(engine.fire_transition, 1))
        elif layer == "environmental":
            return Corrupting()
        elif layer == "time":
            monkeypatch.setattr(engine, "step_time", after(engine.step_time, 0))
        else:
            monkeypatch.setattr(engine, "dispatch", after(engine.dispatch, 0))
        return ScriptedPolicy({})

    @staticmethod
    def negative_count(work):
        work.agents["Slave1"] = replace(work.agents["Slave1"], inputs={"Obstacle": -1})

    @staticmethod
    def duplicate_id(work):
        """Both slaves hold one message: each state conforms on its own."""
        msg = Message(99, "Stop", "Master", "Slave1")
        for name in ("Slave1", "Slave2"):
            work.agents[name] = replace(work.agents[name], messages={99: msg})

    @pytest.mark.parametrize("layer,corruption,violation", [
        pytest.param(layer, corruption, violation,
                     id=layer if corruption == "negative_count"
                     else f"{layer}-{corruption.replace('_', '-')}")
        for corruption, violation in [
            ("negative_count", "agent Slave1: negative input count for 'Obstacle'"),
            ("duplicate_id", "message 99 contained by both agent Slave1 and agent Slave2"),
        ]
        for layer in ["behavioural", "environmental", "time", "clear"]
    ])
    def test_corrupt_state_swapped_in_at_each_layer(self, scenario, monkeypatch, layer,
                                                    corruption, violation):
        """The check after each layer catches a corrupt state swapped in for
        Slave1's, which the step before checked with the same task and which
        no rule of this step changes, and a message id held twice, which no
        per-agent check sees.  Layer 4 has no check of its own, so a state
        swapped in by dispatch fails the clear check."""
        insert = ScriptedPolicy({1: ScheduleEntry("insert_input", kind="Obstacle", agent="Master")})
        snap = coordinate_step(scenario, init_snapshot(scenario), insert, [], {},
                               Fraction(1)).snapshot  # Master fires m1 next step
        policy = self.corrupt_after_layer(monkeypatch, layer, getattr(self, corruption))
        with pytest.raises(EngineInvariantError, match=f"after layer {layer}:") as exc:
            coordinate_step(scenario, snap, policy, [], {}, Fraction(1))
        assert violation in str(exc.value)

    @pytest.mark.parametrize("layer", ["behavioural", "environmental", "time", "clear"])
    def test_stamp_after_the_clock_at_each_layer(self, timed, monkeypatch, layer):
        """A restart stamp written after the clock, on a timed transition's
        own key, is caught by the check after the layer that wrote it."""
        def corrupt(work):
            work.restarted["Timer", "t1"] = work.clock + 1

        *_, entry = run(timed, [], {}, ScriptedPolicy({}), steps=3)  # Timer fires t1 next
        policy = self.corrupt_after_layer(monkeypatch, layer, corrupt)
        with pytest.raises(EngineInvariantError, match=f"after layer {layer}:") as exc:
            coordinate_step(timed, entry.snapshot, policy, [], {}, Fraction(1))
        stamp = 4 if layer in ("behavioural", "environmental") else 5
        violation = f"restart stamp {stamp} on transition ('Timer', 't1') is after the clock"
        assert str(exc.value) == f"after layer {layer}: {[violation]}"

    def test_unchanged_agents_keep_their_state(self, scenario):
        """A step replaces only the states it changes; the others are shared
        with the previous snapshot."""
        entries = list(run(scenario, [], {}, SeededPolicy(3), steps=100))
        shared = 0
        for prev, entry in zip(entries, entries[1:]):
            for name, state in entry.snapshot.agents.items():
                if name not in entry.active and state == prev.snapshot.agents[name]:
                    assert state is prev.snapshot.agents[name], (entry.snapshot.seq, name)
                    shared += 1
        assert shared > len(entries)

    @pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.scn")))
    def test_time_and_clear_rewrite_nothing(self, name):
        """Layers 3-5 replace no agent state and write no restart stamp: the
        step returns the states and stamps that layer 2 saw."""
        class Spy:
            def choose(self, step_no, scenario, snap, matches):
                self.agents, self.restarted = dict(snap.agents), dict(snap.restarted)
                return None

        sc = load_scenario((DATA / name).read_text())
        spy = Spy()
        for entry in run(sc, [], {}, SeededPolicy(5), steps=30):
            after = coordinate_step(sc, entry.snapshot, spy, [], {}, sc.timestep)
            assert after.snapshot.restarted == spy.restarted
            for agent, state in after.snapshot.agents.items():
                assert state is spy.agents[agent], (entry.snapshot.seq, agent)

    def test_monitor_sees_pre_clear_marks(self, scenario):
        monitors = [MonitorState(p) for p in self.props()]
        snap = init_snapshot(scenario)
        entry = coordinate_step(scenario, snap, ScriptedPolicy({}), monitors,
                                self.bindings(), Fraction(1))
        assert entry.verdicts == [Verdict.TRUE_C]
        assert monitors[0].last_time == Fraction(1)
        assert monitors[0].last_verdict is Verdict.TRUE_C


class TestRun:
    def monitors(self):
        return [MonitorState(parse_formula(
            "@Master: G (o -> (within[0,3] m1 & within[0,3] m2))"))]

    def bindings(self):
        return parse_bindings((DATA / "master_saviour.bindings").read_text())

    def scripted(self, name):
        return ScriptedPolicy(parse_schedule((DATA / name).read_text()))

    def test_prompt_reproduction_fast(self, scenario):
        entries = list(run(scenario, self.monitors(), self.bindings(),
                           self.scripted("fast.sched"), steps=12))
        verdicts = [e.verdicts[0] for e in entries
                    if e.verdicts[0] is not None]
        assert verdicts == [Verdict.TRUE_C] * 4
        assert len(entries) == 12  # ran every step
        for slave in ("Slave1", "Slave2"):
            state = entries[-1].snapshot.agents[slave]
            assert scenario.task_kind_of[slave][state.task] == "Idle"

    def test_prompt_reproduction_slow(self, scenario):
        entries = list(run(scenario, self.monitors(), self.bindings(),
                           self.scripted("slow.sched"), steps=12))
        verdicts = [e.verdicts[0] for e in entries
                    if e.verdicts[0] is not None]
        assert verdicts == [Verdict.TRUE_C, Verdict.FALSE_C,
                            Verdict.FALSE_C, Verdict.FALSE]
        assert len(entries) == 10  # stopped at the final verdict

    def test_no_early_stop_runs_to_completion(self, scenario):
        entries = list(run(scenario, self.monitors(), self.bindings(),
                           self.scripted("slow.sched"), steps=12, early_stop=False))
        assert len(entries) == 12

    def test_single_step(self, scenario):
        assert len(list(run(scenario, [], {}, ScriptedPolicy({}), steps=1))) == 1

    def test_dropped_entry_is_freed(self, scenario):
        """The run keeps no entry: once the caller drops one and takes the
        next, nothing holds the dropped entry's snapshot."""
        entries = run(scenario, self.monitors(), self.bindings(), SeededPolicy(7),
                      steps=5, early_stop=False)
        entry = next(entries)
        dropped = weakref.ref(entry.snapshot)
        del entry
        next(entries)
        assert dropped() is None

    def test_run_and_replay_hold_no_per_step_memory(self, timed):
        """Simulate, write and replay as one lazy chain with two properties
        that never go final: the memory held after 10N steps is within a
        small bound of that held after N."""
        n = 50
        props = [parse_formula("@Timer: G a"), parse_formula("@Sink: G b")]
        bindings = parse_bindings(
            "prop a = agent_active(Timer)\nprop b = agent_active(Sink)\n")
        held = {}

        def measured(entries):
            for steps, entry in enumerate(entries, start=1):
                if steps in (n, 10 * n):
                    # each monitor step leaves reference cycles, which only
                    # the cyclic collector frees, and when depends on the
                    # tests that ran before
                    gc.collect()
                    held[steps] = tracemalloc.get_traced_memory()[0]
                yield entry

        entries = run(timed, [MonitorState(p) for p in props], bindings,
                      SeededPolicy(1), steps=10 * n, early_stop=False)
        tracemalloc.start()
        try:
            rows, monitors = check_trace(trace_lines(measured(entries)), props,
                                         bindings)
            for _ in rows:
                pass
        finally:
            tracemalloc.stop()
        assert [m.last_verdict for m in monitors] == [Verdict.TRUE_C] * 2
        assert held[10 * n] - held[n] < 16_000

    def test_unbound_proposition_is_refused(self, scenario):
        """A property naming a proposition with no binding is refused in the
        CLI's words, before any step, not read as false."""
        monitors = self.monitors() + [MonitorState(parse_formula(
            "@Master: G (o -> within[0,3] m_typo | zz_typo)"))]
        entries = run(scenario, monitors, self.bindings(), self.scripted("fast.sched"),
                      steps=12)
        with pytest.raises(ScenarioError, match="^property names proposition 'm_typo', "
                                                "which has no binding$"):
            next(entries)
        assert [m.last_verdict for m in monitors] == [None, None]

    @pytest.mark.parametrize("prop, binding, error", [
        ("@Master: G (o -> within[0,3] m1)", "prop o = input_present(Mastr, Obstacle)",
         "binding 'o' references unknown agent 'Mastr'"),
        ("@Nobody: G o", "", "property agent 'Nobody' not in scenario"),
    ], ids=["binding-agent", "property-agent"])
    def test_unresolved_name_is_refused_before_step_1(self, scenario, prop, binding,
                                                      error):
        """A binding or property naming an agent the scenario lacks is
        refused in the CLI's words, not read as false or met at a step."""
        monitor = MonitorState(parse_formula(prop))
        bindings = {**self.bindings(), **parse_bindings(binding)}
        entries = run(scenario, [monitor], bindings, SeededPolicy(1), steps=20)
        with pytest.raises(ScenarioError, match=f"^{re.escape(error)}$"):
            next(entries)
        assert (monitor.obligation, monitor.last_time, monitor.last_verdict) == (
            monitor.prop.body, None, None)

    def test_replay_refuses_an_unbound_proposition_before_any_row(self, scenario):
        """`check_trace` refuses an unbound proposition in `run`'s words when
        it is called, before it reads a line or returns a row."""
        lines = trace_lines(run(scenario, [], {}, SeededPolicy(1), steps=20))
        typo = parse_formula("@Master: G (o -> within[0,3] m_typo)")
        with pytest.raises(ScenarioError, match="^property names proposition 'm_typo', "
                                                "which has no binding$"):
            check_trace(lines, [typo], self.bindings())
        assert len(list(lines)) == 20  # not one line was read

    def test_steps_must_be_positive(self, scenario):
        with pytest.raises(SimulationError):
            next(run(scenario, [], {}, ScriptedPolicy({}), steps=0))

    def test_seeded_runs_are_reproducible(self, scenario):
        a = run(scenario, self.monitors(), self.bindings(), SeededPolicy(7),
                steps=30, early_stop=False)
        b = run(scenario, self.monitors(), self.bindings(), SeededPolicy(7),
                steps=30, early_stop=False)
        assert list(trace_lines(a)) == list(trace_lines(b))

    def test_different_seeds_eventually_differ(self, scenario):
        outcomes = {
            tuple(trace_lines(run(scenario, [], {}, SeededPolicy(seed),
                                  steps=20)))
            for seed in range(10)
        }
        assert len(outcomes) > 1

    def test_clock_is_monotone_and_conformant(self, timed):
        entries = list(run(timed, [], {}, SeededPolicy(3), steps=40))
        clocks = [e.snapshot.clock for e in entries]
        assert clocks == sorted(clocks)
        for entry in entries:
            assert check_conformance(entry.snapshot, timed) == []

    def test_delta_defaults_to_scenario_timestep(self, timed):
        entries = list(run(timed, [], {}, ScriptedPolicy({}), steps=2))
        assert entries[-1].snapshot.clock == 2 * timed.timestep


class TestInteractivePolicy:
    def test_accepts_index_or_noop(self, scenario):
        snap = started(scenario)
        matches = find_matches(scenario, snap)
        # "²" is a digit to str.isdigit but not to int(), and int() takes
        # at most 4,300 digits: each is re-prompted like any bogus answer
        answers = iter(["bogus", "²", "9" * 4301, "0"])
        policy = InteractivePolicy(input_fn=lambda _: next(answers),
                                   print_fn=lambda *_: None)
        assert policy.choose(1, scenario, snap, matches) == matches[0]
        policy = InteractivePolicy(input_fn=lambda _: "n",
                                   print_fn=lambda *_: None)
        assert policy.choose(1, scenario, snap, matches) is None

    def test_end_of_input_names_the_step(self, scenario):
        snap = started(scenario)
        matches = find_matches(scenario, snap)

        def ended(_):
            raise EOFError

        policy = InteractivePolicy(input_fn=ended, print_fn=lambda *_: None)
        with pytest.raises(SimulationError, match="^step 4: input ended"):
            policy.choose(4, scenario, snap, matches)


GOLDEN_TRACE_SHA256 = (
    "a735c1bc72b686833dfe19f3759a938246b30c05e95ad6fa17df08cc12365384"
)


def test_golden_trace_digest():
    """Seeded traces keep their exact bytes.

    The runs cover every test scenario and 50 generated ones at seeds 0-4,
    and the monitored master_saviour run at seeds 0-9.  Fire order matters:
    firing agent by agent instead of rule by rule changes the digest.
    """
    digest = hashlib.sha256()

    def feed(entries):
        for line in trace_lines(entries):
            digest.update((line + "\n").encode())

    scenarios = [load_scenario(p.read_text()) for p in sorted(DATA.glob("*.scn"))]
    scenarios += [gen_scenario(i) for i in range(50)]
    for sc in scenarios:
        for seed in range(5):
            feed(run(sc, [], {}, SeededPolicy(seed), steps=100))
    sc = load_scenario((DATA / "master_saviour.scn").read_text())
    props = load_properties((DATA / "master_saviour.props").read_text())
    bindings = parse_bindings((DATA / "master_saviour.bindings").read_text())
    for seed in range(10):
        monitors = [MonitorState(p) for p in props]
        feed(run(sc, monitors, bindings, SeededPolicy(seed), steps=100,
                 early_stop=False))
    assert digest.hexdigest() == GOLDEN_TRACE_SHA256


BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name: str):
    """`bench/<name>.py`, loaded as the module `bench_<name>`."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_engine_spans_resolve():
    """Every `bench/spans.py` row that wraps a `tempoweave.engine`,
    `tempoweave.model`, `tempoweave.trace` or `tempoweave.monitor` name
    resolves, so renaming one of them cannot silently zero its span.  The
    stale rows, whose functions are gone, are skipped: dropping them is a
    change of the bench (ROADMAP item 1(a)).  They are the two
    `tempoweave.trace` rows `resolve_event` and `_record_snapshot`, the
    four `tempoweave.monitor` rows of the pipeline's old back half, which
    `monitor.settle` replaced, the four rows of its old front stages
    `mark_outermost`, `unroll_marked`, `shift_prophecies` and
    `evaluate_prophecies`, which `monitor.unroll` replaced, and
    `evaluate_atoms` and `activate_prophecies`, which folded into the one
    event walk `monitor.evaluate_leaves`, and `has_marks`, the no-marks
    guard that `monitor.unroll` now makes as it walks and shifts."""
    spans = load_bench_module("spans")
    modules = ("tempoweave.engine", "tempoweave.model", "tempoweave.trace",
               "tempoweave.monitor")
    stale = {("tempoweave.trace", "resolve_event"), ("tempoweave.trace", "_record_snapshot"),
             ("tempoweave.monitor", "verdict_collapse"),
             ("tempoweave.monitor", "obligation_rewrite"),
             ("tempoweave.monitor", "simplify"), ("tempoweave.monitor", "strip_marks"),
             ("tempoweave.monitor", "mark_outermost"), ("tempoweave.monitor", "unroll_marked"),
             ("tempoweave.monitor", "shift_prophecies"),
             ("tempoweave.monitor", "evaluate_prophecies"),
             ("tempoweave.monitor", "evaluate_atoms"),
             ("tempoweave.monitor", "activate_prophecies"),
             ("tempoweave.monitor", "has_marks")}
    rows = [(name, module, attr) for name, module, attr in spans.WRAPPED
            if module in modules and (module, attr) not in stale]
    assert {module for _, module, _ in rows} == set(modules)
    assert {attr for _, module, attr in rows if module == "tempoweave.trace"} == {
        "record_to_json", "parse_record", "json.loads",
    }
    assert {attr for _, module, attr in rows if module == "tempoweave.monitor"} == {
        "resolve_event", "monitor_step",
    }
    for name, module, attr in rows:
        target = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(target, part), name
            target = getattr(target, part)
        assert callable(target), name


def test_bench_helpers_spans_resolve(monkeypatch):
    """The `helpers` rows of `bench/spans.py` resolve on tests/helpers.py,
    and `check_formula` and its `StepCache` call each through that
    module's name: `finite_verdict` once per prefix and `monitor_step` once
    per cache miss.  So a renamed or rebound call cannot silently zero the
    traced sweep's `helpers.finite_verdict` and `helpers.monitor_step`
    spans."""
    import helpers

    rows = [row for row in load_bench_module("spans").WRAPPED if row[1] == "helpers"]
    assert sorted(attr for _, _, attr in rows) == ["finite_verdict", "monitor_step"]
    calls = dict.fromkeys((attr for _, _, attr in rows), 0)
    for attr in calls:
        original = getattr(helpers, attr)
        assert callable(original), attr

        def counted(*args, attr=attr, original=original, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(helpers, attr, counted)
    cache = helpers.StepCache()
    problems = helpers.check_formula(parse_bare_formula("p U within[0,3] q"), cache)
    assert calls == {"finite_verdict": problems["compared"], "monitor_step": cache.misses}
    assert cache.misses > 0


@pytest.mark.parametrize("workload", [
    w["name"] for w in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]])
def test_bench_tiny_run_of_each_workload(workload, tmp_path, monkeypatch):
    """The bench's own smoke test of one workload: two units, their outputs
    checked.  So a change that breaks a workload's imports, exit codes or
    output checks fails here before the bench runs."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the module prepends bench/, src/, tests/
    load_bench_module("test_bench").test_tiny_run_of_each_workload_completes(workload, tmp_path)
