"""Simulation rules, environment policies, and the layered step."""

from fractions import Fraction
from pathlib import Path

import pytest

from tempoweave.engine import (
    BEHAVIOURAL_RULES,
    EngineInvariantError,
    InteractivePolicy,
    RuleMatch,
    ScheduleEntry,
    ScriptedPolicy,
    SeededPolicy,
    SimulationError,
    apply_match,
    coordinate_step,
    delete_input,
    environmental_matches,
    find_matches,
    fire_initial_transition,
    fire_transition_with_guard,
    fire_transition_with_input,
    fire_transition_with_timed_guard,
    insert_effective_input,
    insert_input,
    parse_schedule,
    receive_message,
    remove_active_marks,
    run,
    step_time,
)
from tempoweave.formula import parse_formula
from tempoweave.model import (
    ScenarioError,
    check_conformance,
    init_snapshot,
    load_scenario,
    parse_bindings,
)
from tempoweave.monitor import MonitorState
from tempoweave.trace import trace_lines
from tempoweave.verdict import Verdict

DATA = Path(__file__).parent / "data"


@pytest.fixture
def scenario():
    return load_scenario((DATA / "master_saviour.scn").read_text())


@pytest.fixture
def timed():
    return load_scenario((DATA / "timed_relay.scn").read_text())


def started(scenario):
    """Snapshot after all agents left their start tasks, marks cleared."""
    snap = init_snapshot(scenario)
    for match in find_matches("fire_initial_transition", scenario, snap):
        apply_match(scenario, snap, match)
    remove_active_marks(snap)
    return snap


class TestBehaviouralRules:
    def test_initial_fire(self, scenario):
        snap = init_snapshot(scenario)
        match = RuleMatch("fire_initial_transition", agent="Master",
                         transition="m0")
        fire_initial_transition(scenario, snap, match)
        assert snap.agents["Master"].task == "Go"
        assert snap.agents["Master"].active

    def test_initial_fire_requires_initial_task(self, scenario):
        snap = started(scenario)
        with pytest.raises(SimulationError):
            fire_initial_transition(
                scenario, snap,
                RuleMatch("fire_initial_transition", agent="Master",
                          transition="m0"),
            )

    def test_input_fire_keeps_the_input(self, scenario):
        snap = started(scenario)
        snap.agents["Master"].inputs["Obstacle"] = 1
        fire_transition_with_input(
            scenario, snap,
            RuleMatch("fire_transition_with_input", agent="Master",
                      transition="m1", input_kind="Obstacle"),
        )
        assert snap.agents["Master"].task == "Blocked"
        assert snap.agents["Master"].inputs["Obstacle"] == 1  # not consumed
        kinds = sorted(
            (m.kind, m.recipient) for m in snap.in_transit.values()
        )
        assert kinds == [("Stop", "Slave1"), ("Stop", "Slave2")]

    def test_input_fire_requires_the_input(self, scenario):
        snap = started(scenario)
        with pytest.raises(SimulationError):
            fire_transition_with_input(
                scenario, snap,
                RuleMatch("fire_transition_with_input", agent="Master",
                          transition="m1", input_kind="Obstacle"),
            )

    def test_active_agent_cannot_fire_again(self, scenario):
        snap = started(scenario)
        snap.agents["Master"].inputs["Obstacle"] = 1
        snap.agents["Master"].active = True
        with pytest.raises(SimulationError):
            fire_transition_with_input(
                scenario, snap,
                RuleMatch("fire_transition_with_input", agent="Master",
                          transition="m1", input_kind="Obstacle"),
            )

    def test_guard_fire_consumes_exactly_one_message(self, scenario):
        snap = started(scenario)
        for _ in range(2):
            msg = snap.new_message("Stop", "Master", "Slave1")
            snap.agents["Slave1"].messages[msg.ident] = msg
        fire_transition_with_guard(
            scenario, snap,
            RuleMatch("fire_transition_with_guard", agent="Slave1",
                      transition="s1", message_id=0),
        )
        assert snap.agents["Slave1"].task == "Halt"
        assert len(snap.agents["Slave1"].messages) == 1
        assert [m.kind for m in snap.in_transit.values()] == ["Stopped"]

    def test_timed_fire_threshold_inclusive_and_reset(self, timed):
        snap = started(timed)
        snap.elapsed[("Timer", "t1")] = Fraction(3)
        match = RuleMatch("fire_transition_with_timed_guard", agent="Timer",
                         transition="t1")
        fire_transition_with_timed_guard(timed, snap, match)
        assert snap.agents["Timer"].task == "B"
        assert snap.elapsed[("Timer", "t1")] == 0
        assert [m.kind for m in snap.in_transit.values()] == ["Ping"]

    def test_timed_fire_below_threshold(self, timed):
        snap = started(timed)
        snap.elapsed[("Timer", "t1")] = Fraction(5, 2)
        with pytest.raises(SimulationError):
            fire_transition_with_timed_guard(
                timed, snap,
                RuleMatch("fire_transition_with_timed_guard", agent="Timer",
                          transition="t1"),
            )


class TestEnvironmentalRules:
    def test_insert_input(self, scenario):
        snap = started(scenario)
        insert_input(
            scenario, snap,
            RuleMatch("insert_input", agent="Slave1", input_kind="Obstacle"),
        )
        assert snap.agents["Slave1"].inputs["Obstacle"] == 1

    def test_effective_insert_needs_a_reacting_transition(self, scenario):
        snap = started(scenario)
        insert_effective_input(
            scenario, snap,
            RuleMatch("insert_effective_input", agent="Master",
                      input_kind="Obstacle"),
        )
        with pytest.raises(SimulationError):
            insert_effective_input(
                scenario, snap,
                RuleMatch("insert_effective_input", agent="Slave1",
                          input_kind="Obstacle"),
            )

    def test_failed_precondition_leaves_snapshot_unchanged(self, scenario):
        snap = started(scenario)
        before = snap.clone()
        for match in (
            RuleMatch("delete_input", agent="Master", input_kind="Obstacle"),
            RuleMatch("insert_effective_input", agent="Slave1",
                      input_kind="Obstacle"),
            RuleMatch("receive_message", message_id=7),
            RuleMatch("fire_transition_with_input", agent="Master",
                      transition="m1", input_kind="Obstacle"),
        ):
            with pytest.raises(SimulationError):
                apply_match(scenario, snap, match)
        with pytest.raises(SimulationError):
            step_time(snap, Fraction(0))
        assert snap == before

    def test_delete_input(self, scenario):
        snap = started(scenario)
        snap.agents["Master"].inputs["Obstacle"] = 1
        delete_input(
            scenario, snap,
            RuleMatch("delete_input", agent="Master", input_kind="Obstacle"),
        )
        assert snap.agents["Master"].inputs == {}
        with pytest.raises(SimulationError):
            delete_input(scenario, snap,
                         RuleMatch("delete_input", agent="Master",
                                   input_kind="Obstacle"))

    def test_receive_sets_recipient_active(self, scenario):
        snap = started(scenario)
        msg = snap.new_message("Stop", "Master", "Slave1")
        snap.in_transit[msg.ident] = msg
        receive_message(
            scenario, snap, RuleMatch("receive_message", message_id=msg.ident)
        )
        assert snap.in_transit == {}
        assert snap.agents["Slave1"].messages[msg.ident].kind == "Stop"
        assert snap.agents["Slave1"].active


class TestGlobalRules:
    def test_step_time_advances_clock_and_counters(self, timed):
        snap = started(timed)
        snap.elapsed[("Timer", "t1")] = Fraction(1)
        clock = snap.clock
        step_time(snap, Fraction(3, 2))
        assert snap.clock == clock + Fraction(3, 2)
        assert snap.elapsed[("Timer", "t1")] == Fraction(5, 2)

    def test_step_time_rejects_nonpositive(self, scenario):
        snap = init_snapshot(scenario)
        for bad in (Fraction(0), Fraction(-1)):
            with pytest.raises(SimulationError):
                step_time(snap, bad)

    def test_remove_active_marks(self, scenario):
        snap = init_snapshot(scenario)
        snap.agents["Master"].active = True
        remove_active_marks(snap)
        assert not any(a.active for a in snap.agents.values())


class TestMatching:
    def test_initial_matches_everyone_at_start(self, scenario):
        snap = init_snapshot(scenario)
        got = find_matches("fire_initial_transition", scenario, snap)
        assert [m.agent for m in got] == ["Master", "Slave1", "Slave2"]

    def test_no_behavioural_matches_after_start(self, scenario):
        snap = started(scenario)
        for rule in BEHAVIOURAL_RULES:
            assert find_matches(rule, scenario, snap) == []

    def test_two_transit_messages_give_two_receive_matches(self, scenario):
        snap = started(scenario)
        for _ in range(2):
            msg = snap.new_message("Stop", "Master", "Slave1")
            snap.in_transit[msg.ident] = msg
        got = find_matches("receive_message", scenario, snap)
        assert [m.message_id for m in got] == [0, 1]

    def test_guard_matches_bind_each_held_message(self, scenario):
        snap = started(scenario)
        for _ in range(2):
            msg = snap.new_message("Stop", "Master", "Slave1")
            snap.agents["Slave1"].messages[msg.ident] = msg
        got = find_matches("fire_transition_with_guard", scenario, snap)
        assert [(m.agent, m.message_id) for m in got] == [
            ("Slave1", 0), ("Slave1", 1),
        ]

    def test_environmental_matches_order(self, scenario):
        snap = started(scenario)
        snap.agents["Master"].inputs["Obstacle"] = 1
        rules = [m.rule for m in environmental_matches(scenario, snap)]
        # grouped by rule in the fixed precedence
        assert rules == sorted(rules, key=[
            "insert_input", "insert_effective_input", "delete_input",
            "receive_message",
        ].index)

    def test_unknown_rule(self, scenario):
        with pytest.raises(SimulationError):
            find_matches("teleport", scenario, init_snapshot(scenario))


class TestSchedules:
    def test_parse(self):
        text = (DATA / "fast.sched").read_text()
        schedule = parse_schedule(text)
        assert schedule[3] == ScheduleEntry("insert_effective",
                                            kind="Obstacle", agent="Master")
        assert schedule[4] == ScheduleEntry("delete", kind="Obstacle",
                                            agent="Master")
        assert schedule[5] == ScheduleEntry("receive", kind="Stop",
                                            sender="Master", recipient="Slave1")

    def test_noop_and_plain_insert(self):
        schedule = parse_schedule("at 1: noop\nat 2: insert K into A\n")
        assert schedule[1] == ScheduleEntry("noop")
        assert schedule[2] == ScheduleEntry("insert", kind="K", agent="A")

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

    def test_strict_mode_requires_every_step(self, scenario):
        policy = ScriptedPolicy({}, strict=True)
        with pytest.raises(SimulationError):
            policy.choose(1, scenario, started(scenario), [])

    def test_inapplicable_delete_is_an_error(self, scenario):
        policy = ScriptedPolicy({1: ScheduleEntry("delete", kind="Obstacle",
                                                  agent="Master")})
        snap = started(scenario)
        with pytest.raises(SimulationError):
            policy.choose(1, scenario, snap,
                          environmental_matches(scenario, snap))

    def test_missing_transit_message_is_an_error(self, scenario):
        policy = ScriptedPolicy({1: ScheduleEntry(
            "receive", kind="Stop", sender="Master", recipient="Slave1")})
        snap = started(scenario)
        with pytest.raises(SimulationError):
            policy.choose(1, scenario, snap,
                          environmental_matches(scenario, snap))


class TestCoordinateStep:
    def props(self):
        return [parse_formula("@Master: G (o -> (within[0,3] m1 & within[0,3] m2))")]

    def bindings(self):
        return parse_bindings((DATA / "master_saviour.bindings").read_text())

    def test_layers_in_order(self, scenario):
        """An input inserted at step k is only fired at step k+1."""
        policy = ScriptedPolicy({1: ScheduleEntry(
            "insert", kind="Obstacle", agent="Master")})
        monitors = []
        snap = init_snapshot(scenario)
        entry = coordinate_step(scenario, snap, policy, monitors,
                                {}, Fraction(1), 1)
        # step 1: everyone fired their start transition, then the insert
        assert entry.snapshot.agents["Master"].task == "Go"
        assert entry.snapshot.agents["Master"].inputs["Obstacle"] == 1
        assert entry.active == {"Master": True, "Slave1": True, "Slave2": True}
        # recorded snapshot has cleared marks
        assert not any(a.active for a in entry.snapshot.agents.values())
        entry2 = coordinate_step(scenario, entry.snapshot, policy, monitors,
                                 {}, Fraction(1), 2)
        assert entry2.snapshot.agents["Master"].task == "Blocked"

    def test_clock_advances_by_delta(self, scenario):
        snap = init_snapshot(scenario)
        entry = coordinate_step(scenario, snap, ScriptedPolicy({}), [],
                                {}, Fraction(1, 2), 1)
        assert entry.snapshot.clock == Fraction(1, 2)
        assert entry.snapshot.seq == 1

    @pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.scn")))
    def test_input_snapshot_untouched(self, name):
        """The rules change one working copy; the step's input stays as it was."""
        sc = load_scenario((DATA / name).read_text())
        policy = SeededPolicy(5)
        snap = init_snapshot(sc)
        for step_no in range(1, 31):
            before = snap.clone()
            entry = coordinate_step(sc, snap, policy, [], {}, sc.timestep, step_no)
            assert snap == before
            assert entry.snapshot is not snap
            snap = entry.snapshot

    def test_monitor_sees_pre_clear_marks(self, scenario):
        monitors = [MonitorState(p) for p in self.props()]
        snap = init_snapshot(scenario)
        entry = coordinate_step(scenario, snap, ScriptedPolicy({}), monitors,
                                self.bindings(), Fraction(1), 1)
        assert entry.verdicts == [Verdict.TRUE_C]
        assert monitors[0].history == [(Fraction(1), Verdict.TRUE_C)]


class TestRun:
    def props(self):
        return [parse_formula("@Master: G (o -> (within[0,3] m1 & within[0,3] m2))")]

    def bindings(self):
        return parse_bindings((DATA / "master_saviour.bindings").read_text())

    def scripted(self, name):
        return ScriptedPolicy(parse_schedule((DATA / name).read_text()))

    def test_prompt_reproduction_fast(self, scenario):
        trace = run(scenario, self.props(), self.bindings(),
                    self.scripted("fast.sched"), steps=12)
        verdicts = [e.verdicts[0] for e in trace.entries
                    if e.verdicts[0] is not None]
        assert verdicts == [Verdict.TRUE_C] * 4
        assert trace.status == "completed"
        for slave in ("Slave1", "Slave2"):
            state = trace.entries[-1].snapshot.agents[slave]
            assert scenario.agent(slave).task_kind(state.task) == "Idle"

    def test_prompt_reproduction_slow(self, scenario):
        trace = run(scenario, self.props(), self.bindings(),
                    self.scripted("slow.sched"), steps=12)
        verdicts = [e.verdicts[0] for e in trace.entries
                    if e.verdicts[0] is not None]
        assert verdicts == [Verdict.TRUE_C, Verdict.FALSE_C,
                            Verdict.FALSE_C, Verdict.FALSE]
        assert trace.status == "early-stop"
        assert len(trace.entries) == 10  # stopped at the final verdict

    def test_no_early_stop_runs_to_completion(self, scenario):
        trace = run(scenario, self.props(), self.bindings(),
                    self.scripted("slow.sched"), steps=12, early_stop=False)
        assert len(trace.entries) == 12

    def test_single_step(self, scenario):
        trace = run(scenario, [], {}, ScriptedPolicy({}), steps=1)
        assert len(trace.entries) == 1

    def test_steps_must_be_positive(self, scenario):
        with pytest.raises(SimulationError):
            run(scenario, [], {}, ScriptedPolicy({}), steps=0)

    def test_seeded_runs_are_reproducible(self, scenario):
        a = run(scenario, self.props(), self.bindings(), SeededPolicy(7),
                steps=30, early_stop=False)
        b = run(scenario, self.props(), self.bindings(), SeededPolicy(7),
                steps=30, early_stop=False)
        assert trace_lines(a) == trace_lines(b)

    def test_different_seeds_eventually_differ(self, scenario):
        outcomes = {
            tuple(trace_lines(run(scenario, [], {}, SeededPolicy(seed),
                                  steps=20)))
            for seed in range(10)
        }
        assert len(outcomes) > 1

    def test_clock_is_monotone_and_conformant(self, timed):
        trace = run(timed, [], {}, SeededPolicy(3), steps=40)
        clocks = [e.snapshot.clock for e in trace.entries]
        assert clocks == sorted(clocks)
        for entry in trace.entries:
            assert check_conformance(entry.snapshot, timed) == []

    def test_delta_defaults_to_scenario_timestep(self, timed):
        trace = run(timed, [], {}, ScriptedPolicy({}), steps=2)
        assert trace.entries[-1].snapshot.clock == 2 * timed.timestep


class TestInteractivePolicy:
    def test_accepts_index_or_noop(self, scenario):
        snap = started(scenario)
        matches = environmental_matches(scenario, snap)
        answers = iter(["bogus", "0"])
        policy = InteractivePolicy(input_fn=lambda _: next(answers),
                                   print_fn=lambda *_: None)
        assert policy.choose(1, scenario, snap, matches) == matches[0]
        policy = InteractivePolicy(input_fn=lambda _: "n",
                                   print_fn=lambda *_: None)
        assert policy.choose(1, scenario, snap, matches) is None
