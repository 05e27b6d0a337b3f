"""Command-line interface: commands, exit codes, and trace replay."""

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tempoweave import cli, engine
from tempoweave.cli import (
    EX_INCONCLUSIVE,
    EX_INTERNAL,
    EX_IOERR,
    EX_OK,
    EX_RESOLUTION,
    EX_USAGE,
    EX_VIOLATED,
    load_properties,
    main,
)
from tempoweave.engine import SeededPolicy, run
from tempoweave.model import load_scenario, parse_bindings
from tempoweave.monitor import MonitorState
from tempoweave.trace import TRACE_SCHEMA, parse_record, trace_lines

import jsonschema

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
SCENARIOS = sorted(path.stem for path in DATA.glob("*.scn"))
GROWTH = ("an obligation that is never discharged grows by one pending operand "
          "per event until a step exceeds the recursion limit (ROADMAP item 3)")


def simulate_args(schedule, out=None, steps="12", extra=()):
    args = [
        "simulate",
        "--scenario", str(DATA / "master_saviour.scn"),
        "--props", str(DATA / "master_saviour.props"),
        "--bindings", str(DATA / "master_saviour.bindings"),
        "--schedule", str(DATA / schedule),
        "--steps", steps,
    ]
    if out:
        args += ["--out", str(out)]
    return args + list(extra)


class TestSimulate:
    def test_fast_schedule_stays_conditionally_true(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main(simulate_args("fast.sched", out)) == EX_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 12
        columns = [json.loads(line)["verdicts"][0] for line in lines]
        assert set(columns) == {"Tc", None}

    def test_slow_schedule_ends_violated(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main(simulate_args("slow.sched", out)) == EX_VIOLATED
        columns = [json.loads(line)["verdicts"][0]
                   for line in out.read_text().splitlines()]
        assert [v for v in columns if v] == ["Tc", "Fc", "Fc", "F"]

    def test_every_line_is_schema_valid(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        main(simulate_args("slow.sched", out))
        validator = jsonschema.Draft202012Validator(TRACE_SCHEMA)
        for line in out.read_text().splitlines():
            validator.validate(json.loads(line))

    def test_writes_to_stdout_by_default(self, capsys):
        assert main(simulate_args("fast.sched")) == EX_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12
        parse_record(lines[0])

    def test_seeded(self, tmp_path, capsys):
        args = [
            "simulate",
            "--scenario", str(DATA / "master_saviour.scn"),
            "--props", str(DATA / "master_saviour.props"),
            "--bindings", str(DATA / "master_saviour.bindings"),
            "--seed", "1", "--steps", "5",
        ]
        code = main(args)
        assert code in (EX_OK, EX_INCONCLUSIVE, EX_VIOLATED)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first  # same seed, same trace

    def test_malformed_property_file(self, tmp_path):
        bad = tmp_path / "bad.props"
        bad.write_text("@Master: G (o -> \n")
        args = simulate_args("fast.sched")
        args[args.index("--props") + 1] = str(bad)
        assert main(args) == EX_USAGE

    def test_unknown_property_agent(self, tmp_path):
        bad = tmp_path / "bad.props"
        bad.write_text("@Ghost: G o\n")
        args = simulate_args("fast.sched")
        args[args.index("--props") + 1] = str(bad)
        assert main(args) == EX_USAGE

    def test_missing_policy_flag(self):
        args = simulate_args("fast.sched")
        i = args.index("--schedule")
        del args[i:i + 2]
        assert main(args) == EX_USAGE

    def test_unreadable_file(self):
        args = simulate_args("fast.sched")
        args[args.index("--scenario") + 1] = "/nonexistent.scn"
        assert main(args) == EX_USAGE

    def test_bad_delta(self):
        assert main(simulate_args("fast.sched", extra=["--delta", "0"])) == EX_USAGE
        assert main(simulate_args("fast.sched", extra=["--delta", "x"])) == EX_USAGE

    def test_steps_must_be_positive(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(simulate_args("fast.sched", out, steps="0")) == EX_USAGE
        assert not out.exists()
        assert capsys.readouterr().err == "error: steps must be >= 1, got 0\n"

    def test_non_decimal_delta_fails_before_any_output(self, tmp_path, capsys):
        """Trace clocks are exact decimals, so 1/3 is refused before any step
        runs, and so is 1e5000, which is not a time as the CLI writes one."""
        out = tmp_path / "trace.jsonl"
        for delta, reason in [("1/3", "1/3 has no exact decimal representation"),
                              ("1e5000", "invalid time step '1e5000'")]:
            assert main(simulate_args("fast.sched", out, extra=["--delta", delta])) == EX_USAGE
            assert not out.exists()
            assert reason in capsys.readouterr().err
        assert main(simulate_args("fast.sched", out, extra=["--delta", "1/4"])) == EX_OK
        clocks = [json.loads(line)["clock"] for line in out.read_text().splitlines()]
        assert clocks[:3] == ["0.25", "0.5", "0.75"]

    @pytest.mark.parametrize("delta, clock", [
        ("3", "3"), ("0.25", "0.25"), ("1/4", "0.25"),
        *((delta, None) for delta in ["1e-1", "1_0", "+1", ".5", "5.", " 2 ", "1e5000", "-1"]),
    ])
    def test_delta_is_a_number_or_a_ratio(self, tmp_path, capsys, delta, clock):
        """`--delta` takes a time as every input file writes one, `NUMBER`
        or `p/q`, and no other form that `Fraction()` reads."""
        out = tmp_path / "trace.jsonl"
        code = main(simulate_args("fast.sched", out, extra=["--delta", delta]))
        if clock is None:
            assert (code, out.exists()) == (EX_USAGE, False)
            assert capsys.readouterr().err == f"error: invalid time step {delta!r}\n"
        else:
            assert code != EX_USAGE
            assert json.loads(out.read_text().splitlines()[0])["clock"] == clock

    def test_unbound_proposition(self, tmp_path, capsys):
        args = simulate_args("fast.sched")
        args[args.index("--props") + 1] = str(typo_props(tmp_path))
        assert main(args) == EX_USAGE
        assert_names_the_typo(capsys)

    @pytest.mark.parametrize("nest", [
        "(" * 200 + "o" + ")" * 200,
        "!" * 1200 + "o",
        " & ".join(["o"] * 1200),
        "(" * 101 + "o" + ")" * 101,
    ])
    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys, nest):
        deep = tmp_path / "deep.props"
        deep.write_text(f"@Master: {nest}\n")
        args = simulate_args("fast.sched")
        args[args.index("--props") + 1] = str(deep)
        assert main(args) == EX_USAGE
        assert "nested deeper than 100 levels" in capsys.readouterr().err
        assert main(["validate", "--props", str(deep)]) == EX_USAGE

    @pytest.mark.parametrize("indent,column", [("", 110), ("   ", 113)])
    def test_parse_error_names_the_line_and_column(self, tmp_path, capsys,
                                                   indent, column):
        deep = tmp_path / "deep.props"
        nest = "(" * 101 + "o" + ")" * 101
        deep.write_text(f"# deep\n\n{indent}@Master: {nest}\n")
        args = simulate_args("fast.sched")
        args[args.index("--props") + 1] = str(deep)
        assert main(args) == EX_USAGE
        assert capsys.readouterr().err == (
            f"error: 3:{column}: formula nested deeper than 100 levels\n"
        )

    @pytest.mark.parametrize("nest", [
        "(" * 99 + "G o" + ")" * 99,
        "!" * 100 + "o",
        " & ".join(["o"] * 101),
    ])
    def test_nesting_of_100_runs(self, tmp_path, nest):
        deep = tmp_path / "deep.props"
        deep.write_text(f"@Master: {nest}\n")
        args = simulate_args("fast.sched")
        args[args.index("--props") + 1] = str(deep)
        assert main(args) == EX_VIOLATED

    @pytest.mark.parametrize("flag", ["--scenario", "--props", "--bindings",
                                      "--schedule", "--trace"])
    def test_input_that_is_not_utf8_names_the_file(self, tmp_path, capsys, flag):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"\xff\xfe# caf\xe9\n")
        if flag == "--trace":
            args = TestCheckTrace().check_args(bad)
        else:
            args = simulate_args("fast.sched")
        args[args.index(flag) + 1] = str(bad)
        assert main(args) == EX_USAGE
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")

    def test_interactive_prompts_leave_stdout_to_the_trace(self, monkeypatch, capsys):
        args = simulate_args("fast.sched", steps="5")
        i = args.index("--schedule")
        args[i:i + 2] = ["--interactive"]
        monkeypatch.setattr(sys, "stdin", io.StringIO("n\n" * 5))
        assert main(args) == EX_OK
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert len(lines) == 5
        for line in lines:
            parse_record(line)
        assert "step 1: environmental choices" in err and "> " in err

    def test_interactive_menu_lists_every_environmental_match(self, monkeypatch, capsys):
        """Step 1's effective insert leaves Master holding the Obstacle and its
        two Stop messages in transit, so step 2 offers all four rules."""
        args = simulate_args("fast.sched", steps="2")
        i = args.index("--schedule")
        args[i:i + 2] = ["--interactive"]
        monkeypatch.setattr(sys, "stdin", io.StringIO("3\nn\n"))
        assert main(args) == EX_INCONCLUSIVE
        insert = "RuleMatch(rule='{}', agent='{}', input_kind='Obstacle', message_id=None)"
        receive = ("RuleMatch(rule='receive_message', agent=None, input_kind=None, "
                   "message_id={})")
        menu = [
            "step 1: environmental choices",
            *(f"  [{i}] " + insert.format("insert_input", agent)
              for i, agent in enumerate(["Master", "Slave1", "Slave2"])),
            "  [3] " + insert.format("insert_effective_input", "Master"),
            "  [n] no-op",
            "> step 2: environmental choices",
            *(f"  [{i}] " + insert.format("insert_input", agent)
              for i, agent in enumerate(["Master", "Slave1", "Slave2"])),
            "  [3] " + insert.format("delete_input", "Master"),
            "  [4] " + receive.format(0),
            "  [5] " + receive.format(1),
            "  [n] no-op",
            "> ",
        ]
        assert capsys.readouterr().err == "\n".join(menu)

    def test_debug_log_names_each_fire(self):
        """`TEMPOWEAVE_LOG=debug` logs each layer-1 fire as agent and transition."""
        env = dict(os.environ, TEMPOWEAVE_LOG="debug")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tempoweave.cli", *simulate_args("fast.sched", steps="4")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        assert proc.returncode == EX_OK
        fires = [line for line in proc.stderr.splitlines() if "layer 1" in line]
        assert fires == [
            "tempoweave.engine: step 1 layer 1: Master fires m0",
            "tempoweave.engine: step 1 layer 1: Slave1 fires s0",
            "tempoweave.engine: step 1 layer 1: Slave2 fires s0",
            "tempoweave.engine: step 4 layer 1: Master fires m1",
        ]

    def test_interactive_input_at_end_of_file_is_a_usage_error(
        self, monkeypatch, capsys
    ):
        args = simulate_args("fast.sched", steps="5")
        i = args.index("--schedule")
        args[i:i + 2] = ["--interactive"]
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert main(args) == EX_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: step 1: input ended before a choice was made\n")

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_writes_the_lines_of_the_library_run(self, tmp_path, capsys, name):
        """The streaming writer adds nothing to and drops nothing from
        `trace_lines(run(...))`, to --out and to stdout alike."""
        scenario = load_scenario((DATA / f"{name}.scn").read_text())
        if name == "master_saviour":
            props_path = DATA / "master_saviour.props"
            bindings_path = DATA / "master_saviour.bindings"
        else:
            first = scenario.agents[0].name
            props_path = tmp_path / "g.props"
            props_path.write_text(f"@{first}: G a\n")
            bindings_path = tmp_path / "g.bindings"
            bindings_path.write_text(f"prop a = agent_active({first})\n")
        props = load_properties(props_path.read_text())
        bindings = parse_bindings(bindings_path.read_text())
        out = tmp_path / "trace.jsonl"
        for seed in range(3):
            monitors = [MonitorState(p) for p in props]
            expected = "".join(
                line + "\n" for line in trace_lines(
                    run(scenario, monitors, bindings, SeededPolicy(seed), steps=60)))
            args = ["simulate", "--scenario", str(DATA / f"{name}.scn"),
                    "--props", str(props_path), "--bindings", str(bindings_path),
                    "--seed", str(seed), "--steps", "60"]
            main(args + ["--out", str(out)])
            assert out.read_text() == expected
            capsys.readouterr()
            main(args)
            assert capsys.readouterr().out == expected


def typo_props(tmp_path):
    """A property whose second proposition has no binding, on line 2."""
    props = tmp_path / "typo.props"
    props.write_text("# typo\n@Master: G (o -> within[0,3] m_typo)\n")
    return props


def assert_names_the_typo(capsys):
    err = capsys.readouterr().err
    assert "line 2" in err and "'m_typo'" in err


def agent(task):
    return {"task": task, "active": True, "inputs": [], "messages": []}


# the two agents master_saviour.bindings reads besides Master
WORKERS = {"Slave1": agent("Idle"), "Slave2": agent("Idle")}


def hand_record(seq, **agents):
    return {"v": 1, "seq": seq, "clock": str(seq), "agents": agents,
            "transit": [], "verdicts": [None]}


LONG_CLOCK = {"v": 1, "seq": 1, "clock": "1" * 5000, "agents": {},
              "transit": [], "verdicts": []}


def int_error(digits: str) -> str:
    """What int() says of a numeral with more digits than it takes."""
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("int() took every digit")


class TestCheckTrace:
    def check_args(self, trace, props=None, bindings=None):
        return [
            "check-trace",
            "--trace", str(trace),
            "--props", str(props or DATA / "master_saviour.props"),
            "--bindings", str(bindings or DATA / "master_saviour.bindings"),
        ]

    def test_reproduces_simulated_verdicts(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main(simulate_args("slow.sched", out))
        capsys.readouterr()
        assert main(self.check_args(out)) == EX_VIOLATED
        reported = capsys.readouterr().out.splitlines()
        recorded = [
            json.loads(line)["verdicts"][0] or "-"
            for line in out.read_text().splitlines()
        ]
        assert reported == recorded

    def test_decreasing_clock_is_a_format_error(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        main(simulate_args("fast.sched", out))
        lines = out.read_text().splitlines()
        flipped = "\n".join([lines[1], lines[0]])
        bad = tmp_path / "bad.jsonl"
        bad.write_text(flipped + "\n")
        assert main(self.check_args(bad)) == EX_USAGE

    @pytest.mark.parametrize("clock, error", [
        ("1.5", "clock decreases from 1.5 to 1"),
        ("9" * 4000 + "." + "9" * 4000, "clock decreases: too long to print as a decimal: "),
    ], ids=["decimal", "too-long-to-print"])
    def test_decreasing_clock_names_the_clocks(self, tmp_path, capsys, clock, error):
        records = [{**hand_record(seq, Master=agent("Go"), **WORKERS), "clock": c}
                   for seq, c in ((1, clock), (2, "1"))]
        trace = tmp_path / "back.jsonl"
        trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert main(self.check_args(trace)) == EX_USAGE
        out, err = capsys.readouterr()
        assert out == "Tc\n"
        assert err.startswith(f"error: line 2: {error}")

    def test_invalid_json_is_a_format_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(self.check_args(bad)) == EX_USAGE

    def test_schema_violation_is_a_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"v": 1, "seq": 1}) + "\n")
        assert main(self.check_args(bad)) == EX_USAGE
        assert capsys.readouterr().err == (
            "error: line 1: record is missing 'clock', 'agents', 'transit', "
            "'verdicts'\n"
        )

    def test_nested_schema_violation_names_the_field(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main(simulate_args("fast.sched", out))
        lines = out.read_text().splitlines()
        record = json.loads(lines[2])
        record["agents"]["Master"]["active"] = 1
        lines[2] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(self.check_args(bad)) == EX_USAGE
        assert capsys.readouterr().err == (
            "error: line 3: agents.Master.active must be a boolean\n"
        )

    @pytest.mark.parametrize("line, error", [
        # deeper than the decoder recurses
        ("[" * 100_000 + "]" * 100_000, "invalid JSON: "),
        # more digits than int() takes
        ('{"seq": ' + "1" * 5000 + "}", "invalid JSON: "),
        (json.dumps(LONG_CLOCK), f"clock: {int_error(LONG_CLOCK['clock'])}\n"),
        # the clock is read only once the rest of the record is well formed
        (json.dumps({**LONG_CLOCK, "agents": {"Master": {
            "task": "Go", "active": 1, "inputs": [], "messages": []}}}),
         "agents.Master.active must be a boolean\n"),
    ], ids=["deep-nesting", "long-integer", "long-clock", "long-clock-bad-active"])
    def test_undecodable_line_is_a_format_error(self, tmp_path, capsys, line, error):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        assert main(self.check_args(bad)) == EX_USAGE
        assert capsys.readouterr().err.startswith(f"error: line 1: {error}")

    def test_unknown_agent_is_a_resolution_error(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        main(simulate_args("fast.sched", out))
        props = tmp_path / "ghost.props"
        props.write_text("@Ghost: G o\n")
        assert main(self.check_args(out, props=props)) == EX_RESOLUTION

    def test_agent_absent_from_a_later_record_is_a_resolution_error(
        self, tmp_path, capsys
    ):
        """Master is in the first record only; the replay stops at line 2."""
        records = [hand_record(1, Master=agent("Go"), **WORKERS),
                   hand_record(2, **WORKERS)]
        trace = tmp_path / "vanishing.jsonl"
        trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert main(self.check_args(trace)) == EX_RESOLUTION
        err = capsys.readouterr().err
        assert "line 2" in err and "'Master'" in err

    def test_binding_agent_absent_is_a_resolution_error(self, tmp_path, capsys):
        """m2 reads Slave2, which the trace lacks: not silently false."""
        records = [hand_record(1, Master=agent("Go"), Slave1=agent("Idle"))]
        trace = tmp_path / "no-slave2.jsonl"
        trace.write_text(json.dumps(records[0]) + "\n")
        assert main(self.check_args(trace)) == EX_RESOLUTION
        assert capsys.readouterr().err == (
            "error: line 1: binding 'm2' references agent 'Slave2' absent "
            "from the trace\n"
        )

    def test_unbound_proposition(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main(simulate_args("fast.sched", out))
        capsys.readouterr()
        assert main(self.check_args(out, props=typo_props(tmp_path))) == EX_USAGE
        assert_names_the_typo(capsys)

    def test_hand_written_trace(self, tmp_path, capsys):
        """Three records where the obstacle is gone again by the time the
        evaluated agent is next active: conditionally true throughout."""
        records = [
            hand_record(1, Master=agent("Go"), **WORKERS),
            hand_record(2, Master=agent("Go"), **WORKERS),
            hand_record(3, Master=agent("Blocked"), **WORKERS),
        ]
        trace = tmp_path / "hand.jsonl"
        trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert main(self.check_args(trace)) == EX_OK
        assert capsys.readouterr().out.splitlines() == ["Tc", "Tc", "Tc"]


@pytest.mark.parametrize("command", ["simulate", "check-trace"])
def test_unwritable_out_fails_before_any_step(tmp_path, capsys, command):
    """The input would fail at its first step, so the error shows that
    --out was opened before the step ran."""
    out = tmp_path / "missing" / "out.txt"
    if command == "simulate":
        schedule = tmp_path / "fails-at-1.sched"
        schedule.write_text("at 1: receive Stop from Master at Slave1\n")
        args = simulate_args(schedule, out)
    else:
        trace = tmp_path / "bad.jsonl"
        trace.write_text("not json\n")
        args = TestCheckTrace().check_args(trace) + ["--out", str(out)]
    assert main(args) == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")


class TestFailedRun:
    """Records are written as their steps end, and rows as their records
    replay, so a run or a replay that stops early leaves a valid prefix of
    its output."""

    def test_failing_schedule_leaves_the_steps_before_it(self, tmp_path, capsys):
        schedule = tmp_path / "fails-at-6.sched"
        schedule.write_text(
            "at 3: insert! Obstacle into Master\n"
            "at 4: delete Obstacle from Master\n"
            "at 5: receive Stop from Master at Slave1\n"
            "at 6: receive Stop from Master at Slave1\n"  # already received
        )
        out = tmp_path / "trace.jsonl"
        assert main(simulate_args(schedule, out)) == EX_USAGE
        assert "step 6: no in-transit Stop" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [1, 2, 3, 4, 5]
        main(TestCheckTrace().check_args(out))
        reported = capsys.readouterr().out.splitlines()
        assert reported == [json.loads(line)["verdicts"][0] or "-" for line in lines]
        assert "Tc" in reported

    def test_over_long_clock_leaves_the_steps_before_it(self, tmp_path, capsys):
        """A timestep of 4,300 nines parses, but the clock of step 2 has one
        digit more than str() gives."""
        text = (DATA / "master_saviour.scn").read_text()
        scenario = tmp_path / "long-step.scn"
        scenario.write_text(text.replace("timestep 1\n", f"timestep {'9' * 4300}\n"))
        out = tmp_path / "trace.jsonl"
        args = simulate_args("fast.sched", out, steps="3")
        args[args.index("--scenario") + 1] = str(scenario)
        i = args.index("--schedule")
        args[i:i + 2] = ["--seed", "0"]
        assert main(args) == EX_USAGE
        assert "too long to print as a decimal" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [1]

    def test_bad_record_leaves_the_rows_before_it(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(simulate_args("fast.sched", trace))
        lines = trace.read_text().splitlines()
        lines[5] = "not json"
        trace.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "rows.txt"
        capsys.readouterr()
        assert main(TestCheckTrace().check_args(trace) + ["--out", str(out)]) == EX_USAGE
        assert capsys.readouterr().err.startswith("error: line 6: invalid JSON")
        assert out.read_text().splitlines() == [
            json.loads(line)["verdicts"][0] or "-" for line in lines[:5]]

    def test_undecodable_byte_past_64_kb_leaves_earlier_rows(
        self, tmp_path, capsys
    ):
        """The trace is decoded a chunk at a time, so the rows written are
        those of the records before the chunk holding the bad byte: all of
        the first 64 KB, and none from the byte's record on."""
        trace = tmp_path / "trace.jsonl"
        args = simulate_args("fast.sched", trace, steps="300",
                             extra=["--no-early-stop"])
        i = args.index("--schedule")
        args[i:i + 2] = ["--seed", "0"]
        main(args)
        data = trace.read_bytes()
        bad_at = data.index(b'"task"', 2 * 65536) + 2
        trace.write_bytes(data[:bad_at] + b"\xff" + data[bad_at + 1:])
        out = tmp_path / "rows.txt"
        capsys.readouterr()
        assert main(TestCheckTrace().check_args(trace) + ["--out", str(out)]) == EX_USAGE
        assert capsys.readouterr().err.startswith(f"error: cannot read {trace}: ")
        rows = out.read_text().splitlines()
        recorded = [json.loads(line)["verdicts"][0] or "-"
                    for line in data.decode().splitlines()]
        assert data[:65536].count(b"\n") <= len(rows) <= data[:bad_at].count(b"\n")
        assert rows == recorded[:len(rows)]

    def test_killed_run_leaves_whole_records(self, tmp_path):
        """The run is fed 1000 choices and then waits for more, so only a
        writer that streams has written anything by then."""
        out = tmp_path / "trace.jsonl"
        args = simulate_args("fast.sched", out, steps="2000",
                             extra=["--no-early-stop"])
        i = args.index("--schedule")
        args[i:i + 2] = ["--interactive"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-m", "tempoweave.cli", *args],
                                env=env, stdin=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        try:
            proc.stdin.write(b"n\n" * 1000)  # fits the pipe; stdin stays open
            proc.stdin.flush()
            deadline = time.monotonic() + 30
            while proc.poll() is None and time.monotonic() < deadline:
                if out.exists() and out.stat().st_size:
                    break
                time.sleep(0.001)
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdin.close()
        assert proc.returncode == -signal.SIGKILL  # killed, not finished
        text = out.read_text()
        assert text.endswith("\n")
        for lineno, line in enumerate(text.splitlines(), start=1):
            parse_record(line, lineno)

    @pytest.mark.parametrize("command", ["simulate", "check-trace"])
    def test_closed_stdout_is_exit_74_and_quiet(self, tmp_path, command):
        """A reader that takes one line and closes the pipe, as `| head -n 1`
        does.  Far more than a pipe holds is still to be written, so the
        command meets the closed pipe: it exits 74, and stderr shows no
        internal error and no exception ignored at shutdown."""
        args = simulate_args("fast.sched", steps="2000", extra=["--no-early-stop"])
        i = args.index("--schedule")
        args[i:i + 2] = ["--seed", "0"]
        if command == "check-trace":  # 2,000 rows of 200 verdicts each
            trace, props = tmp_path / "trace.jsonl", tmp_path / "many.props"
            assert main(args + ["--out", str(trace)]) in (EX_OK, EX_INCONCLUSIVE, EX_VIOLATED)
            props.write_text((DATA / "master_saviour.props").read_text() * 200)
            args = ["check-trace", "--trace", str(trace), "--props", str(props),
                    "--bindings", str(DATA / "master_saviour.bindings")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-m", "tempoweave.cli", *args], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            err = proc.stderr.read().decode()
            proc.stderr.close()
        assert proc.returncode == EX_IOERR, err
        assert "internal error" not in err and "Exception ignored" not in err, err


class TestEval:
    def test_always(self, capsys):
        assert main(["eval", "G p", "{p}@0", "{p}@1"]) == EX_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "Tc Tc"
        assert out[1] == "G p"

    def test_prophecy_witnessed(self, capsys):
        assert main(["eval", "within[0,3] p", "{}@0", "{p}@2"]) == EX_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "Fc T"
        assert out[1] == "true"

    def test_plain_atom_absent(self, capsys):
        assert main(["eval", "p", "{}@0"]) == EX_VIOLATED
        assert capsys.readouterr().out.splitlines()[0] == "F"

    def test_fractional_times(self, capsys):
        assert main(["eval", "within[0,1] p", "{}@0.5", "{p}@1.25"]) == EX_OK
        assert capsys.readouterr().out.splitlines()[0] == "Fc T"

    def test_includes_now_flag(self, capsys):
        assert main(["eval", "--prophecy-includes-now",
                     "within[0,3] p", "{p}@0"]) == EX_OK
        assert capsys.readouterr().out.splitlines()[0] == "T"

    def test_non_decimal_time_fails_before_any_output(self, capsys):
        assert main(["eval", "within[0,2] q", "{}@0", "{}@1/3"]) == EX_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "1/3 has no exact decimal representation" in err
        assert main(["eval", "within[0,2] q", "{}@0", "{q}@1/4"]) == EX_OK
        assert capsys.readouterr().out.splitlines()[0] == "Fc T"

    @pytest.mark.parametrize("argv, error", [
        (["eval", "G p", "{p}@1.5", "{p}@1"], "time regression: event at 1 after 1.5"),
        (["eval", "within[1.5,0.5] p", "{p}@0"],
         "1:1: prophecy bounds must satisfy lower < upper, got [1.5,0.5]"),
    ], ids=["time-regression", "empty-window"])
    def test_errors_print_times_as_written(self, argv, error, capsys):
        assert main(argv) == EX_USAGE
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize("argv", [
        ["eval", "G (p", "{p}@0"],
        ["eval", "G p", "p@0"],
        ["eval", "G p", "{p}@1", "{p}@0"],  # decreasing time
        ["eval", "G p", "{p}@1/0"],
    ])
    def test_parse_errors(self, argv, capsys):
        assert main(argv) == EX_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("event", ["{p}@1\n", "{p}@1 "], ids=["newline", "blank"])
    def test_event_with_trailing_text_refused(self, event, capsys):
        """A `$` would also match before a final newline; the whole event
        must match."""
        assert main(["eval", "p", event]) == EX_USAGE
        assert capsys.readouterr() == (
            "", f"error: cannot parse event {event!r}; expected {{p,q}}@t\n")


LONG = "1" * 5000  # more digits than int() takes


@pytest.mark.parametrize("command, text, where", [
    (["eval", f"within[0,{LONG}] p", "{p}@0"], None, "error: 1:10: "),
    (["validate", "--scenario"], f"system s\ntimestep {LONG}\n", "error: line 2: "),
    (["validate", "--scenario"],
     "system s\ntaskkind T initial\nagent A {\n  task a : T\n  task b : T\n"
     f"  transition t : a -> b after {LONG}\n}}\n", "error: line 6: "),
    (["validate", "--schedule"], f"at 1: noop\nat {LONG}: noop\n", "error: line 2: "),
], ids=["prophecy-bound", "timestep", "after", "schedule-step"])
def test_over_long_number_is_a_usage_error(tmp_path, capsys, command, text, where):
    if text is not None:
        path = tmp_path / "long.txt"
        path.write_text(text)
        command = command + [str(path)]
    assert main(command) == EX_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(where)


class TestValidate:
    def test_all_inputs(self, capsys):
        assert main([
            "validate",
            "--scenario", str(DATA / "master_saviour.scn"),
            "--props", str(DATA / "master_saviour.props"),
            "--bindings", str(DATA / "master_saviour.bindings"),
            "--schedule", str(DATA / "fast.sched"),
        ]) == EX_OK
        assert capsys.readouterr().out.strip() == "ok"

    def test_bad_scenario(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("system s\nagent A {\n")
        assert main(["validate", "--scenario", str(bad)]) == EX_USAGE

    def test_remote_atom_property_is_a_parse_error(self, tmp_path):
        props = tmp_path / "remote.props"
        props.write_text("@Master: G (o -> @Slave1.m1)\n")
        assert main(["validate", "--props", str(props)]) == EX_USAGE

    def test_unbound_proposition(self, tmp_path, capsys):
        props = typo_props(tmp_path)
        bindings = str(DATA / "master_saviour.bindings")
        assert main(["validate", "--props", str(props)]) == EX_OK
        assert main(["validate", "--props", str(props),
                     "--bindings", bindings]) == EX_USAGE
        assert_names_the_typo(capsys)

    def test_unknown_property_agent_as_simulate_refuses_it(self, tmp_path, capsys):
        props = tmp_path / "nobody.props"
        props.write_text("@Nobody: G o\n")
        inputs = ["--scenario", str(DATA / "master_saviour.scn"), "--props", str(props),
                  "--bindings", str(DATA / "master_saviour.bindings")]
        assert main(["simulate", *inputs, "--seed", "1", "--steps", "3"]) == EX_USAGE
        simulated = capsys.readouterr()
        assert simulated == ("", "error: property agent 'Nobody' not in scenario\n")
        assert main(["validate", *inputs]) == EX_USAGE
        assert capsys.readouterr() == simulated

    def test_bindings_checked_against_scenario(self, tmp_path):
        bad = tmp_path / "bad.bindings"
        bad.write_text("prop o = input_present(Ghost, Obstacle)\n")
        assert main([
            "validate",
            "--scenario", str(DATA / "master_saviour.scn"),
            "--bindings", str(bad),
        ]) == EX_USAGE


@pytest.mark.parametrize("entry, error", [
    ("insert Obstacle into Mastr", "unknown agent 'Mastr'"),
    ("insert! Obstcle into Master", "unknown input 'Obstcle'"),
    ("receive Stp from Master at Slave1", "unknown message 'Stp'"),
    ("receive Stop from Mastr at Slave1", "unknown sender 'Mastr'"),
    ("receive Stop from Master at Slav1", "unknown recipient 'Slav1'"),
], ids=["agent", "input-kind", "message-kind", "sender", "recipient"])
def test_schedule_name_typo_is_refused_before_any_step(tmp_path, capsys, entry, error):
    """A name the scenario lacks fails `validate` and `simulate` alike, and
    `simulate` writes no record, where a run would have stopped at step 5."""
    schedule = tmp_path / "typo.sched"
    schedule.write_text(f"at 3: insert! Obstacle into Master\nat 5: {entry}\n")
    out = tmp_path / "trace.jsonl"
    assert main(simulate_args(schedule, out)) == EX_USAGE
    assert not out.exists()
    assert capsys.readouterr() == ("", f"error: step 5: {error}\n")
    assert main(["validate", "--scenario", str(DATA / "master_saviour.scn"),
                 "--schedule", str(schedule)]) == EX_USAGE
    assert capsys.readouterr() == ("", f"error: step 5: {error}\n")


class TestInternalError:
    """Exit 70 is kept for a broken invariant of the program: no input
    should reach it."""

    def test_engine_invariant_violation_exits_70(self, tmp_path, monkeypatch, capsys):
        """A time layer that writes a restart stamp after the clock fails the
        check after that layer, before the step's record is written."""
        step_time = engine.step_time

        def stamp_after_the_clock(snap, delta):
            step_time(snap, delta)
            snap.restarted["Timer", "t1"] = snap.clock + 1

        monkeypatch.setattr(engine, "step_time", stamp_after_the_clock)
        props = tmp_path / "timer.props"
        props.write_text("@Timer: F a\n")
        bindings = tmp_path / "timer.bindings"
        bindings.write_text("prop a = agent_active(Timer)\n")
        assert main(["simulate", "--scenario", str(DATA / "timed_relay.scn"),
                     "--props", str(props), "--bindings", str(bindings),
                     "--seed", "1", "--steps", "3"]) == EX_INTERNAL
        violation = "restart stamp 2 on transition ('Timer', 't1') is after the clock"
        assert capsys.readouterr() == ("", f"internal error: after layer time: {[violation]}\n")

    def assert_exits_as_for_input(self, code, capsys):
        assert code in {EX_OK, EX_INCONCLUSIVE, EX_VIOLATED, EX_USAGE}
        assert not capsys.readouterr().err.startswith("internal error")

    @pytest.mark.xfail(strict=True, reason=GROWTH)
    def test_long_cycle_run(self, tmp_path, capsys):
        """`G (a -> F b)` on a Buddy that stays active and never returns to
        S: 500 steps, where the run writes 488 records and then exits 70."""
        files = {
            "cycle.props": "@Buddy: G (a -> F b)\n",
            "cycle.bindings": "prop a = agent_active(Buddy)\n"
                              "prop b = task_current(Buddy, S)\n",
            "cycle.sched": "at 1: insert Kick into Buddy\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code = main(["simulate", "--scenario", str(DATA / "cycle.scn"),
                     "--props", str(tmp_path / "cycle.props"),
                     "--bindings", str(tmp_path / "cycle.bindings"),
                     "--schedule", str(tmp_path / "cycle.sched"),
                     "--steps", "500", "--out", str(tmp_path / "trace.jsonl")])
        self.assert_exits_as_for_input(code, capsys)

    @pytest.mark.xfail(strict=True, reason=GROWTH)
    def test_long_eval(self, capsys):
        """`G (p -> F q)` on 500 events that each hold p and none q."""
        code = main(["eval", "G (p -> F q)", *(f"{{p}}@{i}" for i in range(500))])
        self.assert_exits_as_for_input(code, capsys)


class TestUsage:
    def test_no_command(self):
        assert main([]) == EX_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EX_USAGE


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "s", "--props", "p", "--bindings", "b", "--steps", "1"],
    ["check-trace", "--trace", "t", "--props", "p", "--bindings", "b"],
    ["eval", "p", "{p}@0"],
    ["validate"],
], ids=lambda argv: argv[0])
def test_main_calls_the_command_function_it_finds_at_call_time(monkeypatch, argv):
    """A wrapper put on a `cmd_*` function after the parser was built is the
    one `main` calls."""
    cli.build_parser()
    calls = []
    name = "cmd_" + argv[0].replace("-", "_")
    monkeypatch.setattr(cli, name, lambda args: calls.append(args.command) or 42)
    assert main(argv) == 42
    assert calls == [argv[0]]
