"""Command-line interface: commands, exit codes, and trace replay."""

import json
from pathlib import Path

import pytest

from tempoweave.cli import (
    EX_INCONCLUSIVE,
    EX_INTERNAL,
    EX_OK,
    EX_RESOLUTION,
    EX_USAGE,
    EX_VIOLATED,
    main,
)
from tempoweave.trace import TRACE_SCHEMA, parse_record

import jsonschema

DATA = Path(__file__).parent / "data"


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

    def test_invalid_json_is_a_format_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(self.check_args(bad)) == EX_USAGE

    def test_schema_violation_is_a_format_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"v": 1, "seq": 1}) + "\n")
        assert main(self.check_args(bad)) == EX_USAGE

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
        records = [
            {"v": 1, "seq": 1, "clock": "1",
             "agents": {"Master": {"task": "Go", "active": True,
                                   "inputs": [], "messages": []}},
             "transit": [], "verdicts": [None]},
            {"v": 1, "seq": 2, "clock": "2",
             "agents": {"Slave1": {"task": "Go", "active": True,
                                   "inputs": [], "messages": []}},
             "transit": [], "verdicts": [None]},
        ]
        trace = tmp_path / "vanishing.jsonl"
        trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert main(self.check_args(trace)) == EX_RESOLUTION
        err = capsys.readouterr().err
        assert "line 2" in err and "'Master'" in err

    def test_hand_written_trace(self, tmp_path, capsys):
        """Three records where the obstacle is gone again by the time the
        evaluated agent is next active: conditionally true throughout."""
        records = [
            {"v": 1, "seq": 1, "clock": "1",
             "agents": {"Master": {"task": "Go", "active": True,
                                   "inputs": [], "messages": []}},
             "transit": [], "verdicts": [None]},
            {"v": 1, "seq": 2, "clock": "2",
             "agents": {"Master": {"task": "Go", "active": True,
                                   "inputs": [], "messages": []}},
             "transit": [], "verdicts": [None]},
            {"v": 1, "seq": 3, "clock": "3",
             "agents": {"Master": {"task": "Blocked", "active": True,
                                   "inputs": [], "messages": []}},
             "transit": [], "verdicts": [None]},
        ]
        trace = tmp_path / "hand.jsonl"
        trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert main(self.check_args(trace)) == EX_OK
        assert capsys.readouterr().out.splitlines() == ["Tc", "Tc", "Tc"]


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

    @pytest.mark.parametrize("argv", [
        ["eval", "G (p", "{p}@0"],
        ["eval", "G p", "p@0"],
        ["eval", "G p", "{p}@1", "{p}@0"],  # decreasing time
    ])
    def test_parse_errors(self, argv):
        assert main(argv) == EX_USAGE


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

    def test_bindings_checked_against_scenario(self, tmp_path):
        bad = tmp_path / "bad.bindings"
        bad.write_text("prop o = input_present(Ghost, Obstacle)\n")
        assert main([
            "validate",
            "--scenario", str(DATA / "master_saviour.scn"),
            "--bindings", str(bad),
        ]) == EX_USAGE


class TestUsage:
    def test_no_command(self):
        assert main([]) == EX_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EX_USAGE
