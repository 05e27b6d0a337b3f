"""Command-line front end.

Commands: `simulate` (run the coordination loop and stream trace records),
`check-trace` (replay monitors over a recorded trace, streaming one verdict
row per record), `eval` (feed an inline word to a single monitor),
`validate` (check input files without running).  Exit codes: 0 every
property ends in {T,Tc}; 2 some property is Fc or was never evaluated; 3
some property is F; 64 usage or parse error; 65 name-resolution error in
check-trace; 70 internal invariant violation; 74 stdout was closed before
the output was all written (say, by `head`).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import os
import re
import sys

from .engine import (
    InteractivePolicy,
    ScriptedPolicy,
    SeededPolicy,
    SimulationError,
    check_schedule,
    parse_schedule,
    run,
)
from .formula import (
    NAME,
    NAMES,
    NUMBER,
    FormulaError,
    Property,
    format_formula,
    parse_bare_formula,
    parse_formula,
    Time,
    exact_time,
    parse_decimal,
    time_str,
)
from .model import (
    ScenarioError,
    check_names,
    content_lines,
    load_scenario,
    parse_bindings,
)
from .monitor import MonitorError, MonitorState
from .oracle import Event
from .trace import TraceFormatError, TraceResolutionError, check_trace, trace_lines
from .verdict import Verdict

EX_OK = 0
EX_INCONCLUSIVE = 2
EX_VIOLATED = 3
EX_USAGE = 64
EX_RESOLUTION = 65
EX_INTERNAL = 70
EX_IOERR = 74


def _setup_logging():
    level_name = os.environ.get("TEMPOWEAVE_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(name)s: %(message)s")


class UsageError(Exception):
    pass


def load_properties(text: str) -> list[Property]:
    """One `@Agent: formula` property per non-comment line."""
    properties = []
    for lineno, line in content_lines(text):
        try:
            properties.append(parse_formula(line))
        except FormulaError as exc:
            # every parse error has a position; its line is 1 within `line`
            raise FormulaError(exc.reason, lineno, exc.column) from None
    if not properties:
        raise FormulaError("no properties found")
    return properties


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _output(path: str | None):
    """The `--out` file, opened for writing, or stdout when there is none."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _verdict_exit(monitors: list[MonitorState]) -> int:
    worst = EX_OK
    for m in monitors:
        last = m.last_verdict
        if last is Verdict.FALSE:
            return EX_VIOLATED
        if last is None or last is Verdict.FALSE_C:
            worst = EX_INCONCLUSIVE
    return worst


# a time as the command line writes it, for `--delta` and `eval` events
_TIME = rf"{NUMBER}|\d+/\d+"


def _parse_time(text: str, what: str) -> Time:
    """A time given on the command line, `NUMBER` or `p/q`; traces print it,
    so it must be an exact decimal."""
    numerator, slash, denominator = text.partition("/")
    try:
        if re.fullmatch(_TIME, text):
            time = exact_time(int(numerator), int(denominator)) if slash else parse_decimal(text)
            time_str(time)
            return time
    except FormulaError as exc:  # no exact decimal, or too long to print
        raise UsageError(f"{what} {exc}") from None
    except (ValueError, ZeroDivisionError):  # past int()'s digit limit, or p/0
        pass
    raise UsageError(f"invalid {what} {text!r}")


def _parse_delta(text: str) -> Time:
    delta = _parse_time(text, "time step")
    if delta <= 0:
        raise UsageError(f"time step must be positive, got {text}")
    return delta


def _load_inputs(args):
    """(scenario, properties, bindings, schedule) from the files `args` names,
    None ([] for properties) for each not given, once every name resolves."""
    def load(path, parse):
        return parse(_read(path)) if path else None

    scenario = load(getattr(args, "scenario", None), load_scenario)
    text = _read(args.props) if args.props else None
    properties = load_properties(text) if text is not None else []
    bindings = load(args.bindings, parse_bindings)
    check_names(properties, bindings, scenario,
                [lineno for lineno, _ in content_lines(text or "")])
    schedule = load(getattr(args, "schedule", None), parse_schedule)
    if schedule is not None and scenario is not None:
        check_schedule(schedule, scenario)
    return scenario, properties, bindings, schedule


def cmd_simulate(args) -> int:
    scenario, properties, bindings, schedule = _load_inputs(args)
    if args.interactive:
        policy = InteractivePolicy()
    elif schedule is not None:
        policy = ScriptedPolicy(schedule)
    elif args.seed is not None:
        policy = SeededPolicy(args.seed)
    else:
        raise UsageError("simulate needs --schedule, --seed, or --interactive")
    delta = _parse_delta(args.delta) if args.delta is not None else None
    if args.steps < 1:
        raise UsageError(f"steps must be >= 1, got {args.steps}")
    now = args.prophecy_includes_now
    monitors = [MonitorState(p, prophecy_includes_now=now) for p in properties]
    entries = run(scenario, monitors, bindings, policy, steps=args.steps,
                  delta=delta, early_stop=not args.no_early_stop)
    with _output(args.out) as out:
        # each record is flushed as its step ends, so a run that stops at
        # step k, by an error or a kill, leaves the k - 1 records before it
        for line in trace_lines(entries):
            out.write(line + "\n")
            out.flush()
    return _verdict_exit(monitors)


def cmd_check_trace(args) -> int:
    _, properties, bindings, _ = _load_inputs(args)
    try:
        trace = open(args.trace, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {args.trace}: {exc}") from None
    with trace, _output(args.out) as out:
        # each row is written as its record replays, so a replay that fails
        # at record k leaves the k - 1 rows before it
        rows, monitors = check_trace(
            trace, properties, bindings,
            prophecy_includes_now=args.prophecy_includes_now,
        )
        try:
            for row in rows:
                print(" ".join("-" if v is None else v for v in row), file=out)
        except UnicodeDecodeError as exc:
            raise UsageError(f"cannot read {args.trace}: {exc}") from None
    return _verdict_exit(monitors)


_EVENT_RE = re.compile(rf"\{{\s*({NAMES})\s*\}}@({_TIME})")


def _parse_event(token: str) -> Event:
    m = _EVENT_RE.fullmatch(token)
    if not m:
        raise UsageError(f"cannot parse event {token!r}; expected {{p,q}}@t")
    return Event(frozenset(re.findall(NAME, m.group(1))),
                 _parse_time(m.group(2), "event time"))


def cmd_eval(args) -> int:
    body = parse_bare_formula(args.formula)
    prop = Property("Local", body)
    events = [_parse_event(token) for token in args.events]
    state = MonitorState(prop, prophecy_includes_now=args.prophecy_includes_now)
    shorts = [state.step(event).short for event in events]
    print(" ".join(shorts))
    print(format_formula(state.obligation, extended=True))
    return _verdict_exit([state])


def cmd_validate(args) -> int:
    _load_inputs(args)
    print("ok")
    return EX_OK


@functools.cache  # built once; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempoweave",
        description="Multi-agent workflow simulation with timed-LTL monitoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_now_flag(p):
        p.add_argument(
            "--prophecy-includes-now", action="store_true",
            help="let the current event witness a just-activated time bound",
        )

    sim = sub.add_parser("simulate", help="run the coordination loop")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--props", required=True)
    sim.add_argument("--bindings", required=True)
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--schedule")
    group.add_argument("--seed", type=int)
    group.add_argument("--interactive", action="store_true")
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--delta")
    sim.add_argument("--out")
    sim.add_argument("--no-early-stop", action="store_true")
    add_now_flag(sim)

    chk = sub.add_parser("check-trace", help="replay monitors over a trace")
    chk.add_argument("--trace", required=True)
    chk.add_argument("--props", required=True)
    chk.add_argument("--bindings", required=True)
    chk.add_argument("--out")
    add_now_flag(chk)

    ev = sub.add_parser("eval", help="evaluate a formula over an inline word")
    ev.add_argument("formula")
    ev.add_argument("events", nargs="+", metavar="{p,q}@t")
    add_now_flag(ev)

    val = sub.add_parser("validate", help="parse inputs without running")
    val.add_argument("--scenario")
    val.add_argument("--props")
    val.add_argument("--bindings")
    val.add_argument("--schedule")

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    # looked up now, not when the parser was built, so that a wrapper put on
    # a `cmd_*` function is the one called
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (UsageError, FormulaError, ScenarioError, TraceFormatError,
            MonitorError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except TraceResolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_RESOLUTION
    except BrokenPipeError:
        # the reader closed stdout; what is left to flush at exit goes to
        # devnull, so the shutdown stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_IOERR
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
