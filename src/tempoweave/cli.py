"""Command-line front end.

Commands: `simulate` (run the coordination loop and stream trace records),
`check-trace` (replay monitors over a recorded trace, streaming one verdict
row per record), `eval` (feed an inline word to a single monitor),
`validate` (parse-only check of input files).  Exit codes: 0 every
property ends in {T,Tc}; 2 some property is Fc or was never evaluated; 3
some property is F; 64 usage or parse error; 65 name-resolution error in
check-trace; 70 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import os
import re
import sys
from fractions import Fraction

from .engine import (
    EngineInvariantError,
    InteractivePolicy,
    ScriptedPolicy,
    SeededPolicy,
    SimulationError,
    parse_schedule,
    run,
)
from .formula import (
    FormulaError,
    Property,
    format_formula,
    parse_bare_formula,
    parse_formula,
    propositions,
    time_str,
)
from .model import (
    BindingSet,
    ScenarioError,
    load_scenario,
    parse_bindings,
    validate_bindings,
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


def _setup_logging():
    level_name = os.environ.get("TEMPOWEAVE_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(name)s: %(message)s")


class UsageError(Exception):
    pass


def _content_lines(text: str):
    """(line number, text) of every line that is not blank or a comment.

    The text keeps its leading blanks, so columns in it are the file's.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            yield lineno, line


def load_properties(text: str) -> list[Property]:
    """One `@Agent: formula` property per non-comment line."""
    properties = []
    for lineno, line in _content_lines(text):
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


def _parse_time(text: str, what: str) -> Fraction:
    """A time given on the command line; traces print it, so it must be an
    exact decimal."""
    try:
        time = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"invalid {what} {text!r}") from None
    try:
        time_str(time)
    except FormulaError as exc:
        raise UsageError(f"{what} {exc}") from None
    return time


def _parse_delta(text: str) -> Fraction:
    delta = _parse_time(text, "time step")
    if delta <= 0:
        raise UsageError(f"time step must be positive, got {text}")
    return delta


def _load_props_and_bindings(props_path, bindings_path):
    """Read whichever of the two files is given.

    When both are, every proposition that a property names must be bound.
    """
    text = _read(props_path) if props_path else None
    properties = load_properties(text) if text is not None else None
    bindings = parse_bindings(_read(bindings_path)) if bindings_path else None
    if properties is not None and bindings is not None:
        for (lineno, _), prop in zip(_content_lines(text), properties):
            unbound = sorted(propositions(prop.body) - bindings.keys())
            if unbound:
                raise ScenarioError(
                    f"line {lineno}: property names proposition {unbound[0]!r}, "
                    f"which has no binding"
                )
    return properties, bindings


def _load_simulation_inputs(args):
    scenario = load_scenario(_read(args.scenario))
    properties, bindings = _load_props_and_bindings(args.props, args.bindings)
    validate_bindings(bindings, scenario)
    for prop in properties:
        if prop.agent not in scenario.agent_set:
            raise ScenarioError(
                f"property agent {prop.agent!r} not in scenario"
            )
    return scenario, properties, bindings


def cmd_simulate(args) -> int:
    scenario, properties, bindings = _load_simulation_inputs(args)
    if args.interactive:
        policy = InteractivePolicy()
    elif args.schedule is not None:
        policy = ScriptedPolicy(parse_schedule(_read(args.schedule)))
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
    properties, bindings = _load_props_and_bindings(args.props, args.bindings)
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


_EVENT_RE = re.compile(r"^\{([^}]*)\}@(\d+(?:\.\d+)?|\d+/\d+)$")


def _parse_event(token: str) -> Event:
    m = _EVENT_RE.match(token)
    if not m:
        raise UsageError(
            f"cannot parse event {token!r}; expected {{p,q}}@t"
        )
    names = [p.strip() for p in m.group(1).split(",") if p.strip()]
    return Event(frozenset(names), _parse_time(m.group(2), "event time"))


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
    scenario = None
    if args.scenario:
        scenario = load_scenario(_read(args.scenario))
    _, bindings = _load_props_and_bindings(args.props, args.bindings)
    if bindings is not None and scenario is not None:
        validate_bindings(bindings, scenario)
    if args.schedule:
        parse_schedule(_read(args.schedule))
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
    sim.set_defaults(func=cmd_simulate)

    chk = sub.add_parser("check-trace", help="replay monitors over a trace")
    chk.add_argument("--trace", required=True)
    chk.add_argument("--props", required=True)
    chk.add_argument("--bindings", required=True)
    chk.add_argument("--out")
    add_now_flag(chk)
    chk.set_defaults(func=cmd_check_trace)

    ev = sub.add_parser("eval", help="evaluate a formula over an inline word")
    ev.add_argument("formula")
    ev.add_argument("events", nargs="+", metavar="{p,q}@t")
    add_now_flag(ev)
    ev.set_defaults(func=cmd_eval)

    val = sub.add_parser("validate", help="parse inputs without running")
    val.add_argument("--scenario")
    val.add_argument("--props")
    val.add_argument("--bindings")
    val.add_argument("--schedule")
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, FormulaError, ScenarioError, TraceFormatError,
            MonitorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except TraceResolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_RESOLUTION
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except EngineInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EX_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
