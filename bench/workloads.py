"""The benchmark's five workloads and the closed loop that times them.

A workload builds its inputs from a seed in its constructor (the set-up
that `setup_s` measures).  Its work is a *pass* of `units_per_pass` units,
each of `unit_ops` ops, and `run` repeats passes with a single caller: each
unit starts after the previous one returns.  Only the units themselves
are timed.  `check` verifies the outputs a phase kept, outside the timed
region.

The machines this runs on are shared, and a neighbour can slow the CPU by
a third or more for many seconds.  So `run` also times a fixed
pure-Python reference kernel after every `REF_EVERY_S` of unit time, and
`scaled_times` scales each unit's time by `REF_US` over the reference
timings taken around it: the time the unit would take on a machine where
the kernel takes `REF_US`.  A unit's cost is the median of its scaled
times over the passes.

An op is a coordination step (`simulate_saviour`), a trace record
(`replay_saviour`), a monitor event (`monitor_steady`, `monitor_growth`)
or a checked word prefix (`sweep_slice`).  A failed op raised, belongs to a
CLI call that exited 64 or 70, produced a wrong output, or was left
unprocessed after its stream crashed.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tempoweave import cli
from tempoweave.formula import Node, Property, parse_bare_formula
from tempoweave.model import parse_bindings
from tempoweave.monitor import MonitorState
from tempoweave.oracle import Event, finite_verdict
from tempoweave.trace import check_trace

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
SAVIOUR = {
    "--scenario": DATA / "master_saviour.scn",
    "--props": DATA / "master_saviour.props",
    "--bindings": DATA / "master_saviour.bindings",
}
VERDICT_EXITS = (cli.EX_OK, cli.EX_INCONCLUSIVE, cli.EX_VIOLATED)
CLI_CALLS = 24  # seeded simulate runs per workload run
CLI_STEPS = 250  # steps per simulate run, records per replayed trace

REF_US = 200.0  # the reference kernel's time on an idle core of a 2-vCPU Xeon VM
REF_EVERY_S = 0.01  # unit time between two reference timings

clock = time.perf_counter


def reference_kernel() -> int:
    """Fixed interpreter work that touches nothing of the program."""
    table = {}
    for i in range(1500):
        table[i % 97] = str(i)
    return len(table)


def time_reference() -> float:
    start = clock()
    reference_kernel()
    return clock() - start


def reference_scale(timings: list[float]) -> float:
    """Factor from measured time to time at the reference speed."""
    return REF_US * 1e-6 / statistics.median(timings)


@dataclass
class Phase:
    """What one timed loop did, and what is left to check."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed ops whose output was wrong, as opposed to a crash
    wall: float = 0.0  # seconds spent inside units
    units: int = 0  # units run, over all passes
    passes: int = 0  # complete passes
    # per pass, per unit; arrays, so that bookkeeping adds little to
    # peak_rss_mb however many passes a run makes
    times: list[array] = field(default_factory=list)
    ref_of: list[array] = field(default_factory=list)  # the reference timing after each unit
    refs: list[float] = field(default_factory=list)  # reference timings in order
    failed_units: set[int] = field(default_factory=set)
    crashes: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def fail(self, unit: int, ops: int, wrong: bool = False) -> None:
        self.failed += ops
        if wrong:
            self.wrong += ops
        self.failed_units.add(unit)


def run(workload, seconds: float | None = None, units: int | None = None,
        min_passes: int | None = None, probe: bool = False) -> Phase:
    """Repeat passes for `seconds` of unit time and at least `min_passes`
    passes (the workload's own minimum by default), or for exactly `units`
    units.  Outside the units, the reference kernel is timed once for every
    `REF_EVERY_S` of unit time, and once at the end."""
    phase = Phase()
    if min_passes is None:
        min_passes = workload.min_passes
    since_ref = 0.0

    def finished():
        if units is not None:
            return phase.units >= units
        return phase.passes >= min_passes and phase.wall >= seconds

    try:
        while not finished():
            workload.begin_pass(phase, probe)
            phase.times.append(array("d"))
            phase.ref_of.append(array("l"))
            for unit in range(workload.units_per_pass):
                if finished():
                    return phase
                elapsed = workload.run_unit(phase, unit)
                phase.times[-1].append(elapsed)
                phase.ref_of[-1].append(len(phase.refs))
                phase.wall += elapsed
                phase.units += 1
                phase.attempted += workload.unit_ops
                since_ref += elapsed
                while since_ref >= REF_EVERY_S:  # one timing per 10 ms of units
                    phase.refs.append(time_reference())
                    since_ref -= REF_EVERY_S
            phase.passes += 1
        return phase
    finally:
        phase.refs.append(time_reference())


def scaled_times(phase: Phase) -> list[list[float]]:
    """Per pass and unit, the unit's time at the reference speed: its
    measured time scaled by the median of the five reference timings
    around the first one taken after it (about 50 ms of unit time)."""
    refs = phase.refs
    scale = [reference_scale(refs[max(0, i - 2):i + 3]) for i in range(len(refs))]
    return [[elapsed * scale[r] for elapsed, r in zip(times, ref_of)]
            for times, ref_of in zip(phase.times, phase.ref_of)]


def estimate(phase: Phase, workload) -> dict:
    """ops_per_s, per-op latency percentiles and the summed unit time
    (`total_s`), all from each unit's cost: its median scaled time over
    the passes.

    ops_per_s is the share of ops that succeeded times the ops of one pass
    over the summed unit costs.  A latency sample is the summed cost of
    `units_per_sample` consecutive units that never failed, divided by
    their ops.  `slowdown` is the median reference timing over REF_US.
    """
    unit_ops, group = workload.unit_ops, workload.units_per_sample
    repeats: dict[int, list[float]] = {}
    for times in scaled_times(phase):
        for unit, elapsed in enumerate(times):
            repeats.setdefault(unit, []).append(elapsed)
    cost = {unit: statistics.median(values) for unit, values in repeats.items()}
    total = sum(cost.values())
    ok_share = 1 - phase.failed / phase.attempted if phase.attempted else 0.0
    latencies = []
    for first in range(0, len(cost), group):
        units = range(first, min(first + group, len(cost)))
        if phase.failed_units.isdisjoint(units):
            latencies.append(sum(cost[u] for u in units) / (len(units) * unit_ops))
    if len(latencies) > 1:
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        p50, p99 = cuts[49], cuts[98]
    else:
        p50 = p99 = latencies[0] if latencies else 0.0
    return {
        "ops_per_s": ok_share * len(cost) * unit_ops / total if total else 0.0,
        "op_p50_us": p50 * 1e6,
        "op_p99_us": p99 * 1e6,
        "samples": len(latencies),
        "total_s": total,
        "slowdown": statistics.median(phase.refs) / (REF_US * 1e-6),
    }


def cli_seeds(seed: int, calls: int) -> list[int]:
    """The `simulate --seed` values of one run: `calls` seeds of its own.

    One simulate run's cost per step depends on its seed (inputs pile up in
    a random walk and every record lists them), so a run averages over many
    short seeded runs instead of one long one.
    """
    return [seed * calls + j for j in range(calls)]


def simulate_argv(seed: int, steps: int, out: Path) -> list[str]:
    argv = ["simulate", "--seed", str(seed), "--steps", str(steps), "--no-early-stop"]
    for flag, path in SAVIOUR.items():
        argv += [flag, str(path)]
    return argv + ["--out", str(out)]


def replay_trace_path(work: Path, j: int) -> Path:
    return work / f"replay-{j}.jsonl"


def prepare_replay_traces(seed: int, work: Path, calls: int = CLI_CALLS,
                          steps: int = CLI_STEPS) -> None:
    """Write the traces this checkout's `simulate` writes at the run's seeds."""
    for j, cli_seed in enumerate(cli_seeds(seed, calls)):
        code = cli.main(simulate_argv(cli_seed, steps, replay_trace_path(work, j)))
        if code not in VERDICT_EXITS:
            raise RuntimeError(f"simulate --seed {cli_seed} exited {code}")


def _verdict_column(lines: list[str]) -> list[list[str | None]]:
    return [json.loads(line)["verdicts"] for line in lines]


class SimulateSaviour:
    """`tempoweave simulate` in-process; a unit is one call at one of the
    run's seeds, an op one coordination step.

    A unit's output must be the same in every pass; its first output is
    replayed with `check_trace`, which must reproduce its verdict column.
    Single steps cannot be timed from outside the CLI, so a latency sample
    is the time of `units_per_sample` consecutive calls over their steps;
    a single call's cost depends on its seed too much for the slowest of
    them to repeat between runs.
    """

    min_passes = 3
    units_per_sample = 6

    def __init__(self, seed: int, work: Path, calls: int = CLI_CALLS,
                 steps: int = CLI_STEPS):
        self.units_per_pass = calls
        self.unit_ops = steps
        self.argv = [simulate_argv(s, steps, work / f"simulate-{j}.jsonl")
                     for j, s in enumerate(cli_seeds(seed, calls))]

    def begin_pass(self, phase, probe):
        phase.stats.setdefault("reference", {})

    def run_unit(self, phase: Phase, unit: int) -> float:
        argv = self.argv[unit]
        start = clock()
        code = cli.main(argv)
        elapsed = clock() - start
        lines = Path(argv[-1]).read_text(encoding="utf-8").splitlines()
        if code not in VERDICT_EXITS or len(lines) != self.unit_ops:
            phase.crashes.append(f"seed {argv[2]}: exit {code}, {len(lines)} lines")
            phase.fail(unit, self.unit_ops)
            return elapsed
        reference = phase.stats["reference"].setdefault(unit, lines)
        # lines where this output differs from the unit's first one
        phase.outputs.append((unit, {i for i, (a, b) in enumerate(zip(lines, reference))
                                     if a != b}))
        return elapsed

    def check(self, phase: Phase) -> None:
        props = cli.load_properties(SAVIOUR["--props"].read_text())
        bindings = parse_bindings(SAVIOUR["--bindings"].read_text())
        bad = {}
        for unit, lines in phase.stats.pop("reference", {}).items():
            rows, _ = check_trace(lines, props, bindings)
            bad[unit] = {i for i, (a, b) in enumerate(zip(rows, _verdict_column(lines)))
                         if a != b}
        for unit, differing in phase.outputs:
            if differing | bad[unit]:
                phase.fail(unit, len(differing | bad[unit]), wrong=True)
        phase.outputs.clear()


class ReplaySaviour:
    """`tempoweave check-trace` in-process on the traces `simulate` wrote at
    the run's seeds (see `prepare_replay_traces`); a unit is one call on one
    trace, an op one trace record.  As for `SimulateSaviour`, a latency
    sample is six consecutive calls' time over their records."""

    min_passes = 3
    units_per_sample = 6

    def __init__(self, seed: int, work: Path, calls: int = CLI_CALLS):
        self.units_per_pass = calls
        self.traces = [replay_trace_path(work, j) for j in range(calls)]
        lengths = {len(t.read_text(encoding="utf-8").splitlines()) for t in self.traces}
        if len(lengths) != 1:
            raise ValueError(f"replay traces differ in length: {sorted(lengths)}")
        self.unit_ops = lengths.pop()
        self.rows_out = work / "replay-rows.txt"
        self.argv = [["check-trace", "--trace", str(trace),
                      "--props", str(SAVIOUR["--props"]),
                      "--bindings", str(SAVIOUR["--bindings"]),
                      "--out", str(self.rows_out)]
                     for trace in self.traces]

    def begin_pass(self, phase, probe):
        pass

    def run_unit(self, phase: Phase, unit: int) -> float:
        start = clock()
        code = cli.main(self.argv[unit])
        elapsed = clock() - start
        rows = self.rows_out.read_text(encoding="utf-8").splitlines()
        if code not in VERDICT_EXITS or len(rows) != self.unit_ops:
            phase.crashes.append(f"{self.traces[unit].name}: exit {code}, "
                                 f"{len(rows)} rows")
            phase.fail(unit, self.unit_ops)
        else:
            phase.outputs.append((unit, rows))
        return elapsed

    def check(self, phase: Phase) -> None:
        expected = [
            [" ".join("-" if v is None else v for v in column)
             for column in _verdict_column(t.read_text(encoding="utf-8").splitlines())]
            for t in self.traces
        ]
        for unit, rows in phase.outputs:
            wrong = sum(a != b for a, b in zip(rows, expected[unit]))
            if wrong:
                phase.fail(unit, wrong, wrong=True)
        phase.outputs.clear()


# --- monitor workloads -------------------------------------------------------


def _times(rng: random.Random, count: int) -> list[Fraction]:
    """Strictly increasing timestamps with steps of 1, 3/2 or 2."""
    steps = (Fraction(1), Fraction(3, 2), Fraction(2))
    now, out = Fraction(0), []
    for _ in range(count):
        out.append(now)
        now += rng.choice(steps)
    return out


def _paper_stream(rng, count):
    """o opens two 3-unit windows; m1 and m2 always arrive inside them."""
    times = _times(rng, count + 1)
    deadline = {"m1": None, "m2": None}
    events = []
    for i in range(count):
        props = set()
        for name in ("m1", "m2"):
            due = deadline[name]
            if due is not None and (times[i + 1] > due or rng.random() < 0.4):
                props.add(name)
                deadline[name] = None
            elif due is None and rng.random() < 0.1:
                props.add(name)
        if rng.random() < 0.25:
            props.add("o")
            for name in ("m1", "m2"):
                if deadline[name] is None:
                    deadline[name] = times[i] + 3
        events.append(Event(frozenset(props), times[i]))
    return events


def _until_stream(rng, count):
    """Every p is followed, from the next event, by q until r within 3 events."""
    times = _times(rng, count)
    waiting = None  # index of the oldest event that must see q U r
    events = []
    for i in range(count):
        props = set()
        if waiting is not None and waiting <= i:
            if i - waiting >= 2 or rng.random() < 0.4:
                props.add("r")
                waiting = None
            else:
                props.add("q")
        elif rng.random() < 0.2:
            props.add("q")
        if rng.random() < 0.3:
            props.add("p")
            if waiting is None:
                waiting = i + 1
        events.append(Event(frozenset(props), times[i]))
    return events


def _negated_stream(rng, count):
    """Runs of p end (an event without p) 1 to 3 time units after they start."""
    times = _times(rng, count + 1)
    run_start = None
    events = []
    for i in range(count):
        must_end = run_start is not None and times[i + 1] > run_start + 3
        if not must_end and rng.random() < 0.5:
            if run_start is None:
                run_start = times[i]
            events.append(Event(frozenset({"p"}), times[i]))
        else:
            run_start = None
            events.append(Event(frozenset(), times[i]))
    return events


def _grow_stream(props):
    """Every event carries `props` (plus noise the formula never reads)."""
    def make(rng, count):
        return [
            Event(frozenset(props) | {n for n in ("s", "t") if rng.random() < 0.5}, t)
            for t in _times(rng, count)
        ]
    return make


# (stream id, formula, stream generator); every steady obligation is
# discharged within a few events, every growth obligation never is.
STEADY = (
    ("paper", "G (o -> (within[0,3] m1 & within[0,3] m2))", _paper_stream),
    ("next_until", "G (p -> X (q U r))", _until_stream),
    ("negated_within", "G (p -> within[1,3] !p)", _negated_stream),
)
GROWTH = (
    ("response", "G (p -> F q)", _grow_stream({"p"})),
    ("next_until", "G (p -> X (q U r))", _grow_stream({"p", "q"})),
    ("always_eventually", "G F p", _grow_stream(())),
    ("within_1000", "G (p -> within[0,1000] q)", _grow_stream({"p"})),
)


def obligation_nodes(node: Node) -> int:
    """Node count of a formula tree, without recursion (trees get deep)."""
    count, todo = 0, [node]
    while todo:
        n = todo.pop()
        count += 1
        for attr in ("child", "left", "right"):
            sub = getattr(n, attr, None)
            if sub is not None:
                todo.append(sub)
    return count


class MonitorStreams:
    """Seeded event streams fed through `MonitorState.step`; a unit is one
    event.  Streams are stepped round-robin, one event of each per round, so
    the mix of formulas is the same wherever a pass stops.  A pass restarts
    every stream with a fresh monitor.
    """

    unit_ops = 1
    units_per_sample = 1

    def __init__(self, seed: int, streams, length: int, oracle_prefix: int,
                 min_passes: int):
        rng = random.Random(seed)
        self.ids = [ident for ident, _, _ in streams]
        self.formulas = [parse_bare_formula(text) for _, text, _ in streams]
        self.events = [make(rng, length) for _, _, make in streams]
        self.units_per_pass = length * len(streams)
        self.oracle_prefix = oracle_prefix
        self.min_passes = min_passes

    def begin_pass(self, phase: Phase, probe: bool) -> None:
        count = len(self.formulas)
        self.states = [MonitorState(Property("Local", f)) for f in self.formulas]
        self.crashed = [False] * count
        self.probe = probe
        phase.outputs.append([[] for _ in range(count)])
        phase.stats.setdefault("first_failure", [None] * count)
        phase.stats.setdefault("nodes_max", [0] * count)

    def run_unit(self, phase: Phase, unit: int) -> float:
        s, r = unit % len(self.formulas), unit // len(self.formulas)
        if self.crashed[s]:
            phase.fail(unit, 1)
            return 0.0
        start = clock()
        try:
            verdict = self.states[s].step(self.events[s][r])
        except Exception as exc:  # a crash fails this and the later events
            elapsed = clock() - start
            self.crashed[s] = True
            phase.fail(unit, 1)
            phase.crashes.append(f"{self.ids[s]}: {type(exc).__name__} at event {r}")
            first = phase.stats["first_failure"]
            first[s] = r if first[s] is None else min(first[s], r)
            return elapsed
        elapsed = clock() - start
        phase.outputs[-1][s].append(verdict)
        if self.probe:
            nodes = phase.stats["nodes_max"]
            nodes[s] = max(nodes[s], obligation_nodes(self.states[s].obligation))
        return elapsed

    def check(self, phase: Phase) -> None:
        """Prefix verdicts against the oracle; later ones against the first pass."""
        count = len(self.formulas)
        first = phase.outputs[0]
        for s, formula in enumerate(self.formulas):
            prefix = min(self.oracle_prefix, len(first[s]))
            word = self.events[s]
            expected = [
                finite_verdict(tuple(word[: k + 1]), formula, allow_sugar=True)
                for k in range(prefix)
            ] + first[s][prefix:]
            for verdicts in phase.outputs:
                for k, (got, want) in enumerate(zip(verdicts[s], expected)):
                    if got != want:
                        phase.fail(k * count + s, 1, wrong=True)
                        stat = phase.stats["first_failure"]
                        stat[s] = k if stat[s] is None else min(stat[s], k)
        phase.outputs.clear()

    def stream_stats(self, phase: Phase) -> dict[str, dict[str, float]]:
        """Per stream, from the first pass: events before the first failure,
        largest obligation, and step-time growth (last tenth over first)."""
        count = len(self.formulas)
        first_pass = scaled_times(phase)[0]
        out = {}
        for s, ident in enumerate(self.ids):
            first = phase.stats["first_failure"][s]
            times = first_pass[s::count]
            if first is not None:
                times = times[:first]
            tenth = max(1, len(times) // 10)
            out[ident] = {
                "events_before_failure": len(times),
                "obligation_nodes_max": phase.stats["nodes_max"][s],
                "step_us_last_over_first": (
                    sum(times[-tenth:]) / sum(times[:tenth]) if times else 0.0
                ),
            }
        return out


def monitor_steady(seed: int, work: Path, length: int = 1500,
                   oracle_prefix: int = 60) -> MonitorStreams:
    return MonitorStreams(seed, STEADY, length, oracle_prefix, min_passes=3)


def monitor_growth(seed: int, work: Path, length: int = 400,
                   oracle_prefix: int = 40) -> MonitorStreams:
    # A pass takes 15-25 s here, so a run is two passes unless the machine
    # is much faster.
    return MonitorStreams(seed, GROWTH, length, oracle_prefix, min_passes=2)


# --- criterion-2 sweep slice -------------------------------------------------


class SweepSlice:
    """`check_formula` from tests/helpers.py over every 80th formula of the
    criterion-2 corpus (44 formulas), in corpus order, with a fresh
    `StepCache` per pass; a unit is one formula, an op one checked word
    prefix.

    The inputs are the same for every seed.  Formulas differ in cost by a
    factor of ten, so a seeded draw of 44 moves the figures more than most
    changes do, and a seeded order decides which formula pays for each
    StepCache miss, so op_p99_us moved with the seed too.
    """

    min_passes = 3  # a pass takes about 3 s
    units_per_sample = 1

    def __init__(self, seed: int, work: Path, stride: int = 80):
        import helpers

        self.helpers = helpers
        self.formulas = helpers.formula_corpus()[::stride]
        self.units_per_pass = len(self.formulas)
        # check_formula walks the same word tree for every formula: each
        # distinct schedule prefix of length n with every symbol sequence
        self.unit_ops = sum(
            len({s[:n] for s in helpers.SCHEDULES}) * len(helpers.SYMBOLS) ** n
            for n in range(1, helpers.MAX_LEN + 1)
        )

    def begin_pass(self, phase: Phase, probe: bool) -> None:
        self.cache = self.helpers.StepCache()
        phase.outputs.append([])
        phase.stats.setdefault("lookups", 0)
        phase.stats.setdefault("misses", 0)

    def run_unit(self, phase: Phase, unit: int) -> float:
        formula = self.formulas[unit]
        misses = self.cache.misses
        start = clock()
        try:
            problems = self.helpers.check_formula(formula, self.cache)
        except Exception as exc:  # the formula's whole prefix tree fails
            elapsed = clock() - start
            phase.fail(unit, self.unit_ops)
            phase.crashes.append(f"{formula}: {type(exc).__name__}")
            return elapsed
        elapsed = clock() - start
        phase.stats["lookups"] += self.unit_ops
        phase.stats["misses"] += self.cache.misses - misses
        phase.outputs[-1].append((unit, problems))
        return elapsed

    def check(self, phase: Phase) -> None:
        for results in phase.outputs:
            for unit, problems in results:
                # a problem line starts with "<formula> on <prefix>: "
                bad = {p.split(": ", 1)[0]
                       for p in problems["mismatch"] + problems["stability"]}
                if bad:
                    phase.fail(unit, min(self.unit_ops, len(bad)), wrong=True)
        phase.outputs.clear()


WORKLOADS = {
    "simulate_saviour": SimulateSaviour,
    "replay_saviour": ReplaySaviour,
    "monitor_steady": monitor_steady,
    "monitor_growth": monitor_growth,
    "sweep_slice": SweepSlice,
}
