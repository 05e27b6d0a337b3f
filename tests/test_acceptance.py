"""Acceptance suite: one pass/fail line per criterion.

The heavyweight monitor-vs-reference sweep (criteria 2 and 8) runs once
per prophecy reading and is shared; everything else is self-contained.
Lines are registered with the conftest summary hook so they stay visible
under output capture.
"""

import itertools
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import record_criterion
from helpers import (
    StepCache,
    all_words,
    check_formula,
    formula_corpus,
    gen_scenario,
    tree_suffixes,
    word_tree,
)
from tempoweave.engine import ScriptedPolicy, SeededPolicy, parse_schedule, run
from tempoweave.formula import (
    And,
    Atom,
    Next,
    Not,
    Or,
    Prophecy,
    Until,
    format_formula,
    parse_bare_formula,
    parse_formula,
)
from tempoweave.model import (
    ScenarioError,
    check_conformance,
    load_scenario,
    parse_bindings,
    print_scenario,
)
from tempoweave.monitor import MonitorState
from tempoweave.oracle import ev, make_word, sat, sats
from tempoweave.trace import check_trace, trace_lines
from tempoweave.verdict import Verdict, complement, join, meet

DATA = Path(__file__).parent / "data"


def report(number: int, description: str, problems: list, elapsed: float):
    status = "PASS" if not problems else "FAIL"
    line = f"{status} criterion {number}: {description} ({elapsed:.1f}s)"
    record_criterion(line)
    print(line)
    assert not problems, f"criterion {number}: {problems[:10]}"


_SWEEPS: dict = {}
READINGS = {False: "default", True: "includes-now"}  # prophecy_includes_now


def sweep(includes_now: bool) -> dict:
    """Shared exhaustive run for criteria 2 and 8 under one prophecy reading."""
    if includes_now not in _SWEEPS:
        start = time.time()
        cache = StepCache(prophecy_includes_now=includes_now)
        mismatches: list[str] = []
        stability: list[str] = []
        count = compared = 0
        for formula in formula_corpus():
            problems = check_formula(formula, cache)
            mismatches += problems["mismatch"]
            stability += problems["stability"]
            compared += problems["compared"]
            count += 1
        _SWEEPS[includes_now] = dict(
            mismatches=mismatches,
            stability=stability,
            formulas=count,
            compared=compared,
            elapsed=time.time() - start,
        )
    return _SWEEPS[includes_now]


@pytest.mark.parametrize("includes_now", READINGS, ids=READINGS.values())
def test_sweep_reading(includes_now):
    """Each reading's sweep runs in a test of its own, so that the run's
    slowest-test list times both; criteria 2 and 8 report on them."""
    data = sweep(includes_now)
    assert data["compared"] == data["formulas"] * len(all_words())


def test_criterion_1_lattice():
    start = time.time()
    problems = []
    if meet(Verdict.TRUE, Verdict.FALSE_C) is not Verdict.FALSE_C:
        problems.append("meet(T, Fc) != Fc")
    if join(Verdict.TRUE, Verdict.FALSE_C) is not Verdict.TRUE:
        problems.append("join(T, Fc) != T")
    if complement(Verdict.FALSE_C) is not Verdict.TRUE_C:
        problems.append("complement(Fc) != Tc")
    for a, b, c in itertools.product(Verdict, Verdict, Verdict):
        checks = [
            meet(a, b) is meet(b, a),
            join(a, b) is join(b, a),
            meet(meet(a, b), c) is meet(a, meet(b, c)),
            join(join(a, b), c) is join(a, join(b, c)),
            meet(a, join(a, b)) is a,
            join(a, meet(a, b)) is a,
            meet(a, join(b, c)) is join(meet(a, b), meet(a, c)),
            complement(meet(a, b)) is join(complement(a), complement(b)),
            complement(complement(a)) is a,
        ]
        if not all(checks):
            problems.append(f"law violated at ({a}, {b}, {c})")
    elapsed = time.time() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    report(1, "four-valued lattice identities and laws (64 triples)",
           problems, elapsed)


def test_criterion_2_monitor_equals_reference():
    runs = {READINGS[now]: sweep(now) for now in READINGS}
    problems = [f"{name}: {p}" for name, data in runs.items() for p in data["mismatches"]]
    prefixes = len(all_words())  # the nodes of one formula's word tree
    for name, data in runs.items():
        if data["compared"] < data["formulas"] * prefixes:
            problems.append(f"{name} reading compared {data['compared']} pairs, fewer "
                            f"than {data['formulas']} formulas x {prefixes} prefixes")
    elapsed = sum(data["elapsed"] for data in runs.values())
    if elapsed >= 300:
        problems.append(f"took {elapsed:.0f}s, budget 300s")
    formulas = runs["default"]["formulas"]
    report(
        2,
        f"stepwise monitor equals reference verdict at every prefix "
        f"({formulas} formulas x {prefixes} prefixes, under each prophecy reading: "
        + ", ".join(f"{name} {data['compared']:,} comparisons in {data['elapsed']:.1f}s"
                    for name, data in runs.items()) + ")",
        problems,
        elapsed,
    )


def test_criterion_3_satisfaction_clauses():
    start = time.time()
    p, q = Atom("p"), Atom("q")
    w03 = Prophecy(Fraction(0), Fraction(3), "p")
    w12 = Prophecy(Fraction(1), Fraction(2), "p")
    neg = Prophecy(Fraction(0), Fraction(2), "p", negated=True)

    def word(*pairs):
        return make_word(*(ev(props, t) for props, t in pairs))

    cases = {
        "atom": [
            (p, word(({"p"}, 0)), True),
            (p, word(({}, 0)), False),
            (p, word(({"q"}, 0)), False),
            (p, word(({"p", "q"}, 0)), True),
            (p, word(({}, 0), ({"p"}, 1)), False),
        ],
        "negation": [
            (Not(p), word(({"p"}, 0)), False),
            (Not(p), word(({}, 0)), True),
            (Not(p), word(({"q"}, 0)), True),
            (Not(p), word(({"q"}, 0), ({"p"}, 1)), True),
            (Not(p), word(({"p", "q"}, 0), ({}, 1)), False),
        ],
        "disjunction": [
            (Or(p, q), word(({"p"}, 0)), True),
            (Or(p, q), word(({"q"}, 0)), True),
            (Or(p, q), word(({"p", "q"}, 0)), True),
            (Or(p, q), word(({}, 0)), False),
            (Or(p, q), word(({}, 0), ({"p", "q"}, 1)), False),
        ],
        "next (|w| > 1 edge)": [
            (Next(p), word(({"p"}, 0)), False),
            (Next(p), word(({"p"}, 0), ({"p"}, 1)), True),
            (Next(p), word(({}, 0), ({"p"}, 1)), True),
            (Next(p), word(({"p"}, 0), ({}, 1)), False),
            (Next(p), word(({}, 0), ({}, 1), ({"p"}, 2)), False),
        ],
        "until": [
            (Until(p, q), word(({"q"}, 0)), True),
            (Until(p, q), word(({"p"}, 0), ({"q"}, 1)), True),
            (Until(p, q), word(({"p"}, 0), ({"p"}, 1), ({"q"}, 2)), True),
            (Until(p, q), word(({"p"}, 0), ({}, 1), ({"q"}, 2)), False),
            (Until(p, q), word(({"p"}, 0), ({"p"}, 1)), False),
        ],
        "prophecy": [
            (w03, word(({}, 0), ({"p"}, 2)), True),
            (w03, word(({}, 0), ({"p"}, 3)), True),
            (w03, word(({}, 0), ({"p"}, 4)), False),
            (w12, word(({}, 0), ({"p"}, 0)), False),
            (w12, word(({}, 0), ({"p"}, 0), ({"p"}, 2)), False),
        ],
        "negated prophecy": [
            (neg, word(({"p"}, 0), ({}, 1)), True),
            (neg, word(({"p"}, 0), ({"p"}, 1), ({}, 2)), True),
            (neg, word(({"p"}, 0), ({"p"}, 1), ({"p"}, 2), ({}, 3)), False),
            (neg, word(({"p"}, 0), ({"p"}, 4)), False),
            (neg, word(({}, 0), ({}, 1)), True),
        ],
    }
    problems = []
    for clause, table in cases.items():
        if len(table) < 5:
            problems.append(f"{clause}: fewer than 5 words")
        for formula, w, expected in table:
            if sat(w, formula) is not expected:
                problems.append(f"{clause}: {formula} on {w}")
    report(3, "satisfaction clauses on hand-constructed words (>= 5 each)",
           problems, time.time() - start)


def test_criterion_4_unrolling_law():
    start = time.time()
    untils = [f for f in formula_corpus() if isinstance(f, Until)]
    words = [w for _, _, _, w in word_tree()]
    problems = []
    for f in untils:
        # psi | (phi & X(phi U psi))
        unrolled = Or(f.right, And(f.left, Next(f)))
        for w, a, b in zip(words, sats(tree_suffixes(), f, allow_sugar=True),
                           sats(tree_suffixes(), unrolled, allow_sugar=True)):
            if a != b:
                problems.append(f"{format_formula(f)} on {w}")
    report(
        4,
        f"one-step unrolling preserves satisfaction "
        f"({len(untils)} until-formulas x {len(words)} words)",
        problems,
        time.time() - start,
    )


def test_criterion_5_scenario_reproduction():
    start = time.time()
    scenario = load_scenario((DATA / "master_saviour.scn").read_text())
    props = [parse_formula(
        "@Master: G (o -> (within[0,3] m1 & within[0,3] m2))")]
    bindings = parse_bindings((DATA / "master_saviour.bindings").read_text())
    problems = []

    fast = list(run(scenario, [MonitorState(p) for p in props], bindings,
                    ScriptedPolicy(parse_schedule((DATA / "fast.sched").read_text())),
                    steps=12, delta=Fraction(1)))
    fast_verdicts = [e.verdicts[0] for e in fast if e.verdicts[0] is not None]
    if not fast_verdicts or set(fast_verdicts) != {Verdict.TRUE_C}:
        problems.append(f"timely delivery: verdicts {fast_verdicts}")

    slow = list(run(scenario, [MonitorState(p) for p in props], bindings,
                    ScriptedPolicy(parse_schedule((DATA / "slow.sched").read_text())),
                    steps=12, delta=Fraction(1), early_stop=False))
    slow_verdicts = [e.verdicts[0] for e in slow if e.verdicts[0] is not None]
    if Verdict.FALSE not in slow_verdicts:
        problems.append(f"late delivery never reaches F: {slow_verdicts}")
    else:
        after = slow_verdicts[slow_verdicts.index(Verdict.FALSE):]
        if set(after) != {Verdict.FALSE}:
            problems.append(f"F verdict not stable: {after}")

    # a misspelt proposition is refused, not read as false
    typo = parse_formula("@Master: G (o -> within[0,3] m_typo)")
    try:
        list(run(scenario, [MonitorState(typo)], bindings,
                 ScriptedPolicy(parse_schedule((DATA / "fast.sched").read_text())),
                 steps=12, delta=Fraction(1)))
        problems.append("typo property m_typo was not refused")
    except ScenarioError as exc:
        if str(exc) != "property names proposition 'm_typo', which has no binding":
            problems.append(f"typo property refused with {exc}")

    for entries in (fast, slow):
        final = entries[-1].snapshot
        for slave in ("Slave1", "Slave2"):
            kind = scenario.task_kind_of[slave][final.agents[slave].task]
            if kind != "Idle":
                problems.append(f"{slave} ended at a {kind} task")
        sent = any(
            e.snapshot.in_transit and
            any(m.kind == "Stopped" for m in e.snapshot.in_transit.values())
            for e in entries
        ) or any(
            m.kind == "Stopped"
            for e in entries
            for m in e.snapshot.agents["Master"].messages.values()
        )
        if not sent:
            problems.append("no Stopped message was ever sent")

    elapsed = time.time() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    report(5, "coordinator/worker scenario: timely stays Tc, late hits F, a typo "
           "is refused",
           problems, elapsed)


def test_criterion_6_engine_soak():
    start = time.time()
    names = ["master_saviour", "timed_relay", "cycle", "broadcast"]
    scenarios = {
        n: load_scenario((DATA / f"{n}.scn").read_text()) for n in names
    }
    problems = []
    runs = 0
    for name, scenario in scenarios.items():
        for seed in range(250):
            # conformance is checked after every layer inside the step
            entries = list(run(scenario, [], {}, SeededPolicy(seed), steps=50))
            runs += 1
            clocks = [e.snapshot.clock for e in entries]
            if clocks != sorted(clocks):
                problems.append(f"{name} seed {seed}: clock not monotone")
            final = entries[-1].snapshot
            violations = check_conformance(final, scenario)
            if violations:
                problems.append(f"{name} seed {seed}: {violations}")
    elapsed = time.time() - start
    if runs != 1000:
        problems.append(f"ran {runs} runs, expected 1000")
    if elapsed >= 120:
        problems.append(f"took {elapsed:.0f}s, budget 120s")
    report(6, "1000 seeded 50-step runs over 4 scenarios stay conformant",
           problems, elapsed)


def test_criterion_7_round_trips():
    start = time.time()
    problems = []

    formulas = formula_corpus(budget=6700)
    for f in formulas:
        if parse_bare_formula(format_formula(f)) != f:
            problems.append(f"formula round trip: {format_formula(f)}")
    if len(formulas) < 10_000:
        problems.append(f"only {len(formulas)} formulas")

    names = ["master_saviour", "timed_relay", "cycle", "broadcast"]
    scenarios = [
        load_scenario((DATA / f"{n}.scn").read_text()) for n in names
    ] + [gen_scenario(seed) for seed in range(100)]
    for s in scenarios:
        if load_scenario(print_scenario(s)) != s:
            problems.append(f"scenario round trip: {s.name}")

    # simulate -> replay: recorded verdict columns reproduced byte-identically
    ms_props = [parse_formula(
        "@Master: G (o -> (within[0,3] m1 & within[0,3] m2))")]
    ms_bindings = parse_bindings(
        (DATA / "master_saviour.bindings").read_text())
    jobs = [("master_saviour", ms_props, ms_bindings)]
    for name in names[1:]:
        agent = scenarios[names.index(name)].agents[0].name
        jobs.append((
            name,
            [parse_formula(f"@{agent}: G a")],
            parse_bindings(f"prop a = agent_active({agent})"),
        ))
    for name, props, bindings in jobs:
        scenario = load_scenario((DATA / f"{name}.scn").read_text())
        for seed in range(5):
            entries = list(run(scenario, [MonitorState(p) for p in props],
                               bindings, SeededPolicy(seed), steps=30,
                               early_stop=False))
            rows, _ = check_trace(trace_lines(entries), props, bindings)
            recorded = [
                [v.short if v is not None else None for v in e.verdicts]
                for e in entries
            ]
            if list(rows) != recorded:
                problems.append(f"{name} seed {seed}: replay diverges")
    report(
        7,
        f"round trips: {len(formulas)} formulas, {len(scenarios)} scenarios, "
        f"simulate/replay verdict agreement",
        problems,
        time.time() - start,
    )


def test_criterion_8_final_verdicts_stable():
    report(
        8,
        "final verdicts never change and leave a constant obligation, "
        "under each prophecy reading",
        [f"{name}: {p}" for now, name in READINGS.items() for p in sweep(now)["stability"]],
        0.0,
    )
