"""Shared corpus generators and the monitor-vs-reference cross-check harness.

The formula space is enumerated structurally: all formulas with at most one
operator level over a fixed leaf set, plus a deterministic seeded sample of
deeper formulas.  Words are built over 2^{p,q} with timestamps drawn from a
fixed family of non-decreasing schedules; the harness walks the word prefix
tree once per formula and compares the stepwise monitor against the
reference semantics at every node.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from tempoweave.formula import (
    Always,
    And,
    Atom,
    Eventually,
    FalseF,
    Implies,
    Next,
    Node,
    Not,
    Or,
    Prophecy,
    Time,
    TrueF,
    Until,
    WeakNext,
)
from tempoweave.monitor import monitor_step
from tempoweave.oracle import Event, finite_verdict

PROPS = ("p", "q")
UNARY = (Not, Next, WeakNext, Eventually, Always)
BINARY = (Or, And, Implies, Until)

# all prophecy windows with bounds from {0,1,2,3}, both polarities; whole
# times are ints, as the parser makes them
LEAVES: tuple[Node, ...] = tuple(
    [Atom("p"), Atom("q"), TrueF(), FalseF()]
    + [
        Prophecy(lo, hi, prop, negated=neg)
        for lo, hi in itertools.combinations(range(4), 2)
        for prop in PROPS
        for neg in (False, True)
    ]
)


def level1_formulas() -> list[Node]:
    """Every formula with at most one operator level: 3304 formulas."""
    out = list(LEAVES)
    out.extend(op(a) for op in UNARY for a in LEAVES)
    out.extend(op(a, b) for op in BINARY for a in LEAVES for b in LEAVES)
    return out


def level2_sample(budget: int, seed: int = 0) -> list[Node]:
    """Deterministic sample of formulas with two or three operator levels.

    The full space is astronomically large, so coverage is a seeded draw
    that always includes at least one deeper operand per formula.
    """
    rng = random.Random(seed)
    shallow = level1_formulas()
    deep = shallow[len(LEAVES):]  # at least one operator
    seen: set[Node] = set()
    out: list[Node] = []
    while len(out) < budget:
        if rng.random() < 0.5:
            f = rng.choice(UNARY)(rng.choice(deep))
        else:
            op = rng.choice(BINARY)
            a, b = rng.choice(deep), rng.choice(shallow)
            if rng.random() < 0.5:
                a, b = b, a
            f = op(a, b)
        if rng.random() < 0.25:  # occasionally go one level deeper still
            f = rng.choice(UNARY)(f)
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def formula_corpus(budget: int = 150, seed: int = 0) -> list[Node]:
    return level1_formulas() + level2_sample(budget, seed)


# timestamp schedules: non-decreasing, values from {0,1,2,4}, covering
# repeated stamps, the maximal gap, and mixed small deltas
SCHEDULES = (
    (0, 1, 2, 4),
    (0, 0, 2, 2),
    (0, 4, 4, 4),
    (0, 2, 3, 4),
    (0, 1, 4, 4),
)
SYMBOLS = (
    frozenset(),
    frozenset({"p"}),
    frozenset({"q"}),
    frozenset({"p", "q"}),
)
MAX_LEN = 4


def all_words() -> list[tuple[Event, ...]]:
    """Every distinct word of length 1..MAX_LEN in the corpus."""
    words = set()
    for sched in SCHEDULES:
        for n in range(1, MAX_LEN + 1):
            for symbols in itertools.product(SYMBOLS, repeat=n):
                words.add(
                    tuple(Event(s, t) for s, t in zip(symbols, sched))
                )
    return sorted(
        words,
        key=lambda w: (len(w), [(sorted(e.props), e.time) for e in w]),
    )


class StepCache:
    """Memoized monitor transition: `monitor_step`'s pure map
    (obligation, props, delta) -> (verdict, next obligation).

    Obligations are interned so identical rest-formulas reached through
    different histories share one cache row.
    """

    def __init__(self, prophecy_includes_now: bool = False):
        self.includes_now = prophecy_includes_now
        self.intern: dict[Node, Node] = {}
        self.table: dict = {}
        self.misses = 0

    def step(self, obligation: Node, props: frozenset, delta: Time):
        obligation = self.intern.setdefault(obligation, obligation)
        key = (id(obligation), props, delta)
        hit = self.table.get(key)
        if hit is None:
            self.misses += 1
            verdict, obl = monitor_step(obligation, props, delta, self.includes_now)
            hit = (verdict, self.intern.setdefault(obl, obl))
            self.table[key] = hit
        return hit


def check_formula(formula: Node, cache: StepCache) -> dict[str, list[str]]:
    """Walk the word prefix tree; compare monitor and reference everywhere.

    Returns problem descriptions under two keys: "mismatch" (monitor verdict
    differs from the reference semantics) and "stability" (a final verdict
    changed later, or its obligation is not the matching constant).
    """
    problems: dict[str, list[str]] = {"mismatch": [], "stability": []}
    inc = cache.includes_now

    def describe(word):
        return " ".join(
            "{%s}@%s" % (",".join(sorted(e.props)), e.time) for e in word
        )

    def rec(scheds, depth, last_time, word, obligation, final):
        stamps = sorted({s[depth] for s in scheds})
        for stamp in stamps:
            subset = [s for s in scheds if s[depth] == stamp]
            delta = 0 if depth == 0 else stamp - last_time
            for props in SYMBOLS:
                verdict, next_obl = cache.step(obligation, props, delta)
                new_word = word + (Event(props, stamp),)
                expected = finite_verdict(
                    new_word, formula, allow_sugar=True,
                    prophecy_includes_now=inc,
                )
                if verdict != expected:
                    problems["mismatch"].append(
                        f"{formula} on {describe(new_word)}: "
                        f"monitor {verdict.short}, reference {expected.short}"
                    )
                if final is not None and verdict != final:
                    problems["stability"].append(
                        f"{formula} on {describe(new_word)}: final "
                        f"{final.short} changed to {verdict.short}"
                    )
                if final is not None or verdict.is_final:
                    if not isinstance(next_obl, (TrueF, FalseF)):
                        problems["stability"].append(
                            f"{formula} on {describe(new_word)}: final verdict "
                            f"with non-constant obligation {next_obl}"
                        )
                if depth + 1 < MAX_LEN:
                    new_final = final
                    if new_final is None and verdict.is_final:
                        new_final = verdict
                    rec(subset, depth + 1, stamp, new_word, next_obl, new_final)

    rec(list(SCHEDULES), 0, 0, (), formula, None)
    return problems


def gen_scenario(seed: int):
    """One random valid scenario: agents, tasks, and assorted transitions."""
    from tempoweave.model import AgentDef, Scenario, TransitionDef, validate_scenario

    rng = random.Random(seed)
    n_inputs = rng.randrange(0, 3)
    n_messages = rng.randrange(0, 3)
    input_kinds = tuple(f"In{i}" for i in range(n_inputs))
    message_kinds = tuple(f"Msg{i}" for i in range(n_messages))
    task_kinds = (("Begin", True),) + tuple(
        (f"Kind{i}", False) for i in range(rng.randrange(1, 4))
    )
    plain_kinds = [k for k, initial in task_kinds if not initial]
    agent_names = [f"Ag{i}" for i in range(rng.randrange(1, 5))]

    agents = []
    for name in agent_names:
        tasks = [("start", "Begin")] + [
            (f"t{i}", rng.choice(plain_kinds))
            for i in range(rng.randrange(1, 4))
        ]
        ids = [ident for ident, _ in tasks]
        transitions = []
        used_triggers = set()
        for i in range(rng.randrange(0, 5)):
            source, target = rng.choice(ids), rng.choice(ids)
            kind = rng.randrange(4)
            if kind == 0:
                trigger = None
            elif kind == 1 and input_kinds:
                trigger = ("input", rng.choice(input_kinds))
            elif kind == 2 and message_kinds:
                trigger = ("message", rng.choice(message_kinds))
            else:
                trigger = ("after", rng.randrange(1, 5))
            if (source, trigger) in used_triggers:
                continue
            used_triggers.add((source, trigger))
            sends = tuple(
                (rng.choice(message_kinds), rng.choice(agent_names))
                for _ in range(rng.randrange(0, 3))
            ) if message_kinds else ()
            transitions.append(
                TransitionDef(f"tr{i}", source, target, trigger, sends)
            )
        agents.append(AgentDef(name, tuple(tasks), tuple(transitions)))

    scenario = Scenario(
        name=f"generated{seed}",
        task_kinds=task_kinds,
        input_kinds=input_kinds,
        message_kinds=message_kinds,
        agents=tuple(agents),
        timestep=rng.choice([1, 2, Fraction(1, 2), Fraction(1, 4)]),
    )
    validate_scenario(scenario)
    return scenario
