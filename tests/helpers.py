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
from tempoweave.oracle import Event, Suffixes, finite_verdicts

PROPS = ("p", "q")
# The order of these two tuples fixes the corpus: `level1_formulas` lists
# formulas in it and `level2_sample` draws from it, so reordering them
# changes criterion 2's formulas and the bench's `sweep_slice`.  They are
# kept here, apart from `formula.PREFIX` and `formula.BINARY`, for that.
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
    """Every distinct word of length 1..MAX_LEN in the corpus: the nodes of
    the word prefix tree."""
    return sorted(
        (word for _, _, _, word in word_tree()),
        key=lambda w: (len(w), [(sorted(e.props), e.time) for e in w]),
    )


class StepCache:
    """Memoized monitor transition: `monitor_step`'s pure map
    (obligation, props, delta) -> (verdict, next obligation).

    Obligations are interned so identical rest-formulas reached through
    different histories share one cache row.  Rows are keyed by the interned
    obligation's id, and `step` returns interned obligations, so stepping one
    that `step` returned hashes no tree: only a miss interns.
    """

    def __init__(self, prophecy_includes_now: bool = False):
        self.includes_now = prophecy_includes_now
        self.intern: dict[Node, Node] = {}
        self.table: dict = {}
        self.misses = 0

    def step(self, obligation: Node, props: frozenset, delta: Time):
        # an id found in the table is an interned obligation's, which the
        # intern table keeps alive, so no other live object can have it
        hit = self.table.get((id(obligation), props, delta))
        if hit is None:
            obligation = self.intern.setdefault(obligation, obligation)
            key = (id(obligation), props, delta)
            hit = self.table.get(key)
            if hit is None:
                self.misses += 1
                verdict, obl = monitor_step(obligation, props, delta, self.includes_now)
                hit = (verdict, self.intern.setdefault(obl, obl))
                self.table[key] = hit
        return hit


def word_tree() -> list:
    """The word prefix tree over SCHEDULES, SYMBOLS and MAX_LEN, depth first:
    one `(parent, props, delta, word)` per node, where node k of the list
    has index k + 1 and the empty word, the root, has index 0.  It is built
    once while those three stay the same."""
    return _current_tree()[0]


def tree_suffixes() -> Suffixes:
    """The oracle's table of `word_tree()`'s words, in the tree's order,
    built and kept with the tree."""
    return _current_tree()[1]


def _current_tree() -> tuple:
    global _tree
    schedules, symbols, max_len, nodes, table = _tree
    if schedules is not SCHEDULES or symbols is not SYMBOLS or max_len != MAX_LEN:
        nodes = _build_word_tree(SCHEDULES, SYMBOLS, MAX_LEN)
        table = Suffixes(word for _, _, _, word in nodes)
        _tree = (SCHEDULES, SYMBOLS, MAX_LEN, nodes, table)
    return nodes, table


_tree: tuple = (None, None, None, None, None)


def _build_word_tree(schedules, symbols, max_len) -> list:
    # one Event per (symbol, stamp), shared by every word that has it
    events = {(props, stamp): Event(props, stamp)
              for sched in schedules for stamp in sched for props in symbols}

    def children(parent, word, scheds):
        """The nodes one event below `word`, which the schedules `scheds` share."""
        depth = len(word)
        out = []
        for stamp in sorted({s[depth] for s in scheds}):
            subset = [s for s in scheds if s[depth] == stamp]
            delta = stamp - word[-1].time if word else 0
            for props in symbols:
                out.append((parent, props, delta, word + (events[props, stamp],), subset))
        return out

    nodes = []
    todo = children(0, (), list(schedules))[::-1]
    while todo:
        parent, props, delta, word, scheds = todo.pop()
        nodes.append((parent, props, delta, word))
        if len(word) < max_len:
            todo.extend(reversed(children(len(nodes), word, scheds)))
    return nodes


def _describe(word) -> str:
    return " ".join("{%s}@%s" % (",".join(sorted(e.props)), e.time) for e in word)


def check_formula(formula: Node, cache: StepCache) -> dict:
    """Walk the word prefix tree; compare monitor and reference everywhere.
    The reference answers every prefix in one `finite_verdicts` call over
    the tree's suffix table.

    Returns problem descriptions under two keys: "mismatch" (monitor verdict
    differs from the reference semantics) and "stability" (a final verdict
    changed later, or its obligation is not the matching constant), and
    under "compared" the number of prefixes compared.
    """
    mismatch, stability = [], []
    inc, step = cache.includes_now, cache.step
    # each tree node's next obligation and final verdict (None until one is)
    obligations, finals = [formula], [None]
    nodes = word_tree()
    reference = finite_verdicts(tree_suffixes(), formula, allow_sugar=True,
                                prophecy_includes_now=inc)
    for (parent, props, delta, word), expected in zip(nodes, reference):
        verdict, next_obl = step(obligations[parent], props, delta)
        if verdict != expected:
            mismatch.append(f"{formula} on {_describe(word)}: "
                            f"monitor {verdict.short}, reference {expected.short}")
        final = finals[parent]
        if final is None:
            if verdict.is_final:
                final = verdict
        elif verdict != final:
            stability.append(f"{formula} on {_describe(word)}: final "
                             f"{final.short} changed to {verdict.short}")
        if final is not None and not isinstance(next_obl, (TrueF, FalseF)):
            stability.append(f"{formula} on {_describe(word)}: final verdict "
                             f"with non-constant obligation {next_obl}")
        obligations.append(next_obl)
        finals.append(final)
    return {"mismatch": mismatch, "stability": stability, "compared": len(nodes)}


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
