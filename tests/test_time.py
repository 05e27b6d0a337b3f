"""Time values: a whole time is an int, any other a Fraction.

The monitor and the oracle take either type and must not tell them apart,
and the hot paths (the sweep, simulate and check-trace on whole-number
scenarios) must build no Fraction at all.
"""

import itertools
import json
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from helpers import StepCache, all_words, check_formula, formula_corpus
from tempoweave.cli import main
from tempoweave.formula import (
    Node,
    Prophecy,
    Property,
    TrueF,
    exact_time,
    parse_bare_formula,
)
from tempoweave.monitor import MonitorState, monitor_step
from tempoweave.oracle import Event, ev, finite_verdict, make_word

DATA = Path(__file__).parent / "data"


def map_bounds(n: Node, f) -> Node:
    """n with f applied to every prophecy bound."""
    if isinstance(n, Prophecy):
        return replace(n, lower=f(n.lower), upper=f(n.upper))
    children = {k: map_bounds(v, f) for k, v in _fields(n) if isinstance(v, Node)}
    return replace(n, **children) if children else n


def bounds(n: Node) -> list:
    """Every prophecy bound in n, active or not."""
    if isinstance(n, Prophecy):
        return [n.lower, n.upper]
    return [b for _, v in _fields(n) if isinstance(v, Node) for b in bounds(v)]


def _fields(n: Node) -> list:
    """(name, value) for each field of n."""
    return [(f.name, getattr(n, f.name)) for f in fields(n)]


@pytest.mark.parametrize("args, value", [
    ((3,), 3), ((6, 2), 3), ((0, 10), 0), ((-4, 2), -2),
    ((5, 2), Fraction(5, 2)), ((25, 100), Fraction(1, 4)),
])
def test_exact_time_is_an_int_when_whole(args, value):
    got = exact_time(*args)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("build, message", [
    (lambda: monitor_step(TrueF(), frozenset(), Fraction(-1, 2)),
     r"^negative time shift -0\.5$"),
    (lambda: Event(frozenset(), Fraction(-1, 2)), r"^negative timestamp -0\.5$"),
    (lambda: make_word(ev({}, Fraction(3, 2)), ev({}, 1)),
     r"^timestamps decrease: 1\.5 then 1$"),
], ids=["shift", "event", "word"])
def test_library_messages_print_times_as_decimals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_parsers_make_whole_times_ints():
    f = parse_bare_formula("within[1.0,2.5] p | within[0,3] q")
    assert [type(b) for b in bounds(f)] == [int, Fraction, int, int]
    assert bounds(f) == [1, Fraction(5, 2), 0, 3]


class TestSameVerdictsForEitherType:
    def test_corpus_and_words_equal_their_fraction_builds(self, monkeypatch):
        """The sweep checks the same 3,454 formulas on the same words as when
        every time was a Fraction."""
        corpus, words = formula_corpus(), all_words()
        monkeypatch.setattr(helpers, "LEAVES", tuple(
            map_bounds(leaf, Fraction) for leaf in helpers.LEAVES))
        monkeypatch.setattr(helpers, "SCHEDULES", tuple(
            tuple(map(Fraction, s)) for s in helpers.SCHEDULES))
        fraction_corpus, fraction_words = formula_corpus(), all_words()
        assert len(corpus) == 3454 and len(words) == len(fraction_words) == 1668
        assert all(a == b for a, b in zip(corpus, fraction_corpus, strict=True))
        assert all(a == b for a, b in zip(words, fraction_words, strict=True))
        assert {type(b) for f in corpus for b in bounds(f)} == {int}
        assert {type(b) for f in fraction_corpus for b in bounds(f)} == {Fraction}
        assert {type(e.time) for w in fraction_words for e in w} == {Fraction}

    def test_int_and_fraction_monitors_agree_on_the_word_tree(self):
        """Every 40th corpus formula, stepped over the criterion-2 word tree
        once with int times and bounds and once with Fraction ones: equal
        verdicts and obligations at every prefix, and the int run never
        leaves the ints."""
        ints, fractions = StepCache(), StepCache()

        def walk(depth, last, scheds, int_obl, fraction_obl):
            for stamp in sorted({s[depth] for s in scheds}):
                delta = 0 if depth == 0 else stamp - last
                for props in helpers.SYMBOLS:
                    got = ints.step(int_obl, props, delta)
                    want = fractions.step(fraction_obl, props, Fraction(delta))
                    assert got == want, (formula, depth, stamp, props)
                    assert {type(b) for b in bounds(got[1])} <= {int}
                    if depth + 1 < helpers.MAX_LEN:
                        subset = [s for s in scheds if s[depth] == stamp]
                        walk(depth + 1, stamp, subset, got[1], want[1])

        for formula in formula_corpus()[::40]:
            walk(0, 0, helpers.SCHEDULES, formula, map_bounds(formula, Fraction))
        assert ints.misses > 0 and fractions.misses > 0

    @pytest.mark.parametrize("includes_now", [False, True])
    @pytest.mark.parametrize("text", [
        "G (p -> within[0.25,1.6] q)",
        "within[0.1,1.75] !p",
        "(p U within[0.25,0.3] q) | X within[1.5,1.6] p",
        "F within[0,0.1] q & G within[0.2,1.55] p",
    ])
    def test_decimal_word_scaled_to_whole_numbers(self, text, includes_now):
        """Steps of 0.25, 1.5 and 0.1 and decimal bounds, and the same scaled
        by 20 to whole numbers: the same verdicts at every prefix, and both
        those of the oracle."""
        stamps = [Fraction(0), Fraction("0.25"), Fraction("1.75"), Fraction("1.85")]
        formula = parse_bare_formula(text)
        scaled = map_bounds(formula, lambda b: exact_time(*(20 * b).as_integer_ratio()))
        assert {type(b) for b in bounds(scaled)} == {int}
        for symbols in itertools.product(helpers.SYMBOLS, repeat=len(stamps)):
            word = [Event(s, t) for s, t in zip(symbols, stamps)]
            whole = [Event(s, int(20 * t)) for s, t in zip(symbols, stamps)]
            monitors = [MonitorState(Property("A", f), prophecy_includes_now=includes_now)
                        for f in (formula, scaled)]
            for n in range(1, len(word) + 1):
                got = [m.step(w[n - 1]) for m, w in zip(monitors, (word, whole))]
                expected = [finite_verdict(tuple(w[:n]), f, allow_sugar=True,
                                           prophecy_includes_now=includes_now)
                            for f, w in ((formula, word), (scaled, whole))]
                assert got[0] == got[1] == expected[0] == expected[1], (symbols, n)


@pytest.fixture
def fraction_count(monkeypatch):
    """How many Fractions are built, by any code, while the test runs."""
    count = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return count


class TestNoFractionOnTheStepPaths:
    def test_the_counter_counts(self, fraction_count):
        assert Fraction(1, 2) + 1 == Fraction(3, 2)
        assert fraction_count[0] >= 2

    def test_sweep(self, fraction_count):
        formulas = formula_corpus()[::500] + [
            parse_bare_formula("G (p -> (within[0,3] q & within[1,2] !p))")]
        cache = StepCache()
        problems = [check_formula(f, cache) for f in formulas]
        clean = {"mismatch": [], "stability": [], "compared": len(all_words())}
        assert problems == [clean] * len(formulas)
        assert cache.misses > 0
        assert fraction_count[0] == 0

    def test_simulate_and_check_trace(self, tmp_path, capsys, fraction_count):
        out = tmp_path / "trace.jsonl"
        inputs = ["--props", str(DATA / "master_saviour.props"),
                  "--bindings", str(DATA / "master_saviour.bindings")]
        main(["simulate", "--scenario", str(DATA / "master_saviour.scn"), *inputs,
              "--seed", "3", "--steps", "50", "--no-early-stop", "--out", str(out)])
        main(["check-trace", "--trace", str(out), *inputs])
        recorded = [json.loads(line)["verdicts"][0] or "-"
                    for line in out.read_text().splitlines()]
        assert capsys.readouterr().out.splitlines() == recorded
        assert len(recorded) == 50 and recorded.count("-") < 50
        assert fraction_count[0] == 0
