"""Reference semantics: the satisfaction relation and the four-valued
prefix evaluation, on hand-constructed words."""

from fractions import Fraction

import pytest

from tempoweave.formula import (
    And,
    Atom,
    Next,
    Not,
    Or,
    Prophecy,
    Until,
    parse_bare_formula,
)
from tempoweave.oracle import OracleError, ev, finite_verdict, make_word, sat
from tempoweave.verdict import Verdict

P = Atom("p")
Q = Atom("q")


def word(*pairs):
    return make_word(*(ev(props, t) for props, t in pairs))


class TestWords:
    def test_empty_word_rejected(self):
        with pytest.raises(OracleError):
            make_word()
        with pytest.raises(OracleError):
            sat((), P)
        with pytest.raises(OracleError):
            finite_verdict((), P)

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(OracleError):
            word(({"p"}, 2), ({}, 1))

    def test_negative_timestamp_rejected(self):
        with pytest.raises(OracleError):
            ev({"p"}, -1)

    def test_equal_timestamps_allowed(self):
        assert len(word(({}, 1), ({}, 1))) == 2


class TestAtoms:
    @pytest.mark.parametrize("w,expected", [
        (word(({"p"}, 0)), True),
        (word(({}, 0)), False),
        (word(({"q"}, 0)), False),
        (word(({"p", "q"}, 0)), True),
        (word(({}, 0), ({"p"}, 1)), False),  # only the first position counts
    ])
    def test_sat(self, w, expected):
        assert sat(w, P) is expected


class TestNegation:
    @pytest.mark.parametrize("w,expected", [
        (word(({"p"}, 0)), False),
        (word(({}, 0)), True),
        (word(({"q"}, 0)), True),
        (word(({"q"}, 0), ({"p"}, 1)), True),
        (word(({"p", "q"}, 0), ({}, 1)), False),
    ])
    def test_sat(self, w, expected):
        assert sat(w, Not(P)) is expected


class TestDisjunction:
    @pytest.mark.parametrize("w,expected", [
        (word(({"p"}, 0)), True),
        (word(({"q"}, 0)), True),
        (word(({"p", "q"}, 0)), True),
        (word(({}, 0)), False),
        (word(({}, 0), ({"p", "q"}, 1)), False),
    ])
    def test_sat(self, w, expected):
        assert sat(w, Or(P, Q)) is expected


class TestNext:
    @pytest.mark.parametrize("w,expected", [
        # the |w| > 1 requirement: a lone event can never satisfy X
        (word(({"p"}, 0)), False),
        (word(({"p"}, 0), ({"p"}, 1)), True),
        (word(({}, 0), ({"p"}, 1)), True),
        (word(({"p"}, 0), ({}, 1)), False),
        (word(({}, 0), ({}, 1), ({"p"}, 2)), False),  # strictly the next event
    ])
    def test_sat(self, w, expected):
        assert sat(w, Next(P)) is expected


class TestUntil:
    PU_Q = Until(P, Q)

    @pytest.mark.parametrize("w,expected", [
        (word(({"q"}, 0)), True),                       # immediately fulfilled
        (word(({"p"}, 0), ({"q"}, 1)), True),
        (word(({"p"}, 0), ({"p"}, 1), ({"q"}, 2)), True),
        (word(({"p"}, 0), ({}, 1), ({"q"}, 2)), False),  # gap breaks the hold
        (word(({"p"}, 0), ({"p"}, 1)), False),           # never fulfilled
        (word(({}, 0), ({"q"}, 1)), False),
    ])
    def test_sat(self, w, expected):
        assert sat(w, self.PU_Q) is expected


class TestProphecy:
    W03 = Prophecy(Fraction(0), Fraction(3), "p")

    @pytest.mark.parametrize("w,expected", [
        (word(({}, 0), ({"p"}, 2)), True),          # witness inside the window
        (word(({}, 0), ({"p"}, 3)), True),          # inclusive upper bound
        (word(({}, 0), ({"p"}, 4)), False),         # first occurrence too late
        (word(({}, 0), ({}, 1), ({"p"}, 2)), True),
        (word(({}, 0), ({}, 4)), False),            # no occurrence at all
        (word(({"p"}, 0), ({"p"}, 1)), True),       # position 0 does not block
    ])
    def test_sat(self, w, expected):
        assert sat(w, self.W03) is expected

    W12 = Prophecy(Fraction(1), Fraction(2), "p")

    @pytest.mark.parametrize("w,expected", [
        (word(({}, 0), ({"p"}, 0)), False),   # too early: below the lower bound
        (word(({}, 0), ({"p"}, 1)), True),
        (word(({}, 0), ({"p"}, 2)), True),
        (word(({}, 0), ({"p"}, 3)), False),
        (word(({}, 0), ({"p"}, 0), ({"p"}, 2)), False),  # first occurrence decides
    ])
    def test_window_lower_bound(self, w, expected):
        assert sat(w, self.W12) is expected

    NEG = Prophecy(Fraction(0), Fraction(2), "p", negated=True)

    @pytest.mark.parametrize("w,expected", [
        # membership is inverted everywhere: events *without* p count
        (word(({"p"}, 0), ({}, 1)), True),
        (word(({"p"}, 0), ({"p"}, 1), ({}, 2)), True),
        (word(({"p"}, 0), ({"p"}, 1), ({"p"}, 2), ({}, 3)), False),
        (word(({"p"}, 0), ({"p"}, 4)), False),
        (word(({}, 0), ({}, 1)), True),
    ])
    def test_negated(self, w, expected):
        assert sat(w, self.NEG) is expected

    def test_includes_now_reading(self):
        """With the optional reading, the current event may witness but
        can never block a later witness."""
        w = word(({"p"}, 0), ({"p"}, 5))
        assert sat(w, self.W03, prophecy_includes_now=True) is True
        # the lower bound must admit zero for the current event to count
        w2 = word(({"p"}, 0), ({"p"}, 1))
        assert sat(w2, self.W12, prophecy_includes_now=True) is True  # via k=1
        w3 = word(({"p"}, 0), ({"p"}, 5))
        assert sat(w3, self.W12, prophecy_includes_now=True) is False


class TestStrictCore:
    def test_sugar_rejected_without_flag(self):
        with pytest.raises(OracleError):
            sat(word(({"p"}, 0)), And(P, Q))
        assert sat(word(({"p", "q"}, 0)), And(P, Q), allow_sugar=True)


class TestFiniteVerdict:
    @pytest.mark.parametrize("text,w,expected", [
        ("p", word(({"p"}, 0)), Verdict.TRUE),
        ("p", word(({}, 0)), Verdict.FALSE),
        ("X p", word(({}, 0)), Verdict.FALSE_C),
        ("X p", word(({}, 0), ({"p"}, 1)), Verdict.TRUE),
        ("WX p", word(({}, 0)), Verdict.TRUE_C),
        ("p U q", word(({"p"}, 0)), Verdict.FALSE_C),
        ("p U q", word(({"p"}, 0), ({"q"}, 1)), Verdict.TRUE),
        ("p U q", word(({}, 0)), Verdict.FALSE),
        ("G p", word(({"p"}, 0), ({"p"}, 1)), Verdict.TRUE_C),
        ("G p", word(({"p"}, 0), ({}, 1)), Verdict.FALSE),
        ("F p", word(({}, 0), ({}, 1)), Verdict.FALSE_C),
        ("F p", word(({}, 0), ({"p"}, 1)), Verdict.TRUE),
        ("within[0,3] p", word(({}, 0)), Verdict.FALSE_C),
        ("within[0,3] p", word(({}, 0), ({"p"}, 2)), Verdict.TRUE),
        ("within[0,3] p", word(({}, 0), ({"p"}, 4)), Verdict.FALSE),
        ("within[0,3] p", word(({}, 0), ({}, 4)), Verdict.FALSE),  # deadline
        ("within[0,3] p", word(({}, 0), ({}, 3)), Verdict.FALSE_C),
    ])
    def test_examples(self, text, w, expected):
        node = parse_bare_formula(text)
        assert finite_verdict(w, node, allow_sugar=True) is expected

    def test_sat_matches_current_truth(self):
        """A prefix verdict is truthy exactly when the word satisfies the
        formula as a complete word."""
        from helpers import formula_corpus, all_words
        corpus = formula_corpus(budget=50)[::7]
        words = all_words()[::11]
        for f in corpus:
            for w in words:
                v = finite_verdict(w, f, allow_sugar=True)
                assert (v >= Verdict.TRUE_C) == sat(w, f, allow_sugar=True)

    def test_finality_is_stable_under_extension(self):
        """Once a prefix decides, longer prefixes agree."""
        from helpers import formula_corpus
        extensions = [ev(set(), 5), ev({"p"}, 5), ev({"q"}, 6), ev({"p", "q"}, 8)]
        base = word(({"p"}, 0), ({}, 1), ({"q"}, 2))
        for f in formula_corpus(budget=80)[::5]:
            v = finite_verdict(base, f, allow_sugar=True)
            if not v.is_final:
                continue
            w = base
            for e in extensions:
                w = w + (e,)
                assert finite_verdict(w, f, allow_sugar=True) is v


class TestUnrollingLaw:
    def test_until_unrolls(self):
        words = [
            word(({"p"}, 0)),
            word(({"q"}, 0)),
            word(({"p"}, 0), ({"q"}, 1)),
            word(({"p"}, 0), ({"p"}, 1), ({}, 2)),
            word(({}, 0), ({"q"}, 1), ({"p"}, 2)),
        ]
        f = Until(P, Q)
        unrolled = Or(Q, Not(Or(Not(P), Not(Next(f)))))  # q | (p & X(p U q))
        for w in words:
            assert sat(w, f) == sat(w, unrolled)
