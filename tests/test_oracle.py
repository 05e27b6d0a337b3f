"""Reference semantics: the satisfaction relation and the four-valued
prefix evaluation, on hand-constructed words."""

import gc
import sys
import time
from fractions import Fraction

import pytest

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
    TrueF,
    Until,
    WeakNext,
    parse_bare_formula,
)
from tempoweave.oracle import (
    Event,
    OracleError,
    Suffixes,
    ev,
    finite_verdict,
    finite_verdicts,
    make_word,
    sat,
    sats,
)
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


@pytest.mark.parametrize("check", [sat, finite_verdict])
class TestDomain:
    """What either relation refuses: the same formulas, whatever the words."""

    @pytest.mark.parametrize("node", [
        TrueF(), FalseF(), And(P, Q), Implies(P, Q), WeakNext(P), Eventually(P), Always(P),
    ], ids=lambda node: type(node).__name__)
    def test_sugar_without_flag_names_its_kind(self, check, node):
        w = word(({"p"}, 0), ({}, 1))
        with pytest.raises(OracleError, match=(
                rf"^{type(node).__name__} is syntactic sugar; pass allow_sugar=True$")):
            check(w, Not(node))
        check(w, Not(node), allow_sugar=True)

    @pytest.mark.parametrize("allow_sugar", [False, True])
    def test_active_prophecy_is_refused(self, check, allow_sugar):
        with pytest.raises(OracleError, match="^activated prophecies are monitor-internal$"):
            check(word(({}, 0)), Or(P, Prophecy(0, 3, "p", active=True)),
                  allow_sugar=allow_sugar)

    @pytest.mark.parametrize("allow_sugar", [False, True])
    def test_bare_node_cannot_be_evaluated(self, check, allow_sugar):
        with pytest.raises(OracleError, match="^cannot evaluate node Node$"):
            check(word(({}, 0)), Not(Node()), allow_sugar=allow_sugar)

    @pytest.mark.parametrize("text,pairs", [
        ("X (p & q)", [({"p", "q"}, 0)]),
        ("X X (p & q)", [({"p", "q"}, 0), ({}, 1)]),
        ("p | (p & q)", [({"p"}, 0)]),
    ], ids=["X-on-one-event", "XX-on-two-events", "beside-a-disjunct-that-holds"])
    def test_unread_sugar_is_refused(self, check, text, pairs):
        """The domain check reads the formula, not the word: an `&` that no
        position's value depends on (under as many nested X as the word has
        events, or beside a disjunct that holds) is refused all the same."""
        with pytest.raises(OracleError, match="^And is syntactic sugar; pass allow_sugar=True$"):
            check(word(*pairs), parse_bare_formula(text))


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

    @pytest.mark.parametrize("text,expected", [
        ("G p", Verdict.TRUE_C),
        ("p U q", Verdict.FALSE_C),
        ("F q", Verdict.FALSE_C),
        ("G (p -> F q)", Verdict.FALSE_C),
    ])
    def test_long_word(self, text, expected):
        """A word of 1,100 events, longer than the default recursion limit,
        is evaluated: the temporal clauses do not recurse once per event."""
        w = make_word(*(ev({"p"}, t) for t in range(1100)))
        assert finite_verdict(w, parse_bare_formula(text), allow_sugar=True) is expected

    @pytest.mark.parametrize("props,text,expected", [
        ({"p"}, "G (p -> F q)", Verdict.FALSE_C),
        ({"p", "q"}, "G (p -> X (q U r))", Verdict.FALSE_C),
        (set(), "G F p", Verdict.FALSE_C),
        ({"p"}, "G (p -> within[0,1000] q)", Verdict.FALSE),
    ])
    def test_ten_thousand_events_in_linear_time(self, props, text, expected):
        """A word of 10,000 events at times 0..9999 is evaluated by each
        relation under the default recursion limit in under 0.5 s a
        formula: nested temporal clauses do not re-walk the word, which took
        about 15 s a formula when they did."""
        w = make_word(*(ev(props, t) for t in range(10_000)))
        in_linear_time(w, parse_bare_formula(text), expected)

    @pytest.mark.parametrize("text", ["G (p -> F q)", "G (p -> within[0,20000] q)"])
    def test_response_at_the_last_of_ten_thousand_events(self, text):
        """`p` at events 0..9998 and `q` only at 9999: every response waits
        for the last event, which a per-position `sat` re-scanned from each
        of them (11.0 and 2.4 s); each relation reads it in one pass."""
        w = make_word(*(ev({"p"}, t) for t in range(9_999)), ev({"q"}, 9_999))
        in_linear_time(w, parse_bare_formula(text), Verdict.TRUE_C)

    def test_sat_matches_current_truth(self):
        """The law that ties the two relations (RV-LTL's presumptive verdicts
        agree with finite-trace LTL): a word satisfies a formula exactly
        when its prefix verdict is `T` or `Tc`, and both relations refuse
        the same formulas with the same message, on a table and on one
        word.  Every 5th corpus formula on the criterion-2 tree's words,
        under both prophecy readings, with and without sugar."""
        from helpers import formula_corpus, tree_suffixes, word_tree
        table, one = tree_suffixes(), word_tree()[-1][3]
        refused = {False: 0, True: 0}
        for f in formula_corpus()[::5]:
            for allow_sugar in (False, True):
                for now in (False, True):
                    flags = dict(allow_sugar=allow_sugar, prophecy_includes_now=now)
                    truth = outcome(sats, table, f, **flags)
                    verdicts = outcome(finite_verdicts, table, f, **flags)
                    if isinstance(truth, list) and isinstance(verdicts, list):
                        assert truth == [v >= Verdict.TRUE_C for v in verdicts], (f, flags)
                    else:
                        assert truth == verdicts == outcome(sat, one, f, **flags) == outcome(
                            finite_verdict, one, f, **flags), (f, flags)
                        refused[allow_sugar] += 1
        assert refused == {False: 2 * 400, True: 0}

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


def in_linear_time(w, formula, expected):
    """Each relation answers the long word w in under 0.5 s, under the
    default recursion limit: `finite_verdict` with `expected`, `sat` with
    its truth."""
    assert sys.getrecursionlimit() <= 1000
    for check, answer in ((finite_verdict, expected), (sat, expected >= Verdict.TRUE_C)):
        start = time.perf_counter()
        assert check(w, formula, allow_sugar=True) is answer
        assert time.perf_counter() - start < 0.5, check


def outcome(check, words, f, **flags):
    """check's answer, or the message it refuses f with."""
    try:
        return check(words, f, **flags)
    except OracleError as refusal:
        return str(refusal)


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("check", [sat, finite_verdict])
    def test_calls_leave_no_cyclic_garbage(self, check):
        """A call builds no reference cycle, so with the collector off, 100
        calls leave nothing for it to collect."""
        f = parse_bare_formula("G (p -> (q U within[0,3] r))")
        w = word(({"p"}, 0), ({"q"}, 1), ({"r"}, 2), ({}, 4))
        gc.collect()
        gc.disable()
        try:
            results = {check(w, f, allow_sugar=True, prophecy_includes_now=now)
                       for _ in range(50) for now in (False, True)}
            assert len(results) == 1
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_set_entry_leaves_no_cyclic_garbage(self):
        """The same for a table of three words and both set entries."""
        f = parse_bare_formula("G (p -> (q U within[0,3] r))")
        w = word(({"p"}, 0), ({"q"}, 1), ({"r"}, 2), ({}, 4))
        gc.collect()
        gc.disable()
        try:
            results = {tuple(check(Suffixes([w, w[:2], w[1:]]), f, allow_sugar=True,
                                   prophecy_includes_now=now))
                       for _ in range(50) for now in (False, True)
                       for check in (finite_verdicts, sats)}
            assert results == {(Verdict.TRUE_C, Verdict.FALSE_C, Verdict.TRUE_C),
                               (True, False, True)}
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSuffixes:
    """The set entry: one table of a set of words' shared suffixes, answered
    in one pass, agrees with the per-word reference everywhere."""

    def test_tree_table_equals_per_word_verdicts(self):
        """Every 5th corpus formula on every word of the criterion-2 tree,
        under both prophecy readings: the tree's table gives each word the
        verdict it has alone, in a table where each word is moved 10 time
        units past the one before, so that no two share a suffix.  On the
        tree's table `sats`, which shares no clause with them, is true
        exactly where the verdict is `T` or `Tc`; each word's own
        `finite_verdict` and `sat` calls agree for every 125th formula."""
        from helpers import formula_corpus, tree_suffixes, word_tree
        words = [w for _, _, _, w in word_tree()]
        apart = Suffixes([tuple(Event(e.props, e.time + 10 * i) for e in w)
                          for i, w in enumerate(words)])
        assert len(apart.nxt) == sum(map(len, words))
        compared = 0
        for now in (False, True):
            for n, f in enumerate(formula_corpus()[::5]):
                flags = dict(allow_sugar=True, prophecy_includes_now=now)
                got = finite_verdicts(tree_suffixes(), f, **flags)
                truth = sats(tree_suffixes(), f, **flags)
                assert got == finite_verdicts(apart, f, **flags), (f, now)
                assert [v >= Verdict.TRUE_C for v in got] == truth, (f, now)
                if n % 125 == 0:
                    assert got == [finite_verdict(w, f, **flags) for w in words], (f, now)
                    assert truth == [sat(w, f, **flags) for w in words], (f, now)
                compared += len(got)
        assert compared == 2 * 691 * 1668

    def test_tree_table_shares_suffixes(self):
        """The tree's 1,668 words hold 6,212 events but only 2,116 distinct
        suffixes, and the table has one position per distinct suffix."""
        from helpers import tree_suffixes, word_tree
        words = [w for _, _, _, w in word_tree()]
        table = tree_suffixes()
        suffixes = {w[i:] for w in words for i in range(len(w))}
        assert len(table.nxt) == len(suffixes) == 2116 < sum(map(len, words)) == 6212
        assert len(table.starts) == len(words)
        assert all(j < k for k, j in enumerate(table.nxt))

    def test_empty_word_in_a_set_is_refused(self):
        with pytest.raises(OracleError, match="^words must be non-empty$"):
            Suffixes([word(({"p"}, 0)), ()])


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
