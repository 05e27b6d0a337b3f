"""Formula parsing, printing, and sugar expansion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import formula_corpus
from tempoweave.formula import (
    Always,
    And,
    Atom,
    Eventually,
    FalseF,
    FormulaError,
    Implies,
    Next,
    Not,
    Or,
    Prophecy,
    Property,
    TrueF,
    Until,
    WeakNext,
    expand_sugar,
    format_formula,
    parse_bare_formula,
    parse_formula,
    print_formula,
    time_str,
)
from tempoweave.oracle import ev, make_word, sat

P = Atom("p")
Q = Atom("q")


class TestParsing:
    def test_annotated_property(self):
        prop = parse_formula(
            "@Master: G (o -> (within[0,3] m1 & within[0,3] m2))"
        )
        assert prop == Property(
            "Master",
            Always(
                Implies(
                    Atom("o"),
                    And(
                        Prophecy(Fraction(0), Fraction(3), "m1"),
                        Prophecy(Fraction(0), Fraction(3), "m2"),
                    ),
                )
            ),
        )

    def test_remote_atom_syntax_rejected(self):
        """Bindings name their agent, so there is no `@B.p` atom."""
        for text in ("@B.busy | p", "p & @B.busy", "@B.busy"):
            with pytest.raises(FormulaError):
                parse_bare_formula(text)
            with pytest.raises(FormulaError):
                parse_formula("@A: " + text)

    def test_negated_prophecy(self):
        assert parse_bare_formula("within[1,2] !p") == Prophecy(
            Fraction(1), Fraction(2), "p", negated=True
        )

    def test_fractional_bounds(self):
        got = parse_bare_formula("within[0.5,2.25] p")
        assert got == Prophecy(Fraction(1, 2), Fraction(9, 4), "p")

    @pytest.mark.parametrize("text,expected", [
        # precedence: ! > U > & > | > ->
        ("a -> b | c", Implies(Atom("a"), Or(Atom("b"), Atom("c")))),
        ("a | b & c", Or(Atom("a"), And(Atom("b"), Atom("c")))),
        ("a & b U c", And(Atom("a"), Until(Atom("b"), Atom("c")))),
        ("!a U b", Until(Not(Atom("a")), Atom("b"))),
        ("a U b U c", Until(Atom("a"), Until(Atom("b"), Atom("c")))),
        ("a -> b -> c", Implies(Atom("a"), Implies(Atom("b"), Atom("c")))),
        ("X p U q", Until(Next(P), Q)),
        ("F p | G q", Or(Eventually(P), Always(Q))),
        ("WX !p", WeakNext(Not(P))),
        ("true U false", Until(TrueF(), FalseF())),
    ])
    def test_precedence(self, text, expected):
        assert parse_bare_formula(text) == expected

    @pytest.mark.parametrize("text", [
        "",
        "p q",
        "p |",
        "(p",
        "within[3,1] p",       # empty window
        "within[2,2] p",       # degenerate window
        "within[0,3]",         # missing proposition
        "@: p",
        "G",
        "p & & q",
        "within[-1,2] p",
    ])
    def test_rejects(self, text):
        with pytest.raises(FormulaError):
            parse_bare_formula(text)

    def test_error_carries_position(self):
        with pytest.raises(FormulaError) as err:
            parse_bare_formula("p &\n& q")
        assert err.value.line == 2

    def test_property_requires_annotation(self):
        with pytest.raises(FormulaError):
            parse_formula("G p")


class TestPrinting:
    @pytest.mark.parametrize("text", [
        "p",
        "!p",
        "p | q",
        "p & q | r",
        "(p | q) & r",
        "p U q",
        "(p U q) U r",
        "X (p U q)",
        "p -> q -> r",
        "(p -> q) -> r",
        "G (o -> (within[0,3] m1 & within[0,3] m2))",
        "within[0.5,1] !p",
    ])
    def test_round_trip_text(self, text):
        node = parse_bare_formula(text)
        assert parse_bare_formula(format_formula(node)) == node

    def test_minimal_parentheses(self):
        assert format_formula(Or(And(P, Q), Atom("r"))) == "p & q | r"
        assert format_formula(And(Or(P, Q), Atom("r"))) == "(p | q) & r"
        assert format_formula(Until(P, Until(Q, Atom("r")))) == "p U q U r"
        assert format_formula(Until(Until(P, Q), Atom("r"))) == "(p U q) U r"

    def test_property_round_trip(self):
        prop = parse_formula("@A: F (done & p)")
        assert parse_formula(print_formula(prop)) == prop

    def test_corpus_round_trip(self):
        for node in formula_corpus(budget=200):
            assert parse_bare_formula(format_formula(node)) == node


names = st.sampled_from(["p", "q", "r", "go", "m1"])


@st.composite
def prophecies(draw):
    lo = draw(st.integers(0, 5))
    hi = draw(st.integers(lo + 1, 8))
    return Prophecy(Fraction(lo), Fraction(hi), draw(names),
                    negated=draw(st.booleans()))


formulas = st.recursive(
    st.one_of(
        names.map(Atom),
        st.just(TrueF()),
        st.just(FalseF()),
        prophecies(),
    ),
    lambda sub: st.one_of(
        sub.map(Not), sub.map(Next), sub.map(WeakNext),
        sub.map(Eventually), sub.map(Always),
        st.tuples(sub, sub).map(lambda ab: Or(*ab)),
        st.tuples(sub, sub).map(lambda ab: And(*ab)),
        st.tuples(sub, sub).map(lambda ab: Implies(*ab)),
        st.tuples(sub, sub).map(lambda ab: Until(*ab)),
    ),
    max_leaves=25,
)


@given(formulas)
@settings(max_examples=300, deadline=None)
def test_print_parse_identity(node):
    assert parse_bare_formula(format_formula(node)) == node


class TestSugar:
    def test_always_expansion(self):
        assert expand_sugar(Always(P)) == Not(Until(Or(P, Not(P)), Not(P)))

    def test_eventually_expansion(self):
        assert expand_sugar(Eventually(P)) == Until(Or(P, Not(P)), P)

    def test_weak_next_expansion(self):
        assert expand_sugar(WeakNext(P)) == Not(Next(Not(P)))

    def test_and_expansion(self):
        assert expand_sugar(And(P, Q)) == Not(Or(Not(P), Not(Q)))

    def test_expansion_is_core_only(self):
        from tempoweave.formula import BOOLEAN_KINDS

        def core_only(n):
            assert not isinstance(
                n, (TrueF, FalseF, And, Implies, WeakNext, Eventually, Always)
            )
            for attr in ("child", "left", "right"):
                if hasattr(n, attr):
                    core_only(getattr(n, attr))

        for node in formula_corpus(budget=100):
            core_only(expand_sugar(node))

    def test_sugar_soundness_on_corpus(self):
        """Expanding sugar never changes satisfaction."""
        words = [
            make_word(ev({"p"}, 0)),
            make_word(ev({}, 0), ev({"q"}, 1)),
            make_word(ev({"p"}, 0), ev({"p", "q"}, 1), ev({}, 2)),
            make_word(ev({"q"}, 0), ev({}, 2), ev({"p"}, 3), ev({"q"}, 4)),
            make_word(ev({}, 0), ev({}, 0), ev({"p"}, 4)),
        ]
        for node in formula_corpus(budget=150):
            expanded = expand_sugar(node)
            for w in words:
                assert sat(w, node, allow_sugar=True) == sat(w, expanded)


class TestTimeStr:
    @pytest.mark.parametrize("value,text", [
        (Fraction(0), "0"),
        (Fraction(3), "3"),
        (Fraction(1, 2), "0.5"),
        (Fraction(9, 4), "2.25"),
        (Fraction(1, 10), "0.1"),
    ])
    def test_exact_decimal(self, value, text):
        assert time_str(value) == text
        assert Fraction(text) == value

    def test_rejects_non_decimal(self):
        with pytest.raises(FormulaError):
            time_str(Fraction(1, 3))
