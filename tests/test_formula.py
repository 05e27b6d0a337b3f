"""Formula parsing, printing, and sugar expansion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tempoweave.formula
from helpers import BINARY, UNARY, formula_corpus
from tempoweave.formula import (
    Always,
    And,
    Atom,
    Eventually,
    FalseF,
    FormulaError,
    Implies,
    Next,
    Node,
    Not,
    Or,
    Prophecy,
    Property,
    TrueF,
    Until,
    WeakNext,
    format_formula,
    parse_bare_formula,
    parse_formula,
    print_formula,
    propositions,
    time_str,
)
from tempoweave.oracle import Suffixes, ev, make_word, sats

P = Atom("p")
Q = Atom("q")
A, B, C = Atom("a"), Atom("b"), Atom("c")

# Every binary operator under every other (itself too) on either side, every
# prefix operator over every binary one, and every binary one over a prefix
# operator on either side: 92 formulas.
OPERATOR_PAIRS = (
    [outer(inner(A, B), C) for outer in BINARY for inner in BINARY]
    + [outer(A, inner(B, C)) for outer in BINARY for inner in BINARY]
    + [prefix(inner(A, B)) for prefix in UNARY for inner in BINARY]
    + [outer(prefix(A), B) for outer in BINARY for prefix in UNARY]
    + [outer(A, prefix(B)) for outer in BINARY for prefix in UNARY]
)


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

    @pytest.mark.parametrize("lower,upper,message", [
        (Fraction(3, 2), Fraction(1, 2), "lower < upper, got [1.5,0.5]"),
        (Fraction(-1, 2), 1, "lower bound must be non-negative, got -0.5"),
        (Fraction(1, 3), Fraction(1, 6), "lower < upper, got [1/3,1/6]"),  # no decimal form
    ], ids=["decimal", "negative", "no-decimal-form"])
    def test_bound_errors_print_times_as_decimals(self, lower, upper, message):
        """A library-built prophecy names its bounds as the parser does."""
        with pytest.raises(FormulaError) as err:
            Prophecy(lower, upper, "p")
        assert str(err.value).endswith(message)

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
        ("a | b | c", Or(Or(Atom("a"), Atom("b")), Atom("c"))),
        ("a & b & c", And(And(Atom("a"), Atom("b")), Atom("c"))),
        ("a | b -> c", Implies(Or(Atom("a"), Atom("b")), Atom("c"))),
        ("G p U q", Until(Always(P), Q)),
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

    @pytest.mark.parametrize("nest", [
        lambda d: "(" * d + "p" + ")" * d,
        lambda d: "!" * d + "p",
        lambda d: " U ".join(["p"] * (d + 1)),
        lambda d: " & ".join(["p"] * (d + 1)),
        lambda d: " -> ".join(["p"] * (d + 1)),
        lambda d: " | ".join(["p"] * (d + 1)),
        lambda d: "X " * d + "p",
        lambda d: "WX " * d + "p",
        lambda d: "F " * d + "p",
        lambda d: "G " * d + "p",
    ])
    def test_nesting_is_bounded_at_100_levels(self, nest):
        parse_formula("@A: " + nest(100))
        with pytest.raises(FormulaError) as err:
            parse_formula("@A: " + nest(101))
        assert "nested deeper than 100 levels" in str(err.value)
        assert err.value.line == 1 and err.value.column is not None

    def test_propositions(self):
        body = parse_bare_formula("G (o -> (within[0,3] m1 & X within[0,1] !m2)) U q")
        assert propositions(body) == {"o", "m1", "m2", "q"}
        assert propositions(parse_bare_formula("true")) == set()


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

    @pytest.mark.parametrize("node", OPERATOR_PAIRS, ids=format_formula)
    def test_operator_pairs_print_only_the_parentheses_they_need(self, node):
        text = format_formula(node)
        assert parse_bare_formula(text) == node
        opened = []
        for close, ch in enumerate(text):
            if ch == "(":
                opened.append(close)
            elif ch == ")":
                start = opened.pop()
                bare = text[:start] + text[start + 1:close] + text[close + 1:]
                try:
                    assert parse_bare_formula(bare) != node, bare
                except FormulaError:
                    pass

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


def _tautology(n):
    """`true` rendered as phi | !phi over an already sugar-free phi."""
    return Or(n, Not(n))


def expand_sugar(n):
    """Rewrite to the core grammar: atoms, not, or, next, until, prophecy.

    The reference semantics takes only the core grammar; the monitor
    handles sugar natively.
    """
    if isinstance(n, (Atom, Prophecy)):
        return n
    if isinstance(n, TrueF):
        return _tautology(P)
    if isinstance(n, FalseF):
        return Not(_tautology(P))
    if isinstance(n, Not):
        return Not(expand_sugar(n.child))
    if isinstance(n, Or):
        return Or(expand_sugar(n.left), expand_sugar(n.right))
    if isinstance(n, And):
        return Not(Or(Not(expand_sugar(n.left)), Not(expand_sugar(n.right))))
    if isinstance(n, Implies):
        return Or(Not(expand_sugar(n.left)), expand_sugar(n.right))
    if isinstance(n, Next):
        return Next(expand_sugar(n.child))
    if isinstance(n, WeakNext):
        return Not(Next(Not(expand_sugar(n.child))))
    if isinstance(n, Until):
        return Until(expand_sugar(n.left), expand_sugar(n.right))
    if isinstance(n, Eventually):
        child = expand_sugar(n.child)
        return Until(_tautology(child), child)
    if isinstance(n, Always):
        child = expand_sugar(n.child)
        return Not(Until(_tautology(child), Not(child)))
    raise FormulaError(f"cannot expand monitor-internal node {type(n).__name__}")


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
        table = Suffixes([
            make_word(ev({"p"}, 0)),
            make_word(ev({}, 0), ev({"q"}, 1)),
            make_word(ev({"p"}, 0), ev({"p", "q"}, 1), ev({}, 2)),
            make_word(ev({"q"}, 0), ev({}, 2), ev({"p"}, 3), ev({"q"}, 4)),
            make_word(ev({}, 0), ev({}, 0), ev({"p"}, 4)),
        ])
        for node in formula_corpus(budget=150):
            assert sats(table, node, allow_sugar=True) == sats(table, expand_sugar(node)), node


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


def test_no_node_kind_has_an_instance_dict():
    """Nodes are slotted, which takes about a third off each node's memory
    (by tracemalloc); the sweep's step cache keeps thousands of them."""
    kinds = [kind for kind in vars(tempoweave.formula).values()
             if isinstance(kind, type) and issubclass(kind, Node)]
    assert len(kinds) == 14
    assert [kind.__name__ for kind in kinds if kind.__dictoffset__] == []
    assert not hasattr(Prophecy(0, 1, "p"), "__dict__")
