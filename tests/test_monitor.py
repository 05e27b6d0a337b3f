"""Stepwise monitoring: `monitor_step` over hand-built and parsed
obligations, and `MonitorState`."""

import gc
import hashlib
import random
import weakref
from fractions import Fraction

import pytest

import helpers
from helpers import StepCache, all_words, check_formula, formula_corpus
from tempoweave.formula import (
    BOOLEAN_KINDS,
    Always,
    And,
    Atom,
    Eventually,
    FalseF,
    Implies,
    Next,
    Not,
    Or,
    Prophecy,
    Property,
    TrueF,
    Until,
    WeakNext,
    _walk,
    format_formula,
    parse_bare_formula,
    parse_formula,
)
from tempoweave.monitor import (
    MonitorError,
    MonitorState,
    monitor_step,
    settle,
    unroll,
)
from tempoweave.oracle import Event, ev
from tempoweave.verdict import Verdict

P = Atom("p")
Q = Atom("q")


def boolean_top_leaves(tree):
    """The nodes just below tree's boolean top, left to right."""
    if not isinstance(tree, BOOLEAN_KINDS):
        return [tree]
    children = [getattr(tree, name) for name in ("child", "left", "right") if hasattr(tree, name)]
    return [leaf for child in children for leaf in boolean_top_leaves(child)]


def step(tree, props=(), delta=0, includes_now=False):
    """One `monitor_step` over tree: its verdict and next obligation."""
    return monitor_step(tree, frozenset(props), delta, includes_now)


def active(lo, hi, prop="p", negated=False):
    """An activated prophecy window."""
    return Prophecy(Fraction(lo), Fraction(hi), prop, negated, active=True)


class TestBooleanTop:
    """A step reads the atoms and constants of the boolean top and the
    outermost temporal operators only: nothing below a temporal operator is
    evaluated in the step."""

    def test_atom(self):
        assert step(P, {"p"}) == (Verdict.TRUE, TrueF())
        assert step(P) == (Verdict.FALSE, FalseF())

    def test_atoms_below_boolean_operators_are_read(self):
        assert step(Or(P, Not(Q))) == (Verdict.TRUE, TrueF())
        assert step(Or(P, Not(Q)), {"q"}) == (Verdict.FALSE, FalseF())

    def test_atom_below_a_temporal_operator_waits(self):
        # the inner q must wait, though q holds now
        assert step(And(P, Next(Q)), {"p", "q"}) == (Verdict.FALSE_C, Q)

    def test_nested_temporal_is_not_entered(self):
        got = step(Until(P, Next(Q)), {"p", "q"})
        assert got == (Verdict.FALSE_C, Or(Q, Until(P, Next(Q))))


class TestUnroll:
    def test_until(self):
        assert step(Until(P, Q)) == (Verdict.FALSE, FalseF())
        assert step(Until(P, Q), {"p"}) == (Verdict.FALSE_C, Until(P, Q))
        assert step(Until(P, Q), {"q"}) == (Verdict.TRUE, TrueF())

    def test_eventually(self):
        assert step(Eventually(P)) == (Verdict.FALSE_C, Eventually(P))
        assert step(Eventually(P), {"p"}) == (Verdict.TRUE, TrueF())

    def test_always(self):
        assert step(Always(P), {"p"}) == (Verdict.TRUE_C, Always(P))
        assert step(Always(P)) == (Verdict.FALSE, FalseF())

    def test_nested_operands_become_outermost(self):
        # unrolling G(X p) exposes X p as a fresh outermost operator
        got = step(Always(Next(P)), {"p"})
        assert got == (Verdict.FALSE_C, And(P, Always(Next(P))))

    def test_next_is_its_own_one_step_form(self):
        assert step(Next(P), {"p"}) == (Verdict.FALSE_C, P)
        assert step(WeakNext(P)) == (Verdict.TRUE_C, P)

    def test_operand_below_next_is_not_unrolled(self):
        assert step(Next(Until(P, Q)), {"p", "q"}) == (Verdict.FALSE_C, Until(P, Q))

    @pytest.mark.parametrize("text", [
        "p & true -> !(X q | WX p)",
        "within[0,1] q | false & p",
        "p U X q & F within[1,2] p",
        "G (true -> WX p) | !p",
    ], ids=["atom-constant-next-weak-next", "window-constant", "until-eventually", "always"])
    def test_leaves_and_recurrences_are_the_nodes_themselves(self, text):
        """`unroll` copies no node: each leaf of its output's boolean top, an
        atom, a constant, X, WX or a fresh window, is a node of the formula,
        and each U, F and G recurs as a (weak) next around the node itself."""
        formula = parse_bare_formula(text)
        nodes = [n for n, _ in _walk(formula)]
        got = boolean_top_leaves(unroll(formula, 0))
        recurrences = [n for n in got if isinstance(n, (Next, WeakNext))
                       and isinstance(n.child, (Until, Eventually, Always))]
        for leaf in got:
            assert any(leaf is n for n in nodes + recurrences), leaf
        for leaf in boolean_top_leaves(formula):
            if isinstance(leaf, (Until, Eventually, Always)):
                assert any(r.child is leaf for r in recurrences), leaf


class TestShift:
    def test_shifts_all_active_windows(self):
        tree = Or(active(0, 3), active(1, 2, "q"))
        got = step(tree, delta=Fraction(2))
        assert got == (Verdict.FALSE_C, Or(active(-2, 1), active(-1, 0, "q")))

    @pytest.mark.parametrize("body", [Next(active(1, 2)), Or(Q, active(1, 2))],
                             ids=["under-next", "in-the-boolean-top"])
    def test_monitor_refuses_an_activated_window(self, body):
        """An activated window is monitor-internal: a property body holding
        one, wherever, is outside the monitor's domain."""
        with pytest.raises(MonitorError, match="^activated prophecies are monitor-internal$"):
            MonitorState(Property("A", body))

    def test_inactive_windows_not_shifted(self):
        tree = Prophecy(Fraction(0), Fraction(3), "p")
        assert step(tree, delta=Fraction(2)) == (Verdict.FALSE_C, active(0, 3))

    def test_negative_shift_rejected(self):
        with pytest.raises(MonitorError):
            step(P, delta=Fraction(-1))


class TestEvaluateAtoms:
    """The event walk's atoms: an atom in the boolean top becomes its
    constant, and one below a temporal operator waits."""

    def test_atoms_in_the_boolean_top_become_constants(self):
        # p & !q holds only if p reads true and q reads false
        assert step(And(P, Not(Q)), {"p"}) == (Verdict.TRUE, TrueF())

    def test_atom_below_next_waits(self):
        assert step(Next(P), {"p"}) == (Verdict.FALSE_C, P)


class TestEvaluateProphecies:
    def test_trespassed_window_is_false(self):
        assert step(active(-3, -1)) == (Verdict.FALSE, FalseF())

    def test_witness_inside_open_window(self):
        assert step(active(-1, 2), {"p"}) == (Verdict.TRUE, TrueF())

    def test_occurrence_before_window_opens(self):
        assert step(active(1, 2), {"p"}) == (Verdict.FALSE, FalseF())

    def test_undecided_window_in_the_boolean_top_stays(self):
        verdict, obligation = step(active(1, 2))
        assert (verdict, obligation) == (Verdict.FALSE_C, active(1, 2))

    def test_window_below_next_is_not_decided(self):
        # under X the window is neither decided nor activated, though p
        # holds and it is open, under either reading
        window = Prophecy(0, 2, "p")
        for includes_now in (False, True):
            assert step(Next(window), {"p"}, includes_now=includes_now) == (
                Verdict.FALSE_C, window)

    def test_negated_inverts_membership(self):
        neg = active(0, 2, negated=True)
        assert step(neg) == (Verdict.TRUE, TrueF())
        assert step(neg, {"p"}) == (Verdict.FALSE_C, neg)


class TestPassOrder:
    """The order of the front walks, seen through `monitor_step`: a window
    is shifted before it is decided, and one activated in a step is
    neither shifted nor decided in that step."""

    def test_fresh_window_is_neither_shifted_nor_decided(self):
        got = step(parse_bare_formula("within[0,1] p"), delta=5)
        assert got == (Verdict.FALSE_C, active(0, 1))

    @pytest.mark.parametrize("props, delta, expected", [
        ({"p"}, 2, (Verdict.FALSE, FalseF())),
        ((), 1, (Verdict.FALSE_C, active(-1, 0))),  # closes now, so still open
        ((), Fraction(1, 2), (Verdict.FALSE_C, active(Fraction(-1, 2), Fraction(1, 2)))),
    ])
    def test_earlier_window_is_shifted_before_it_is_decided(self, props, delta, expected):
        _, obligation = step(parse_bare_formula("within[0,1] p"))
        assert step(obligation, props, delta) == expected

    @pytest.mark.parametrize("delta", [1, 2], ids=["opens-now", "closes-now"])
    def test_shift_decides_a_window_met_at_its_edge(self, delta):
        """`within[1,2] p` met after `delta`: shifted, the window holds the
        event at one of its edges, and unshifted it would not yet be open."""
        _, obligation = step(parse_bare_formula("within[1,2] p"))
        assert step(obligation, {"p"}, delta) == (Verdict.TRUE, TrueF())


class TestActivate:
    """The event walk's fresh windows: an inactive prophecy in the boolean
    top is activated, or under the current-event-counts reading witnessed
    at once."""

    def test_fresh_window_in_the_boolean_top_activates(self):
        assert step(Prophecy(0, 3, "p")) == (Verdict.FALSE_C, active(0, 3))

    def test_fresh_window_below_next_waits(self):
        # handed on as it is, still fresh: an activated one would differ
        window = Prophecy(0, 3, "p")
        assert step(Next(window)) == (Verdict.FALSE_C, window)

    def test_current_event_may_witness_under_flag(self):
        assert step(Prophecy(0, 3, "p"), {"p"}, includes_now=True) == (Verdict.TRUE, TrueF())

    def test_current_event_never_blocks(self):
        # window not yet open: activation proceeds, no negative decision
        got = step(Prophecy(1, 3, "p"), {"p"}, includes_now=True)
        assert got == (Verdict.FALSE_C, active(1, 3))


class TestCollapseAndRewrite:
    """The step's last walk, seen through `monitor_step` on trees whose
    boolean top holds no atom: the verdict a tree collapses to and the
    obligation it is rewritten into."""

    @pytest.mark.parametrize("tree,expected", [
        (TrueF(), Verdict.TRUE),
        (FalseF(), Verdict.FALSE),
        (Next(Always(P)), Verdict.FALSE_C),
        (WeakNext(Always(P)), Verdict.TRUE_C),
        (Prophecy(Fraction(0), Fraction(3), "p", active=True), Verdict.FALSE_C),
        (And(TrueF(), WeakNext(P)), Verdict.TRUE_C),
        (Or(FalseF(), Next(P)), Verdict.FALSE_C),
        (Not(Next(P)), Verdict.TRUE_C),
        (And(Next(P), WeakNext(Q)), Verdict.FALSE_C),
    ])
    def test_collapse(self, tree, expected):
        assert step(tree)[0] is expected

    def test_collapse_rejects_residual_nodes(self):
        # an atom the event walk left unread is a bug; the message keeps a
        # RecursionError, also a RuntimeError, from passing for it
        with pytest.raises(RuntimeError, match="^non-collapsible node Atom$"):
            settle(P)

    def test_simplify_propagates_constants(self):
        window = active(-1, 2)
        tree = Or(FalseF(), And(TrueF(), window))
        assert step(tree) == (Verdict.FALSE_C, window)

    def test_simplify_short_circuits(self):
        assert step(And(FalseF(), Next(P)))[1] == FalseF()
        assert step(Or(TrueF(), Next(P)))[1] == TrueF()

    def test_rewrite_hands_on_the_operand_of_weak_next(self):
        tree = And(TrueF(), WeakNext(Always(P)))
        assert step(tree)[1] == Always(P)

    def test_rewrite_keeps_pending_prophecy(self):
        pending = Prophecy(Fraction(-1), Fraction(2), "p", active=True)
        tree = And(pending, WeakNext(Always(P)))
        assert step(tree)[1] == And(pending, Always(P))

    def test_rewrite_reduces_the_operand_of_next(self):
        """The operand a next hands on is reduced, so `X (p & true)` leaves
        `p`."""
        assert step(Next(And(P, TrueF()))) == (Verdict.FALSE_C, P)


class TestMonitorStep:
    def run(self, text, events, inc=False):
        state = MonitorState(
            Property("A", parse_bare_formula(text)),
            prophecy_includes_now=inc,
        )
        return [state.step(e) for e in events], state

    def test_always(self):
        verdicts, state = self.run("G p", [ev({"p"}, 0), ev({"p"}, 1)])
        assert verdicts == [Verdict.TRUE_C, Verdict.TRUE_C]
        assert state.obligation == Always(P)

    def test_always_violated_is_final(self):
        verdicts, state = self.run("G p", [ev({"p"}, 0), ev({}, 1), ev({"p"}, 2)])
        assert verdicts == [Verdict.TRUE_C, Verdict.FALSE, Verdict.FALSE]
        assert state.obligation == FalseF()

    def test_prophecy_witnessed(self):
        verdicts, _ = self.run("within[0,3] p", [ev({}, 0), ev({"p"}, 2)])
        assert verdicts == [Verdict.FALSE_C, Verdict.TRUE]

    def test_prophecy_expired(self):
        verdicts, _ = self.run("within[0,3] p", [ev({}, 0), ev({}, 4)])
        assert verdicts == [Verdict.FALSE_C, Verdict.FALSE]

    def test_prophecy_ignores_current_event_by_default(self):
        verdicts, _ = self.run("within[0,3] p", [ev({"p"}, 0), ev({"p"}, 2)])
        assert verdicts == [Verdict.FALSE_C, Verdict.TRUE]

    def test_prophecy_current_event_counts_under_flag(self):
        verdicts, _ = self.run("within[0,3] p", [ev({"p"}, 0)], inc=True)
        assert verdicts == [Verdict.TRUE]

    def test_until(self):
        verdicts, _ = self.run("p U q", [ev({"p"}, 0), ev({"p"}, 1), ev({"q"}, 2)])
        assert verdicts == [Verdict.FALSE_C, Verdict.FALSE_C, Verdict.TRUE]

    def test_obligation_accumulates_pending_windows(self):
        _, state = self.run(
            "G (p -> within[0,3] q)", [ev({"p"}, 0)]
        )
        body = parse_bare_formula("p -> within[0,3] q")
        assert state.obligation == And(
            Prophecy(Fraction(0), Fraction(3), "q", active=True),
            Always(body),
        )

    def test_time_regression_rejected(self):
        state = MonitorState(Property("A", P))
        state.step(ev({}, 5))
        with pytest.raises(MonitorError):
            state.step(ev({}, 4))

    def test_time_regression_prints_each_time_on_its_own(self):
        """A time with no decimal form does not stop the other printing as one."""
        state = MonitorState(Property("A", P))
        state.step(ev({}, Fraction(1, 2)))
        with pytest.raises(MonitorError, match=r"^time regression: event at 1/3 after 0\.5$"):
            state.step(ev({}, Fraction(1, 3)))

    def test_first_event_delta_is_zero(self):
        # an already-activated window is unaffected by the absolute start time
        verdicts, _ = self.run("within[0,3] p", [ev({}, 7), ev({"p"}, 9)])
        assert verdicts == [Verdict.FALSE_C, Verdict.TRUE]

    def test_determinism(self):
        events = [ev({"p"}, 0), ev({"q"}, 1), ev({}, 3)]
        a, sa = self.run("G (p -> F q)", events)
        b, sb = self.run("G (p -> F q)", events)
        assert a == b
        assert sa.obligation == sb.obligation

    def test_steps_leave_no_cyclic_garbage(self):
        """A step builds no reference cycle, so with the collector off, 100
        steps of the paper property leave nothing for it to collect."""
        state = MonitorState(parse_formula(
            "@Master: G (o -> (within[0,3] m1 & within[0,3] m2))"))
        cycle = [{"o"}, {"m1"}, {"m2"}, set()]
        gc.collect()
        gc.disable()
        try:
            for t in range(100):
                state.step(Event(frozenset(cycle[t % 4]), t))
            assert state.last_verdict is Verdict.TRUE_C
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("depth", [
        400,
        pytest.param(1000, marks=pytest.mark.xfail(
            strict=True, raises=RecursionError,
            reason="each front stage recurses once per level of `&` until "
                   "`&` is flattened (ROADMAP 3(a))")),
    ])
    def test_deep_obligation_steps(self, depth):
        """An obligation `depth` levels deep, as `G (p -> F q)` builds after
        as many events with p, is stepped without running out of stack:
        reading the processed tree makes no deep comparison.  At 1,000
        levels the front stages still exceed the default recursion limit."""
        obligation = Always(Implies(P, Eventually(Q)))
        for _ in range(depth):
            obligation = And(Eventually(Q), obligation)
        state = MonitorState(Property("A", P))
        state.obligation = obligation
        assert state.step(ev({"p"}, 0)) is Verdict.FALSE_C

    def test_step_is_pure_in_state(self):
        """`monitor_step` is a function of its arguments: two identical
        calls give equal results."""
        obligation = parse_bare_formula("G (p -> within[0,3] q) & p U q")
        props = frozenset({"p"})
        first = monitor_step(obligation, props, 2, includes_now=True)
        assert monitor_step(obligation, props, 2, includes_now=True) == first
        assert first[0] is Verdict.FALSE_C


GOLDEN_OBLIGATION_SHA256 = (
    "d450c43c64e958a70b09ba4d046c2ca8701f659576bc2af792a9e825990d0baa"
)


class TestOracleAgreementSmoke:
    """A quick slice of the exhaustive cross-check (the full sweep runs in
    the acceptance suite)."""

    def test_sampled_formulas_match_reference(self):
        cache = StepCache()
        for f in formula_corpus(budget=40)[::37]:
            problems = check_formula(f, cache)
            assert problems["mismatch"] == []
            assert problems["stability"] == []

    def test_step_cache_steps_the_monitor_once_per_row(self, monkeypatch):
        """On the bench's 44-formula slice with one cache, the monitor runs
        only on a miss, each miss adds one row, and every prefix of every
        formula's word tree is compared."""
        calls = []
        step = helpers.monitor_step
        monkeypatch.setattr(helpers, "monitor_step",
                            lambda *args: calls.append(args) or step(*args))
        cache = StepCache()
        formulas = formula_corpus()[::80]
        compared = sum(check_formula(f, cache)["compared"] for f in formulas)
        assert len(formulas) == 44 and compared == 44 * len(all_words())
        assert len(calls) == cache.misses == len(cache.table) == 2024

    def test_check_formula_leaves_the_cache_to_its_caller(self):
        """A walk builds no reference cycle: with the collector off, a
        `StepCache` dies as soon as its caller drops it.  A recursive walker
        closure was a cycle that held the cache, its table and its interned
        obligations until the next full collection."""
        cache = StepCache()
        dead = weakref.ref(cache)
        gc.collect()
        gc.disable()
        try:
            problems = check_formula(parse_bare_formula("G (p -> within[0,3] q)"), cache)
            assert problems["mismatch"] == problems["stability"] == []
            del cache
            assert dead() is None
        finally:
            gc.enable()

    def test_golden_obligation_digest(self):
        """Every step's verdict and printed obligation keep their exact text,
        over every 4th corpus formula, 8 sampled length-4 words and both
        prophecy readings, with a fresh monitor per word."""
        digest = hashlib.sha256()
        steps = 0
        for v, obligation in golden_sample_steps():
            text = format_formula(obligation, extended=True)
            digest.update(f"{v.short} {text}\n".encode())
            steps += 1
        assert steps == 55_296
        assert digest.hexdigest() == GOLDEN_OBLIGATION_SHA256

    def test_no_window_is_activated_below_a_temporal_operator(self):
        """A window is activated only where the event walk reads it, at a
        leaf of the obligation's boolean top, and a formula as parsed
        holds none: so over the golden digest's steps no obligation holds
        an activated window below X, WX, U, F or G, and a shift that stopped
        at those operators would miss no window."""
        temporal = (Next, WeakNext, Until, Eventually, Always)
        steps = 0
        for _, obligation in golden_sample_steps():
            todo = [(obligation, False)]
            while todo:
                n, below = todo.pop()
                assert not (below and isinstance(n, Prophecy) and n.active), obligation
                below = below or isinstance(n, temporal)
                todo.extend((getattr(n, name), below) for name in ("child", "left", "right")
                            if hasattr(n, name))
            steps += 1
        assert steps == 55_296

    def test_obligations_share_the_formulas_temporal_nodes(self):
        """A step rebuilds only the boolean top, and each recurrence is the
        operator node itself: so over the golden digest's steps every U, F,
        G, X and WX node in an obligation's boolean top is a node of the
        formula as parsed, compared by identity."""
        temporal = (Next, WeakNext, Until, Eventually, Always)
        steps = met = 0
        for state in golden_sample_states():
            todo = [state.obligation]
            while todo:
                n = todo.pop()
                if isinstance(n, BOOLEAN_KINDS):
                    todo.extend(getattr(n, name) for name in ("child", "left", "right")
                                if hasattr(n, name))
                elif isinstance(n, temporal):
                    assert any(n is p for p, _ in _walk(state.prop.body)), state.obligation
                    met += 1
            steps += 1
        assert steps == 55_296 and met == 5_326


def golden_sample_states():
    """Every 4th corpus formula stepped through 8 sampled length-4 words
    under both prophecy readings, with a fresh monitor per word: the
    monitor after each step."""
    words = random.Random(0).sample([w for w in all_words() if len(w) == 4], 8)
    for includes_now in (False, True):
        for f in formula_corpus()[::4]:
            for word in words:
                state = MonitorState(Property("A", f), prophecy_includes_now=includes_now)
                for event in word:
                    state.step(event)
                    yield state


def golden_sample_steps():
    """Each golden sample step's verdict and the obligation it leaves."""
    for state in golden_sample_states():
        yield state.last_verdict, state.obligation
