"""Pipeline operations and stepwise monitoring."""

import gc
import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import StepCache, all_words, check_formula, formula_corpus
from tempoweave.formula import (
    ActiveProphecy,
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
    format_formula,
    has_marks,
    parse_bare_formula,
    parse_formula,
)
from tempoweave.monitor import (
    MonitorError,
    MonitorState,
    PipelineError,
    activate_prophecies,
    evaluate_atoms,
    evaluate_prophecies,
    mark_outermost,
    monitor_step,
    settle,
    shift_prophecies,
    unroll_marked,
)
from tempoweave.oracle import Event, ev
from tempoweave.verdict import Verdict

P = Atom("p")
Q = Atom("q")


def m(node):
    """Shorthand: the node with its mark set."""
    return replace(node, mark=True)


class TestMarkOutermost:
    def test_atom(self):
        assert mark_outermost(P) == m(P)

    def test_marks_pass_through_booleans(self):
        got = mark_outermost(Or(P, Not(Q)))
        assert got == Or(m(P), Not(m(Q)))

    def test_marks_stop_at_temporal_operators(self):
        got = mark_outermost(And(P, Next(Q)))
        assert got == And(m(P), m(Next(Q)))
        assert not got.right.child.mark  # the inner q must wait

    def test_nested_temporal_is_not_entered(self):
        got = mark_outermost(Until(P, Next(Q)))
        assert got == m(Until(P, Next(Q)))
        assert not got.left.mark

    def test_double_marking_is_a_bug(self):
        with pytest.raises(PipelineError):
            mark_outermost(mark_outermost(P))


class TestUnroll:
    def test_until(self):
        got = unroll_marked(mark_outermost(Until(P, Q)))
        assert got == Or(m(Q), And(m(P), m(Next(Until(P, Q)))))

    def test_eventually(self):
        got = unroll_marked(mark_outermost(Eventually(P)))
        assert got == Or(m(P), m(Next(Eventually(P))))

    def test_always(self):
        got = unroll_marked(mark_outermost(Always(P)))
        assert got == And(m(P), m(WeakNext(Always(P))))

    def test_nested_operands_become_outermost(self):
        # unrolling G(X p) exposes X p as a fresh outermost operator
        got = unroll_marked(mark_outermost(Always(Next(P))))
        assert got == And(m(Next(P)), m(WeakNext(Always(Next(P)))))

    def test_next_is_its_own_one_step_form(self):
        tree = mark_outermost(Next(P))
        assert unroll_marked(tree) == tree

    def test_unmarked_subtrees_untouched(self):
        tree = mark_outermost(Next(Until(P, Q)))
        assert unroll_marked(tree) == m(Next(Until(P, Q)))


class TestShift:
    def test_shifts_all_active_windows(self):
        tree = Or(
            ActiveProphecy(Fraction(0), Fraction(3), "p"),
            Next(ActiveProphecy(Fraction(1), Fraction(2), "q")),
        )
        got = shift_prophecies(tree, Fraction(2))
        assert got == Or(
            ActiveProphecy(Fraction(-2), Fraction(1), "p"),
            Next(ActiveProphecy(Fraction(-1), Fraction(0), "q")),
        )

    def test_inactive_windows_not_shifted(self):
        tree = Prophecy(Fraction(0), Fraction(3), "p")
        assert shift_prophecies(tree, Fraction(2)) == tree

    def test_negative_shift_rejected(self):
        with pytest.raises(MonitorError):
            shift_prophecies(P, Fraction(-1))


class TestEvaluateAtoms:
    def test_marked_atom_becomes_constant(self):
        got = evaluate_atoms(Or(m(P), m(Q)), frozenset({"p"}))
        assert got == Or(TrueF(mark=True), FalseF(mark=True))

    def test_unmarked_atom_waits(self):
        tree = m(Next(P))
        assert evaluate_atoms(tree, frozenset({"p"})) == tree


class TestEvaluateProphecies:
    def active(self, lo, hi, mark=True):
        return ActiveProphecy(Fraction(lo), Fraction(hi), "p", mark=mark)

    def test_trespassed_window_is_false(self):
        got = evaluate_prophecies(self.active(-3, -1), frozenset())
        assert got == FalseF(mark=True)

    def test_witness_inside_open_window(self):
        got = evaluate_prophecies(self.active(-1, 2), frozenset({"p"}))
        assert got == TrueF(mark=True)

    def test_occurrence_before_window_opens(self):
        got = evaluate_prophecies(self.active(1, 2), frozenset({"p"}))
        assert got == FalseF(mark=True)

    def test_pending_stays_with_mark_cleared(self):
        got = evaluate_prophecies(self.active(1, 2), frozenset())
        assert got == self.active(1, 2, mark=False)

    def test_unmarked_prophecy_untouched(self):
        tree = self.active(0, 2, mark=False)
        assert evaluate_prophecies(tree, frozenset({"p"})) == tree

    def test_negated_inverts_membership(self):
        neg = ActiveProphecy(Fraction(0), Fraction(2), "p", negated=True, mark=True)
        assert evaluate_prophecies(neg, frozenset()) == TrueF(mark=True)
        assert evaluate_prophecies(neg, frozenset({"p"})) == ActiveProphecy(
            Fraction(0), Fraction(2), "p", negated=True
        )


class TestActivate:
    def test_marked_prophecy_activates(self):
        got = activate_prophecies(m(Prophecy(Fraction(0), Fraction(3), "p")))
        assert got == ActiveProphecy(Fraction(0), Fraction(3), "p")

    def test_unmarked_prophecy_waits(self):
        tree = Next(Prophecy(Fraction(0), Fraction(3), "p"))
        assert activate_prophecies(tree) == tree

    def test_current_event_may_witness_under_flag(self):
        tree = m(Prophecy(Fraction(0), Fraction(3), "p"))
        assert activate_prophecies(tree, now=frozenset({"p"})) == TrueF(mark=True)

    def test_current_event_never_blocks(self):
        # window not yet open: activation proceeds, no negative decision
        tree = m(Prophecy(Fraction(1), Fraction(3), "p"))
        assert activate_prophecies(tree, now=frozenset({"p"})) == ActiveProphecy(
            Fraction(1), Fraction(3), "p"
        )


class TestCollapseAndRewrite:
    """`settle` reads a processed tree once: the verdict it collapses to and
    the obligation it is rewritten into."""

    @pytest.mark.parametrize("tree,expected", [
        (TrueF(), Verdict.TRUE),
        (FalseF(), Verdict.FALSE),
        (Next(Always(P)), Verdict.FALSE_C),
        (WeakNext(Always(P)), Verdict.TRUE_C),
        (ActiveProphecy(Fraction(0), Fraction(3), "p"), Verdict.FALSE_C),
        (And(TrueF(), WeakNext(P)), Verdict.TRUE_C),
        (Or(FalseF(), Next(P)), Verdict.FALSE_C),
        (Not(Next(P)), Verdict.TRUE_C),
        (And(Next(P), WeakNext(Q)), Verdict.FALSE_C),
    ])
    def test_collapse(self, tree, expected):
        assert settle(tree)[0] is expected

    def test_collapse_rejects_residual_nodes(self):
        with pytest.raises(PipelineError):
            settle(P)  # an unevaluated atom cannot appear here

    def test_simplify_propagates_constants(self):
        tree = Or(FalseF(), And(TrueF(), Next(P)))
        assert settle(tree)[1] == Next(P)

    def test_simplify_short_circuits(self):
        assert settle(And(FalseF(), Next(P)))[1] == FalseF()
        assert settle(Or(TrueF(), Next(P)))[1] == TrueF()

    def test_rewrite_deletes_marked_next(self):
        tree = And(TrueF(mark=True), m(WeakNext(Always(P))))
        assert settle(tree)[1] == Always(P)

    def test_rewrite_keeps_pending_prophecy(self):
        pending = ActiveProphecy(Fraction(-1), Fraction(2), "p")
        tree = And(pending, m(WeakNext(Always(P))))
        assert settle(tree)[1] == And(pending, Always(P))

    def test_rewrite_clears_marks(self):
        tree = And(TrueF(mark=True), m(Next(Until(P, Q))))
        assert not has_marks(settle(tree)[1])
        assert not has_marks(settle(FalseF(mark=True))[1])

    def test_rewrite_propagates_constants_in_marked_next(self):
        """The operand a marked next hands on is reduced, so `X (p & true)`
        leaves `p`."""
        assert settle(m(Next(And(P, TrueF())))) == (Verdict.FALSE_C, P)


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
            ActiveProphecy(Fraction(0), Fraction(3), "q"),
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

    def test_golden_obligation_digest(self):
        """Every step's verdict and printed obligation keep their exact text,
        over every 4th corpus formula, 8 sampled length-4 words and both
        prophecy readings, with a fresh monitor per word."""
        words = random.Random(0).sample([w for w in all_words() if len(w) == 4], 8)
        digest = hashlib.sha256()
        steps = 0
        for includes_now in (False, True):
            for f in formula_corpus()[::4]:
                for word in words:
                    state = MonitorState(Property("A", f),
                                         prophecy_includes_now=includes_now)
                    for event in word:
                        v = state.step(event)
                        text = format_formula(state.obligation, extended=True)
                        digest.update(f"{v.short} {text}\n".encode())
                        steps += 1
        assert steps == 55_296
        assert digest.hexdigest() == GOLDEN_OBLIGATION_SHA256


class TestSnapshotCoupling:
    def snapshot(self):
        from tempoweave.model import AgentState, Message, Snapshot

        return Snapshot(
            clock=Fraction(5),
            agents={
                "A": AgentState(task="t1", inputs={"Obstacle": 1}),
                "B": AgentState(task="t2",
                                messages={0: Message(0, "Stop", "A", "B")}),
            },
            in_transit={1: Message(1, "Stop", "A", "B")},
            active={"A"},
        )

    def bindings(self):
        from tempoweave.model import Binding

        return {
            "o": Binding("input_present", ("A", "Obstacle")),
            "m": Binding("message_held", ("B", "Stop")),
            "q": Binding("agent_active", ("B",)),
        }

    def test_resolve_event(self):
        from tempoweave.monitor import resolve_event

        got = resolve_event(self.snapshot(), self.bindings())
        assert got == Event(frozenset({"o", "m"}), Fraction(5))

    def test_dispatch_skips_inactive(self):
        from tempoweave.monitor import dispatch

        monitors = [
            MonitorState(Property("A", Always(Atom("o")))),
            MonitorState(Property("B", Always(Atom("m")))),
        ]
        results = dispatch(self.snapshot(), monitors, self.bindings())
        assert results == [Verdict.TRUE_C, None]
        assert results[0] is Verdict.TRUE_C
        assert monitors[1].last_time is None and monitors[1].last_verdict is None

    def test_dispatch_unknown_agent(self):
        from tempoweave.monitor import dispatch

        with pytest.raises(MonitorError):
            dispatch(self.snapshot(),
                     [MonitorState(Property("Z", P))], self.bindings())

    def test_dispatch_resolves_the_event_once(self, monkeypatch):
        """`dispatch` evaluates each binding at most once per call, and not
        at all when no monitor's agent is active; every active monitor
        steps on the same event."""
        import tempoweave.model
        from tempoweave.monitor import dispatch

        calls = []
        eval_binding = tempoweave.model.eval_binding

        def counted(binding, snapshot):
            calls.append(binding)
            return eval_binding(binding, snapshot)

        monkeypatch.setattr(tempoweave.model, "eval_binding", counted)
        events = []

        class Recorded(MonitorState):
            def step(self, event):
                events.append(event)
                return super().step(event)

        def monitors(agent):
            return [Recorded(Property(agent, Always(Atom(name)))) for name in "omq"]

        assert dispatch(self.snapshot(), monitors("A"), self.bindings()) == [
            Verdict.TRUE_C, Verdict.TRUE_C, Verdict.FALSE]
        assert len(calls) == len(self.bindings())
        assert len(events) == 3 and all(e is events[0] for e in events)

        calls.clear()
        assert dispatch(self.snapshot(), monitors("B"), self.bindings()) == [None] * 3
        assert calls == []
