"""Pipeline operations and stepwise monitoring."""

from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import StepCache, check_formula, formula_corpus
from tempoweave.formula import (
    ActiveProphecy,
    Always,
    And,
    Atom,
    Eventually,
    FalseF,
    Next,
    Not,
    Or,
    Prophecy,
    Property,
    TrueF,
    Until,
    WeakNext,
    has_marks,
    parse_bare_formula,
    strip_marks,
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
    obligation_rewrite,
    shift_prophecies,
    simplify,
    unroll_marked,
    verdict_collapse,
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
        got = evaluate_atoms(Or(m(P), m(Q)), ev({"p"}, 0))
        assert got == Or(TrueF(mark=True), FalseF(mark=True))

    def test_unmarked_atom_waits(self):
        tree = m(Next(P))
        assert evaluate_atoms(tree, ev({"p"}, 0)) == tree


class TestEvaluateProphecies:
    def active(self, lo, hi, mark=True):
        return ActiveProphecy(Fraction(lo), Fraction(hi), "p", mark=mark)

    def test_trespassed_window_is_false(self):
        got = evaluate_prophecies(self.active(-3, -1), ev({}, 0))
        assert got == FalseF(mark=True)

    def test_witness_inside_open_window(self):
        got = evaluate_prophecies(self.active(-1, 2), ev({"p"}, 0))
        assert got == TrueF(mark=True)

    def test_occurrence_before_window_opens(self):
        got = evaluate_prophecies(self.active(1, 2), ev({"p"}, 0))
        assert got == FalseF(mark=True)

    def test_pending_stays_with_mark_cleared(self):
        got = evaluate_prophecies(self.active(1, 2), ev({}, 0))
        assert got == self.active(1, 2, mark=False)

    def test_unmarked_prophecy_untouched(self):
        tree = self.active(0, 2, mark=False)
        assert evaluate_prophecies(tree, ev({"p"}, 0)) == tree

    def test_negated_inverts_membership(self):
        neg = ActiveProphecy(Fraction(0), Fraction(2), "p", negated=True, mark=True)
        assert evaluate_prophecies(neg, ev({}, 0)) == TrueF(mark=True)
        assert evaluate_prophecies(neg, ev({"p"}, 0)) == ActiveProphecy(
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
        assert activate_prophecies(tree, now=ev({"p"}, 0)) == TrueF(mark=True)

    def test_current_event_never_blocks(self):
        # window not yet open: activation proceeds, no negative decision
        tree = m(Prophecy(Fraction(1), Fraction(3), "p"))
        assert activate_prophecies(tree, now=ev({"p"}, 0)) == ActiveProphecy(
            Fraction(1), Fraction(3), "p"
        )


class TestCollapseAndRewrite:
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
        assert verdict_collapse(tree) is expected

    def test_collapse_rejects_residual_nodes(self):
        with pytest.raises(PipelineError):
            verdict_collapse(P)  # an unevaluated atom cannot appear here

    def test_simplify_propagates_constants(self):
        tree = Or(FalseF(), And(TrueF(), Next(P)))
        assert simplify(tree) == Next(P)

    def test_simplify_short_circuits(self):
        assert simplify(And(FalseF(), Next(P))) == FalseF()
        assert simplify(Or(TrueF(), Next(P))) == TrueF()

    def test_rewrite_deletes_marked_next(self):
        tree = And(TrueF(mark=True), m(WeakNext(Always(P))))
        assert obligation_rewrite(tree) == Always(P)

    def test_rewrite_keeps_pending_prophecy(self):
        pending = ActiveProphecy(Fraction(-1), Fraction(2), "p")
        tree = And(pending, m(WeakNext(Always(P))))
        assert obligation_rewrite(tree) == And(pending, Always(P))

    def test_rewrite_clears_marks(self):
        tree = And(TrueF(mark=True), m(Next(Until(P, Q))))
        assert not has_marks(obligation_rewrite(tree))


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

    def test_step_is_pure_in_state(self):
        state = MonitorState(Property("A", Always(P)))
        before = state.obligation
        monitor_step(state, ev({"p"}, 0))
        assert state.obligation == before
        assert state.last_time is None and state.last_verdict is None


class TestOracleAgreementSmoke:
    """A quick slice of the exhaustive cross-check (the full sweep runs in
    the acceptance suite)."""

    def test_sampled_formulas_match_reference(self):
        cache = StepCache()
        for f in formula_corpus(budget=40)[::37]:
            problems = check_formula(f, cache)
            assert problems["mismatch"] == []
            assert problems["stability"] == []


class TestSnapshotCoupling:
    def snapshot(self):
        from tempoweave.model import AgentState, Message, Snapshot

        return Snapshot(
            clock=Fraction(5),
            agents={
                "A": AgentState(task="t1", active=True,
                                inputs={"Obstacle": 1}),
                "B": AgentState(task="t2", active=False,
                                messages={0: Message(0, "Stop", "A", "B")}),
            },
            in_transit={1: Message(1, "Stop", "A", "B")},
        )

    def bindings(self):
        from tempoweave.model import Binding

        return {
            "o": Binding("input_present", ("A", "Obstacle")),
            "m": Binding("message_held", ("B", "Stop")),
            "q": Binding("agent_active", ("B",)),
        }

    def test_resolve_event(self):
        event = self.snapshot()
        got = pytest.importorskip("tempoweave.monitor").resolve_event(
            self.snapshot(), "A", self.bindings()
        )
        assert got == Event(frozenset({"o", "m"}), Fraction(5))

    def test_resolve_requires_active(self):
        with pytest.raises(MonitorError):
            from tempoweave.monitor import resolve_event
            resolve_event(self.snapshot(), "B", self.bindings())

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
