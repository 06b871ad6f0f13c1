"""Tests for Algorithm 2 (GreedyTest), including the Lemma 4.5 optimality
guarantee checked against exhaustive search."""

import pytest
from hypothesis import given, strategies as st

from repro import (
    Instance,
    acyclic_open_optimum,
    all_words,
    cyclic_optimum,
    greedy_test,
    greedy_word,
    is_valid_word,
    word_throughput,
)

from .conftest import instances


@pytest.fixture
def fig1():
    return Instance(6.0, (5.0, 5.0), (4.0, 1.0, 1.0))


class TestTableIRun:
    def test_word_matches_figure5(self, fig1):
        res = greedy_test(fig1, 4.0)
        assert res.feasible
        assert res.word == "gogog"

    def test_trace_states_match_table(self, fig1):
        res = greedy_test(fig1, 4.0, trace=True)
        states = res.states()
        assert [s.open_avail for s in states] == [6, 2, 7, 3, 5, 1]
        assert [s.guarded_avail for s in states] == [0, 4, 0, 1, 0, 1]
        assert [s.open_to_open for s in states] == [0, 0, 0, 0, 3, 3]

    def test_trace_reasons_recorded(self, fig1):
        res = greedy_test(fig1, 4.0, trace=True)
        assert len(res.steps) == 5
        assert res.steps[0].reason == "preferred guarded"
        assert "forced open" in res.steps[1].reason

    def test_states_requires_trace(self, fig1):
        res = greedy_test(fig1, 4.0)
        with pytest.raises(ValueError):
            res.states()


class TestFeasibilityBoundary:
    def test_exact_acyclic_optimum_feasible(self, fig1):
        assert greedy_test(fig1, 4.0).feasible

    def test_above_optimum_infeasible(self, fig1):
        assert not greedy_test(fig1, 4.0 + 1e-6).feasible
        assert not greedy_test(fig1, 4.2).feasible

    def test_failure_reason_populated(self, fig1):
        res = greedy_test(fig1, 4.2, trace=True)
        assert not res.feasible
        assert res.failure

    def test_zero_rate_always_feasible(self, fig1):
        res = greedy_test(fig1, 0.0)
        assert res.feasible
        assert res.word == "gggoo"

    @pytest.mark.parametrize("trace", [False, True])
    def test_nan_rate_infeasible(self, fig1, trace):
        res = greedy_test(fig1, float("nan"), trace=trace)
        assert not res.feasible
        assert res.failure

    def test_greedy_word_helper(self, fig1):
        assert greedy_word(fig1, 4.0) == "gogog"
        assert greedy_word(fig1, 4.2) is None

    def test_open_only_matches_closed_form(self):
        inst = Instance.open_only(10.0, (6.0, 5.0, 3.0))
        t = acyclic_open_optimum(inst)
        assert greedy_test(inst, t).feasible
        assert not greedy_test(inst, t * 1.001).feasible

    def test_guarded_only(self):
        inst = Instance(4.0, (), (10.0, 10.0))
        # T*_ac = b0 / m = 2 (both guarded fed by the source alone)
        assert greedy_test(inst, 2.0).feasible
        assert not greedy_test(inst, 2.01).feasible


class TestGreedyIsOptimal:
    """Lemma 4.5: greedy succeeds iff some word is valid."""

    @given(instances(max_open=4, max_guarded=4), st.floats(0.01, 30.0))
    def test_greedy_iff_exists_valid_word(self, inst, t):
        exists = any(
            is_valid_word(inst, w, t) for w in all_words(inst.n, inst.m)
        )
        assert greedy_test(inst, t).feasible == exists

    @given(instances(max_open=4, max_guarded=4), st.floats(0.01, 30.0))
    def test_greedy_word_is_valid_when_feasible(self, inst, t):
        res = greedy_test(inst, t)
        if res.feasible:
            assert is_valid_word(inst, res.word, t)

    @given(instances(max_open=5, max_guarded=5))
    def test_feasibility_monotone(self, inst):
        """Feasible set of rates is downward closed (enables bisection)."""
        t_hi = cyclic_optimum(inst)
        if not (t_hi > 0) or t_hi == float("inf"):
            return
        feas = [
            greedy_test(inst, t_hi * frac).feasible
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        ]
        # Once infeasible, stays infeasible.
        seen_false = False
        for f in feas:
            if seen_false:
                assert not f
            if not f:
                seen_false = True

    @given(instances(max_open=4, max_guarded=4))
    def test_dichotomic_word_dominates_all_words(self, inst):
        """The word found at T*_ac beats every fixed word (Lemma 4.5)."""
        from repro import optimal_acyclic_throughput

        t_ac, _ = optimal_acyclic_throughput(inst)
        for word in all_words(inst.n, inst.m):
            assert word_throughput(inst, word) <= t_ac * (1 + 1e-6) + 1e-9
