"""Tests for the type-checker oracle wrapper."""

import pytest

from repro.core.oracle import BudgetExceeded, Oracle
from repro.miniml import parse_program
from repro.miniml.ast_nodes import Program
from repro.miniml.infer import SpeculativeState, typecheck_program
from repro.obs import MetricsRegistry
from tests.core.reference_checking import (
    ReferenceCheckingOracle,
    ReferenceMismatch,
)


@pytest.fixture
def good():
    return parse_program("let x = 1")


@pytest.fixture
def bad():
    return parse_program("let x = 1 + true")


@pytest.fixture
def two_decl_bad():
    """A passing first declaration followed by a failing second one."""
    return parse_program("let a = 1\nlet b = a + true")


class TestBasics:
    def test_passes_well_typed(self, good):
        assert Oracle().passes(good)

    def test_rejects_ill_typed(self, bad):
        assert not Oracle().passes(bad)

    def test_check_returns_error_object(self, bad):
        result = Oracle().check(bad)
        assert not result.ok
        assert result.error is not None

    def test_call_counting(self, good, bad):
        oracle = Oracle()
        oracle.passes(good)
        oracle.passes(bad)
        oracle.passes(good)
        assert oracle.calls == 3

    def test_reset(self, good):
        oracle = Oracle()
        oracle.passes(good)
        oracle.reset()
        assert oracle.calls == 0


class TestNoVerdictMemo:
    """The oracle keeps no in-memory verdict memo of its own, and the
    searcher keeps none either: the optional ``VerdictStore`` is the only
    place a repeated question is answered without a real check."""

    def test_no_cache_by_default(self, good):
        metrics = MetricsRegistry()
        oracle = Oracle(metrics=metrics)
        oracle.passes(good)
        oracle.passes(good)
        assert oracle.calls == 2
        assert metrics.value("oracle.calls") == 2

    def test_distinct_programs_get_distinct_verdicts(self, good, bad):
        oracle = Oracle()
        assert oracle.passes(good)
        assert not oracle.passes(bad)
        assert oracle.passes(good)
        assert oracle.calls == 3

    @pytest.mark.parametrize("option", ["cache", "key_fn", "render"])
    def test_memo_options_are_gone(self, option):
        with pytest.raises(TypeError):
            Oracle(**{option: None})

    def test_no_cache_metrics_emitted(self, good, bad):
        metrics = MetricsRegistry()
        oracle = Oracle(metrics=metrics)
        oracle.passes(good)
        oracle.passes(bad)
        oracle.passes(good)
        assert metrics.value("oracle.calls") == 3
        assert metrics.counters("oracle.cache") == {}


class TestBudget:
    def test_budget_enforced(self, good):
        oracle = Oracle(max_calls=2)
        oracle.passes(good)
        oracle.passes(good)
        with pytest.raises(BudgetExceeded):
            oracle.passes(good)

    def test_budget_none_is_unlimited(self, good):
        oracle = Oracle(max_calls=None)
        for _ in range(10):
            oracle.passes(good)
        assert oracle.calls == 10


class TestBudgetAccounting:
    def test_budget_exceeded_is_not_a_call(self, good, bad):
        # The budget gate fires before call accounting: a rejected call
        # checked nothing, so it must not count as a call.
        oracle = Oracle(max_calls=1)
        oracle.passes(good)
        with pytest.raises(BudgetExceeded):
            oracle.passes(bad)
        assert oracle.calls == 1

    def test_metrics_agree_with_counters(self, good, bad):
        registry = MetricsRegistry()
        oracle = Oracle(max_calls=1, metrics=registry)
        oracle.passes(good)
        with pytest.raises(BudgetExceeded):
            oracle.passes(bad)
        assert registry.value("oracle.budget_exceeded") == 1
        assert registry.value("oracle.calls") == 1


class TestCustomChecker:
    def test_pluggable_typecheck(self, good):
        """The oracle is language-agnostic: any callable works."""
        from repro.miniml.infer import CheckResult

        calls = []

        def fake(program):
            calls.append(program)
            return CheckResult(ok=True)

        oracle = Oracle(typecheck=fake)
        assert oracle.passes(good)
        assert calls == [good]

    def test_custom_typecheck_cannot_arm_prefix(self, two_decl_bad):
        # A custom checker brings no snapshot function, so prefix reuse
        # silently stays off instead of calling it with a kwarg it would
        # not understand.
        from repro.miniml.infer import CheckResult

        oracle = Oracle(typecheck=lambda program: CheckResult(ok=True))
        assert not oracle.arm_prefix(two_decl_bad, 1)
        assert not oracle.prefix_armed


class TestPrefixReuse:
    def test_arm_and_reuse(self, two_decl_bad):
        oracle = Oracle()
        assert oracle.arm_prefix(two_decl_bad, 1)
        assert oracle.prefix_armed
        assert not oracle.passes(two_decl_bad)
        assert oracle.prefix_reused == 1
        assert oracle.full_checks == 0

    def test_candidate_sharing_prefix_rides_fast_path(self, two_decl_bad):
        oracle = Oracle()
        oracle.arm_prefix(two_decl_bad, 1)
        # Same first-decl *object*, rewritten second decl: still matches.
        candidate = Program(
            [two_decl_bad.decls[0], parse_program("let b = a + 1").decls[0]]
        )
        assert oracle.passes(candidate)
        assert oracle.prefix_reused == 1
        assert oracle.prefix_armed

    @pytest.mark.parametrize("table", [False, True], ids=["scratch", "table"])
    def test_prefix_edit_keeps_snapshot_armed(self, two_decl_bad, table):
        registry = MetricsRegistry()
        oracle = Oracle(metrics=registry)
        if table:
            oracle.arm_decl_table(two_decl_bad)
        oracle.arm_prefix(two_decl_bad, 1)
        # An equal-looking but *distinct* first declaration: the snapshot
        # matches by identity, so this candidate edited the prefix.
        candidate = Program(
            [parse_program("let a = 1").decls[0], two_decl_bad.decls[1]]
        )
        result = oracle.check(candidate)
        reference = typecheck_program(candidate)
        assert result.ok == reference.ok
        assert result.error.render() == reference.error.render()
        assert oracle.full_checks == 1
        assert oracle.prefix_reused == 0
        assert registry.value("oracle.decl.armed") == int(table)
        assert oracle.prefix_armed
        # The next candidate that shares the prefix rides the snapshot.
        oracle.passes(two_decl_bad)
        assert registry.value("oracle.prefix.reused") == 1
        assert oracle.full_checks == 1

    def test_same_answer_with_and_without_prefix(self, two_decl_bad):
        full = Oracle(typecheck=typecheck_program).check(two_decl_bad)
        incremental = Oracle()
        incremental.arm_prefix(two_decl_bad, 1)
        fast = incremental.check(two_decl_bad)
        assert incremental.prefix_reused == 1
        assert fast.ok == full.ok
        assert fast.error.render() == full.error.render()

    def test_reset_clears_snapshot_and_counters(self, two_decl_bad):
        oracle = Oracle()
        oracle.arm_prefix(two_decl_bad, 1)
        oracle.passes(two_decl_bad)
        oracle.reset()
        assert not oracle.prefix_armed
        assert oracle.prefix_reused == 0
        assert oracle.full_checks == 0
        # After reset every check is a full check again.
        oracle.passes(two_decl_bad)
        assert oracle.full_checks == 1

    def test_arm_noop_for_the_reference_checker(self, two_decl_bad):
        # Handing the oracle the default checker explicitly makes it the
        # from-scratch reference: neither reuse route arms.
        oracle = Oracle(typecheck=typecheck_program)
        assert not oracle.arm_decl_table(two_decl_bad)
        assert not oracle.arm_prefix(two_decl_bad, 1)
        oracle.passes(two_decl_bad)
        assert oracle.full_checks == 1
        assert oracle.prefix_reused == 0

    def test_arm_noop_on_empty_prefix(self, two_decl_bad):
        assert not Oracle().arm_prefix(two_decl_bad, 0)

    def test_arm_noop_when_prefix_fails(self):
        program = parse_program("let a = 1 + true\nlet b = 2")
        assert not Oracle().arm_prefix(program, 1)

    def test_prefix_metrics(self, two_decl_bad):
        registry = MetricsRegistry()
        oracle = Oracle(metrics=registry)
        oracle.arm_prefix(two_decl_bad, 1)
        oracle.passes(two_decl_bad)
        assert registry.value("oracle.prefix.armed") == 1
        assert registry.value("oracle.prefix.reused") == 1
        assert registry.value("oracle.full_checks") == 0


class TestReferenceCheck:
    """The test-side oracle the per-check sweeps run through."""

    def test_consistent_answers_pass(self, two_decl_bad):
        registry = MetricsRegistry()
        oracle = ReferenceCheckingOracle(metrics=registry)
        oracle.arm_prefix(two_decl_bad, 1)
        assert not oracle.passes(two_decl_bad)
        assert oracle.compared == 1
        assert registry.value("oracle.prefix.reused") == 1

    def test_divergence_raises(self, two_decl_bad, monkeypatch):
        # A snapshot that answers "ok" on the incremental path while the
        # from-scratch check says "fail" must be caught.
        from repro.miniml.infer import CheckResult

        monkeypatch.setattr(
            SpeculativeState,
            "check",
            lambda self, program, freeze_errors=True: CheckResult(ok=True),
        )
        oracle = ReferenceCheckingOracle()
        assert oracle.arm_prefix(two_decl_bad, 1)
        with pytest.raises(ReferenceMismatch):
            oracle.check(two_decl_bad)
