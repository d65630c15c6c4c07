"""Tests for the type-checker oracle wrapper."""

import pytest

from repro.core.oracle import BudgetExceeded, Oracle
from repro.miniml import parse_program
from repro.miniml.ast_nodes import DExpr, EApp, EVar, Program
from repro.miniml.infer import SpeculativeState, typecheck_program
from repro.obs import MetricsRegistry
from repro.tree import DepthProbe
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

    def test_custom_typecheck_arms_no_reuse(self, two_decl_bad):
        # A custom checker brings no snapshot or table to reuse: every
        # check calls it, however the candidates share the baseline.
        registry = MetricsRegistry()
        oracle = Oracle(
            typecheck=lambda program: typecheck_program(program),
            metrics=registry,
        )
        oracle.passes(two_decl_bad)
        oracle.passes(_sharing(two_decl_bad, "let b = a + 1"))
        assert oracle.full_checks == 2
        assert oracle.prefix_reused == 0
        assert registry.value("oracle.prefix.armed") == 0
        assert registry.value("oracle.decl.armed") == 0


def _sharing(program, source):
    """A candidate that keeps ``program``'s first declaration (the same
    object, as the searcher's candidates do) and replaces its second."""
    return Program([program.decls[0], parse_program(source).decls[0]])


class TestPrefixReuse:
    """The oracle arms the snapshot itself: the first check after a reset
    is the baseline, and the first check the table declines that edits
    one of its declarations arms a snapshot of the declarations before
    the edited one."""

    def test_arm_and_reuse(self, two_decl_bad):
        oracle = Oracle()
        assert not oracle.passes(two_decl_bad)
        assert not oracle.passes(_sharing(two_decl_bad, 'let b = a ^ "!"'))
        assert oracle.prefix_reused == 1
        # Only the baseline was a full check.
        assert oracle.full_checks == 1

    def test_candidate_sharing_prefix_rides_fast_path(self, two_decl_bad):
        oracle = Oracle()
        oracle.passes(two_decl_bad)
        # Same first-decl *object*, rewritten second decl: still matches.
        assert oracle.passes(_sharing(two_decl_bad, "let b = a + 1"))
        assert oracle.passes(_sharing(two_decl_bad, "let b = a * 2"))
        assert oracle.prefix_reused == 2

    @pytest.mark.parametrize("edit_first", [True, False], ids=["edit-arms", "share-arms"])
    def test_prefix_edit_keeps_snapshot_armed(self, two_decl_bad, edit_first):
        registry = MetricsRegistry()
        oracle = Oracle(metrics=registry)
        oracle.check(two_decl_bad)
        # An equal-looking but *distinct* first declaration: the snapshot
        # matches by identity, so this candidate edited the prefix.
        edited = Program(
            [parse_program("let a = 1").decls[0], two_decl_bad.decls[1]]
        )
        shared = _sharing(two_decl_bad, "let b = a + 1")
        order = [edited, shared] if edit_first else [shared, edited]
        answers = [oracle.check(candidate) for candidate in order]
        result = answers[order.index(edited)]
        reference = typecheck_program(edited)
        assert result.ok == reference.ok
        assert result.error.render() == reference.error.render()
        # The edited candidate and the baseline were the full checks.
        assert oracle.full_checks == 2
        assert oracle.prefix_reused == 1
        # Armed once per search, whichever candidate came first, and the
        # next candidate that shares the prefix still rides it.
        oracle.passes(_sharing(two_decl_bad, "let b = a * 2"))
        assert registry.value("oracle.prefix.reused") == 2
        assert registry.value("oracle.prefix.armed") == 1
        assert registry.value("oracle.decl.armed") == 1
        assert oracle.full_checks == 2

    def test_snapshot_arms_on_the_prefix_the_candidate_shares(self):
        # Candidates that edit a passing declaration before the baseline's
        # first failure (a search whose localization a crash cut short)
        # get a snapshot of the declarations they share with it.
        registry = MetricsRegistry()
        oracle = Oracle(metrics=registry)
        program = parse_program("let a = 1\nlet b = a + 1\nlet c = b ^ a")
        assert not oracle.passes(program)
        for edit in ('let b = "x"', "let b = a * 2"):
            candidate = Program(
                [program.decls[0], parse_program(edit).decls[0], program.decls[2]]
            )
            answer, reference = oracle.check(candidate), typecheck_program(candidate)
            assert answer.ok is reference.ok
            assert _message(answer) == _message(reference)
        assert registry.value("oracle.prefix.armed") == 1
        assert oracle.prefix_reused == 2
        assert oracle.full_checks == 1

    def test_same_answer_with_and_without_prefix(self, two_decl_bad):
        candidate = _sharing(two_decl_bad, 'let b = a ^ "!"')
        full = Oracle(typecheck=typecheck_program).check(candidate)
        incremental = Oracle()
        incremental.check(two_decl_bad)
        fast = incremental.check(candidate)
        assert incremental.prefix_reused == 1
        assert fast.ok == full.ok
        assert fast.error.render() == full.error.render()

    def test_reset_clears_snapshot_and_counters(self, two_decl_bad):
        oracle = Oracle()
        oracle.passes(two_decl_bad)
        candidate = _sharing(two_decl_bad, "let b = a + 1")
        oracle.passes(candidate)
        assert oracle.prefix_reused == 1
        oracle.reset()
        assert oracle.prefix_reused == 0
        assert oracle.full_checks == 0
        # After reset the next check is a new baseline: a full check, not
        # an answer from the old snapshot.
        oracle.passes(candidate)
        assert oracle.full_checks == 1
        assert oracle.prefix_reused == 0

    def test_arm_noop_for_the_reference_checker(self, two_decl_bad):
        # Handing the oracle the default checker explicitly makes it the
        # from-scratch reference: neither reuse route arms.
        registry = MetricsRegistry()
        oracle = Oracle(typecheck=typecheck_program, metrics=registry)
        oracle.passes(two_decl_bad)
        oracle.passes(_sharing(two_decl_bad, "let b = a + 1"))
        assert oracle.full_checks == 2
        assert oracle.prefix_reused == 0
        assert registry.value("oracle.decl.armed") == 0
        assert registry.value("oracle.prefix.armed") == 0

    def test_arm_noop_on_empty_prefix(self):
        # The baseline fails in its first declaration: no passing prefix,
        # so no snapshot.
        registry = MetricsRegistry()
        oracle = Oracle(metrics=registry)
        program = parse_program("let a = 1 + true\nlet b = 2")
        oracle.passes(program)
        oracle.passes(Program([parse_program("let a = 1").decls[0]]))
        assert registry.value("oracle.prefix.armed") == 0
        assert oracle.full_checks == 2

    def test_arm_noop_when_prefix_fails(self):
        # A candidate that keeps the failing first declaration and edits
        # the second shares a prefix that fails: no snapshot of it.
        registry = MetricsRegistry()
        oracle = Oracle(metrics=registry)
        program = parse_program("let a = 1 + true\nlet b = 2")
        assert not oracle.passes(program)
        candidate = _sharing(program, "let b = 3")
        answer, reference = oracle.check(candidate), typecheck_program(candidate)
        assert answer.ok is reference.ok is False
        assert _message(answer) == _message(reference)
        assert registry.value("oracle.prefix.armed") == 0
        assert oracle.full_checks == 2

    def test_prefix_metrics(self, two_decl_bad):
        registry = MetricsRegistry()
        oracle = Oracle(metrics=registry)
        oracle.passes(two_decl_bad)
        oracle.passes(_sharing(two_decl_bad, "let b = a + 1"))
        assert registry.value("oracle.prefix.armed") == 1
        assert registry.value("oracle.prefix.reused") == 1
        assert registry.value("oracle.full_checks") == 1


    def test_reset_oracle_records_a_fresh_table_for_an_unrelated_program(self):
        # Reused after reset() on a program sharing nothing with the first
        # baseline, the oracle records the new one and arms on it; every
        # answer, messages included, is the from-scratch checker's.
        registry = MetricsRegistry()
        oracle = Oracle(metrics=registry)
        sources = [
            ("let a = 1\nlet b = a + 1\nlet c = b ^ a", 'let c = a + b'),
            ("let s = \"x\"\nlet t = s + 1\nlet u = 2", 'let t = s ^ "y"'),
        ]
        for armed, (source, edit) in enumerate(sources, start=1):
            oracle.reset()
            program = parse_program(source)
            bad = typecheck_program(program).decls_checked - 1
            edited = list(program.decls[:bad]) + parse_program(edit).decls
            probes = [program]
            probes += [Program(program.decls[:n]) for n in range(1, bad + 2)]
            probes += [Program(edited[: bad + 1])]
            for probe in probes:
                answer, reference = oracle.check(probe), typecheck_program(probe)
                assert answer.ok is reference.ok
                assert _message(answer) == _message(reference)
            assert registry.value("oracle.decl.armed") == armed
            assert registry.value("oracle.prefix.armed") == armed
            assert oracle.prefix_reused == 1
            # The baseline was recorded; its prefixes were replayed.
            assert oracle.full_checks == bad + 2


def _message(result):
    return result.error.render() if result.error is not None else None


def _too_deep_decl(oracle):
    """``f (f (... 1))``: well typed after ``let f x = x``, and one level
    deeper than the oracle's depth guard accepts as a program."""
    expr = parse_program("1").decls[0].expr
    decl = DExpr(expr)
    while not DepthProbe().exceeds(Program([decl]), oracle.max_depth):
        expr = EApp(EVar("f"), [expr])
        decl = DExpr(expr)
    return decl


class TestDepthRejectedBaseline:
    """A baseline the depth guard rejects is never inferred, so no table
    is recorded; the snapshot still arms where the first candidate edits,
    the too-deep declaration localization stops at."""

    @pytest.mark.parametrize("tail", ["let c = 1 + true", None],
                             ids=["failing-tail", "no-tail"])
    def test_snapshot_arms_before_a_well_typed_too_deep_decl(self, tail):
        registry = MetricsRegistry()
        oracle = Oracle(metrics=registry)
        head = parse_program("let f x = x").decls[0]
        deep = _too_deep_decl(oracle)
        rest = parse_program(tail).decls if tail else []
        program = Program([head, deep] + rest)
        assert not oracle.passes(program)
        assert oracle.depth_rejections == 1
        # Localization's scan: the first prefix is checked from scratch,
        # and nothing infers the too-deep declaration.
        assert oracle.passes(Program([head]))
        assert registry.value("oracle.decl.checked") == 1
        assert registry.value("oracle.decl.armed") == 0
        assert not oracle.passes(Program([head, deep]))
        assert oracle.depth_rejections == 2
        # A candidate that rewrites the too-deep declaration rides the
        # snapshot of the declarations before it.
        candidate = Program([head, parse_program("let y = f 1").decls[0]] + rest)
        answer, reference = oracle.check(candidate), typecheck_program(candidate)
        assert answer.ok is reference.ok is (tail is None)
        assert _message(answer) == _message(reference)
        assert registry.value("oracle.prefix.armed") == 1
        assert oracle.prefix_reused == 1
        assert registry.value("oracle.decl.checked") == 1 + len(rest) + 1

    def test_too_deep_first_decl_arms_nothing(self):
        registry = MetricsRegistry()
        oracle = Oracle(metrics=registry)
        program = Program([_too_deep_decl(oracle)])
        assert not oracle.passes(program)
        candidate = parse_program("let y = 1")
        assert oracle.passes(candidate)
        assert registry.value("oracle.decl.armed") == 0
        assert registry.value("oracle.prefix.armed") == 0
        assert oracle.full_checks == 1


class TestReferenceCheck:
    """The test-side oracle the per-check sweeps run through."""

    def test_consistent_answers_pass(self, two_decl_bad):
        registry = MetricsRegistry()
        oracle = ReferenceCheckingOracle(metrics=registry)
        assert not oracle.passes(two_decl_bad)
        assert not oracle.passes(_sharing(two_decl_bad, 'let b = a ^ "!"'))
        assert oracle.compared == 2
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
        oracle.check(two_decl_bad)
        with pytest.raises(ReferenceMismatch):
            oracle.check(_sharing(two_decl_bad, 'let b = a ^ "!"'))
