"""The fault-tolerance layer: deadlines, crash isolation, self-healing.

The contract under test (see ``repro.core.resilience``): budget or deadline
exhaustion and oracle crashes never escape ``explain()`` — the caller always
gets the suggestions found so far plus an accurate ``DegradationReport``.
"""

import io
import sys
from pathlib import Path

import pytest

import repro.core.oracle as oracle_module
from repro.core import (
    BudgetExceeded,
    Deadline,
    DeadlineExceeded,
    DegradationReport,
    Oracle,
    REASON_BUDGET,
    REASON_CRASH,
    REASON_DEADLINE,
    REASON_FALLBACK,
    SearchConfig,
    Searcher,
    explain,
)
from repro.core.oracle import CRASH_SAMPLE_LIMIT
import repro.core.resilience as resilience_module
from repro.core.resilience import SHED_FRACTION
from repro.faults import ChaosOracle, standard_fault_plans
from repro.miniml.infer import (
    CheckResult,
    SpeculativeState,
    TrailIntegrityError,
    typecheck_program,
)
from repro.miniml.ast_nodes import Program
from repro.miniml.parser import parse_program
from repro.obs import EventLog, MetricsRegistry, events_of, read_events
from repro.store import VerdictStore


class FakeClock:
    """Stands in for the resilience module's ``time``: a hand-cranked
    monotonic clock for deterministic deadline tests."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def monotonic(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(resilience_module, "time", fake)
    return fake


TWO_DECLS = "let x = 1\nlet y = x + true"


def _baseline_and_candidate():
    """``TWO_DECLS`` as a search's baseline, and an (also ill-typed)
    candidate that keeps its passing first declaration, by identity, and
    edits the failing second one: the first check that edits a baseline
    declaration, so it arms the prefix snapshot."""
    program = parse_program(TWO_DECLS)
    edit = parse_program('let y = x ^ "!"').decls[0]
    return program, Program([program.decls[0], edit])


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_elapsed_and_remaining(self, clock):
        deadline = Deadline(10.0)
        assert deadline.elapsed() == 0.0
        assert deadline.remaining() == 10.0
        clock.advance(4.0)
        assert deadline.elapsed() == 4.0
        assert deadline.remaining() == 6.0

    def test_expiry(self, clock):
        deadline = Deadline(1.0)
        assert not deadline.expired()
        clock.advance(0.999)
        assert not deadline.expired()
        clock.advance(0.001)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_soft_horizon_before_hard(self, clock):
        deadline = Deadline(1.0)
        clock.advance(0.84)
        assert not deadline.soft_expired()
        clock.advance(0.02)
        assert deadline.soft_expired()
        assert not deadline.expired()

    def test_none_never_expires(self, clock):
        deadline = Deadline(None)
        clock.advance(1e9)
        assert not deadline.expired()
        assert not deadline.soft_expired()
        assert deadline.remaining() is None
        assert deadline.elapsed() == pytest.approx(1e9)

    def test_remaining_clamped_at_zero(self, clock):
        deadline = Deadline(1.0)
        clock.advance(5.0)
        assert deadline.remaining() == 0.0


# ---------------------------------------------------------------------------
# DegradationReport
# ---------------------------------------------------------------------------


class TestDegradationReport:
    def test_fresh_report_is_not_degraded(self):
        report = DegradationReport()
        assert not report.degraded
        assert report.summary() == "search degradation: none"

    def test_note_is_idempotent_and_ordered(self):
        report = DegradationReport()
        report.note(REASON_DEADLINE)
        report.note(REASON_CRASH)
        report.note(REASON_DEADLINE)
        assert report.reasons == [REASON_DEADLINE, REASON_CRASH]
        assert report.degraded

    def test_note_shed_counts(self):
        report = DegradationReport()
        report.note_shed("triage")
        report.note_shed("triage")
        report.note_shed("constructive")
        assert report.phases_shed == {"triage": 2, "constructive": 1}

    def test_summary_mentions_everything(self):
        report = DegradationReport(
            reasons=[REASON_BUDGET, REASON_CRASH],
            oracle_crashes=3,
            prefix_fallbacks=1,
            depth_rejections=2,
            phases_shed={"triage": 4},
            elapsed_seconds=1.5,
            deadline_seconds=2.0,
        )
        text = report.summary()
        assert "degraded (budget+crash)" in text
        assert "crashes=3" in text
        assert "prefix_fallbacks=1" in text
        assert "depth_rejections=2" in text
        assert "shed=triagex4" in text
        assert "elapsed=1.500s" in text
        assert "deadline=2s" in text


# ---------------------------------------------------------------------------
# Oracle crash isolation
# ---------------------------------------------------------------------------


def _crashy_typecheck(crash_on):
    """A checker that raises on programs whose id is in ``crash_on``."""

    def typecheck(program):
        if id(program) in crash_on:
            raise RuntimeError("checker exploded")
        return CheckResult(ok=True)

    return typecheck


class TestCrashIsolation:
    def test_crash_becomes_candidate_rejected(self):
        program = parse_program("let x = 1")
        oracle = Oracle(typecheck=_crashy_typecheck({id(program)}))
        result = oracle.check(program)
        assert result.ok is False
        assert oracle.crashes == 1
        assert len(oracle.crash_samples) == 1
        assert "checker exploded" in oracle.crash_samples[0]

    def test_crash_samples_are_bounded(self):
        def always_crash(program):
            raise ValueError("boom")

        oracle = Oracle(typecheck=always_crash)
        program = parse_program("let x = 1")
        for _ in range(CRASH_SAMPLE_LIMIT + 3):
            assert oracle.check(program).ok is False
        assert oracle.crashes == CRASH_SAMPLE_LIMIT + 3
        assert CRASH_SAMPLE_LIMIT == 5
        assert len(oracle.crash_samples) == 5

    def test_budget_exceeded_still_raises(self):
        oracle = Oracle(max_calls=0)
        with pytest.raises(BudgetExceeded):
            oracle.check(parse_program("let x = 1"))

    def test_recursion_error_is_isolated(self):
        def deep_crash(program):
            raise RecursionError("maximum recursion depth exceeded")

        oracle = Oracle(typecheck=deep_crash)
        assert oracle.check(parse_program("let x = 1")).ok is False
        assert oracle.crashes == 1

    def test_reset_clears_crash_accounting(self):
        def always_crash(program):
            raise ValueError("boom")

        oracle = Oracle(typecheck=always_crash)
        oracle.check(parse_program("let x = 1"))
        oracle.reset()
        assert oracle.crashes == 0
        assert oracle.crash_samples == []


# ---------------------------------------------------------------------------
# Self-healing incremental mode
# ---------------------------------------------------------------------------


class _ExplodingSnapshot:
    """Matches every candidate but explodes when inference touches it."""

    def matches(self, program):
        return True

    def __getattr__(self, name):
        raise RuntimeError(f"poisoned snapshot: {name}")


def _poison_snapshots(monkeypatch):
    """Make the oracle arm an :class:`_ExplodingSnapshot`: it matches every
    candidate, so the poison fires exactly on the snapshot route."""
    monkeypatch.setattr(
        oracle_module, "snapshot_prefix", lambda program, n: _ExplodingSnapshot()
    )


class TestSelfHealing:
    def _oracle_with_poisoned_snapshot(self, monkeypatch):
        _poison_snapshots(monkeypatch)
        oracle = Oracle()
        program, candidate = _baseline_and_candidate()
        oracle.check(program)
        return oracle, candidate

    def test_poisoned_snapshot_falls_back_to_full_check(self, monkeypatch):
        oracle, candidate = self._oracle_with_poisoned_snapshot(monkeypatch)
        result = oracle.check(candidate)
        # The from-scratch answer, not a crash: y = x ^ "!" is ill-typed.
        assert result.ok is False
        assert result.error is not None
        assert oracle.prefix_fallbacks == 1
        assert oracle.crashes == 1
        assert oracle._snapshot is None  # healed away, not retried forever

    def test_fallback_happens_once_then_stays_full(self, monkeypatch):
        oracle, candidate = self._oracle_with_poisoned_snapshot(monkeypatch)
        oracle.check(candidate)
        oracle.check(candidate)
        assert oracle.prefix_fallbacks == 1
        # The baseline and both candidates: a dropped snapshot is not
        # re-armed within the search.
        assert oracle.full_checks == 3

    def test_trail_integrity_error_heals_to_reference_answer(
        self, monkeypatch, tmp_path
    ):
        # A trail that cannot restore the armed state: the snapshot is
        # dropped, the fallback is counted once, the degraded answer is
        # never persisted, and the answer is the from-scratch one.
        def corrupt(self, program, freeze_errors=True):
            raise TrailIntegrityError("speculative rollback failed")

        monkeypatch.setattr(SpeculativeState, "check", corrupt)
        program, candidate = _baseline_and_candidate()
        metrics = MetricsRegistry()
        with VerdictStore(tmp_path / "store") as store:
            oracle = Oracle(metrics=metrics, store=store)
            oracle.check(program)
            assert oracle.store_writes == 1  # the baseline's verdict
            result = oracle.check(candidate)
            assert oracle.store_writes == 1
            assert metrics.value("oracle.store.writes") == 1
            assert oracle._snapshot is None
            # Healed: the next check takes the from-scratch path directly.
            oracle.check(candidate)
        reference = typecheck_program(candidate)
        assert result.ok is reference.ok is False
        assert result.error.render() == reference.error.render()
        assert metrics.value("oracle.prefix.fallbacks") == 1
        assert metrics.value("oracle.crashes") == 1
        assert "TrailIntegrityError" in oracle.crash_samples[0]

    def test_chaos_poisons_the_snapshot_its_check_arms(self):
        # The candidate that arms the snapshot is the poison's first
        # casualty, so a search with one candidate still heals.
        oracle = ChaosOracle(standard_fault_plans()["snapshot-poison"])
        program, candidate = _baseline_and_candidate()
        oracle.check(program)
        result = oracle.check(candidate)
        assert oracle.injected["snapshot"] == 1
        assert oracle.prefix_fallbacks == 1
        assert oracle.prefix_reused == 0
        assert result.error.render() == typecheck_program(candidate).error.render()

    def test_crashing_snapshot_prefix_is_isolated(self, monkeypatch):
        def bad_snapshot(program, n):
            raise RuntimeError("snapshot bug")

        monkeypatch.setattr(oracle_module, "snapshot_prefix", bad_snapshot)
        oracle = Oracle()
        program, candidate = _baseline_and_candidate()
        oracle.check(program)
        result = oracle.check(candidate)
        assert oracle.crashes == 1
        assert oracle._snapshot is None
        assert result.ok is False
        assert result.error.render() == typecheck_program(candidate).error.render()


# ---------------------------------------------------------------------------
# Re-arming the prefix snapshot never serves an earlier verdict
# ---------------------------------------------------------------------------


class TestRearmedPrefix:
    def test_second_search_rearms_under_its_new_baseline(self):
        # After reset() the next check is a new search's baseline: the
        # table is recorded again and the snapshot re-armed on the new
        # baseline's prefix, so no answer comes from the first search's.
        metrics = MetricsRegistry()
        oracle = Oracle(metrics=metrics)
        answers = []
        for _ in range(2):
            oracle.reset()
            program, candidate = _baseline_and_candidate()
            answers.append((oracle.check(program), oracle.check(candidate)))
            assert oracle.prefix_reused == 1
        assert metrics.value("oracle.decl.armed") == 2
        assert metrics.value("oracle.prefix.armed") == 2
        # Every answer came from a real check: nothing was memoised across
        # the change of baseline.
        assert metrics.value("oracle.calls") == 4
        (base1, cand1), (base2, cand2) = answers
        assert base1.ok is base2.ok is cand1.ok is cand2.ok is False
        assert base1.error.render() == base2.error.render()
        assert cand1.error.render() == cand2.error.render()

    @pytest.mark.parametrize(
        "source, bad",
        [("let a = 1\nlet b = 2\nlet c = a + true", None), (TWO_DECLS, 1)],
        ids=["during-localization", "at-first-candidate"],
    )
    def test_budget_spent_by_localization_arms_no_snapshot(self, source, bad):
        # A budget of two calls: the baseline check and one localization
        # prefix check.  It runs out inside localization, or (two
        # declarations) at the first candidate; either way the snapshot
        # that candidate would arm is never built.
        metrics = MetricsRegistry()
        searcher = Searcher(
            config=SearchConfig(max_oracle_calls=2), metrics=metrics
        )
        outcome = searcher.search_program(parse_program(source))
        assert outcome.budget_exhausted
        assert outcome.bad_decl_index == bad
        assert metrics.value("oracle.decl.armed") == 1
        assert metrics.value("oracle.prefix.armed") == 0


# ---------------------------------------------------------------------------
# Depth pre-check
# ---------------------------------------------------------------------------


def _deep_program(depth: int):
    from repro.miniml.ast_nodes import DExpr, EApp, EVar, Program

    expr = EVar("f")
    for _ in range(depth):
        expr = EApp(expr, [EVar("x")])
    return Program([DExpr(expr)])


@pytest.fixture
def depth_limit_10(monkeypatch):
    monkeypatch.setattr(oracle_module, "default_max_depth", lambda: 10)


class TestDepthPreCheck:
    def test_deep_candidate_rejected_without_a_call(self, depth_limit_10):
        oracle = Oracle()
        result = oracle.check(_deep_program(50))
        assert result.ok is False
        assert oracle.depth_rejections == 1
        assert oracle.calls == 0  # never reached the checker

    def test_shallow_candidate_passes_the_guard(self, depth_limit_10):
        oracle = Oracle()
        oracle.check(parse_program("let x = 1"))
        assert oracle.depth_rejections == 0
        assert oracle.calls == 1

    def test_auto_depth_derives_from_recursion_limit(self):
        oracle = Oracle()
        assert oracle.max_depth == max(64, sys.getrecursionlimit() // 6)


# ---------------------------------------------------------------------------
# The searcher's deadline machinery
# ---------------------------------------------------------------------------


class TestSearcherDeadline:
    def test_tick_raises_past_the_hard_deadline(self, clock):
        searcher = Searcher()
        searcher._deadline = Deadline(1.0)
        searcher._tick("removal_tests")  # within budget: no raise
        clock.advance(2.0)
        with pytest.raises(DeadlineExceeded):
            searcher._tick("removal_tests")

    def test_shed_past_the_soft_horizon(self, clock):
        searcher = Searcher()
        searcher._deadline = Deadline(1.0)
        assert not searcher._shed("triage")
        clock.advance(0.84)
        assert not searcher._shed("triage")
        clock.advance(0.02)
        assert searcher._shed("triage")
        assert searcher._shed("constructive")
        assert searcher.degradation.phases_shed == {"triage": 1, "constructive": 1}

    def test_no_deadline_never_sheds(self):
        searcher = Searcher()
        searcher._deadline = Deadline(None)
        assert not searcher._shed("triage")
        searcher._tick("removal_tests")  # and never raises


# ---------------------------------------------------------------------------
# Degradation through explain() — the end-to-end contract
# ---------------------------------------------------------------------------


class TestExplainDegradation:
    def test_budget_zero_degrades_instead_of_raising(self):
        result = explain(TWO_DECLS, max_oracle_calls=0)
        assert result.ok is False
        assert result.degraded
        assert result.degradation.reasons == [REASON_BUDGET]
        assert result.budget_exhausted
        assert result.degradation.budget == 0

    def test_deadline_zero_degrades_instead_of_raising(self):
        result = explain(TWO_DECLS, deadline_seconds=0.0)
        assert result.ok is False
        assert result.degraded
        assert REASON_DEADLINE in result.degradation.reasons
        assert result.degradation.deadline_seconds == 0.0

    def test_small_budget_keeps_best_so_far(self):
        full = explain(TWO_DECLS)
        assert full.suggestions and not full.degraded
        partial = explain(TWO_DECLS, max_oracle_calls=full.oracle_calls // 2)
        assert partial.degraded
        assert len(partial.suggestions) <= len(full.suggestions)

    def test_undegrated_search_reports_clean(self):
        result = explain(TWO_DECLS)
        assert not result.degraded
        assert result.degradation is not None
        assert result.degradation.reasons == []
        assert result.degradation.elapsed_seconds > 0.0

    def test_crashy_oracle_degrades_with_crash_reason(self):
        calls = {"n": 0}
        real = Oracle()._typecheck

        def flaky(program):
            calls["n"] += 1
            if calls["n"] % 5 == 0:
                raise RuntimeError("flaky checker")
            return real(program)

        result = explain(TWO_DECLS, oracle=Oracle(typecheck=flaky))
        assert result.ok is False
        assert REASON_CRASH in result.degradation.reasons
        assert result.degradation.oracle_crashes >= 1
        assert result.degradation.crash_samples

    def test_report_survives_oracle_reset(self):
        # An explicitly passed oracle carries its own budget; the report
        # copies the crash/fallback counters out, so it stays accurate
        # after the oracle is reset for the next search.
        oracle = Oracle(max_calls=0)
        result = explain(TWO_DECLS, oracle=oracle)
        oracle.reset()
        assert result.degradation.reasons == [REASON_BUDGET]

    def test_passed_oracle_budget_is_the_one_recorded(self):
        # The passed oracle has no budget, so max_oracle_calls is not
        # enforced: the report must not claim a budget of 5.
        fig2 = Path(__file__).parents[2] / "examples" / "fig2.ml"
        result = explain(fig2.read_text(), max_oracle_calls=5, oracle=Oracle())
        assert result.oracle_calls > 5
        assert not result.budget_exhausted
        assert result.degradation.budget is None

    def test_passed_oracle_max_calls_in_result_and_event(self):
        sink = io.StringIO()
        result = explain(TWO_DECLS, oracle=Oracle(max_calls=3), events=EventLog(sink))
        assert result.budget_exhausted
        assert result.degradation.budget == 3
        [event] = events_of(read_events(sink.getvalue().splitlines()), "degradation")
        assert event["budget"] == 3

    def test_search_config_carries_deadline(self):
        config = SearchConfig(deadline_seconds=2.5)
        assert config.deadline_seconds == 2.5


class TestShedFraction:
    """The soft-deadline shed point is a constant: results under a
    deadline depend on where it lands."""

    def test_shed_point_is_085(self):
        assert SHED_FRACTION == 0.85

    def test_old_alias_is_gone(self):
        assert not hasattr(SearchConfig(), "soft_deadline_fraction")
