"""Fault injection: every corpus program, every fault plan, no exceptions.

The whole point of the resilience layer is a universally quantified claim —
*no* oracle failure mode may escape ``explain()`` — so these tests quantify
over it: the full corpus of representative ill-typed programs crossed with
every standard fault plan must yield well-formed outcomes whose degradation
reports match what was actually injected.
"""

import pytest

from repro.core import (
    REASON_CRASH,
    REASON_DEADLINE,
    REASON_FALLBACK,
    explain,
)
from repro.core.changes import Suggestion
from repro.core.messages import render_suggestion
from repro.corpus import generate_corpus
from repro.faults import (
    ChaosCrash,
    ChaosOracle,
    FaultPlan,
    SnapshotPoisoned,
    standard_fault_plans,
)

CORPUS_SCALE = 0.1
CORPUS_SEED = 7


@pytest.fixture(scope="module")
def corpus_files():
    return generate_corpus(scale=CORPUS_SCALE, seed=CORPUS_SEED).representatives


def _assert_well_formed(result, oracle):
    """The shape every outcome must have, faults or not."""
    assert isinstance(result.ok, bool)
    assert isinstance(result.suggestions, list)
    for suggestion in result.suggestions:
        assert isinstance(suggestion, Suggestion)
        assert isinstance(render_suggestion(suggestion), str)
    report = result.degradation
    assert report is not None
    assert report.oracle_crashes == oracle.crashes
    assert report.prefix_fallbacks == oracle.prefix_fallbacks
    assert report.depth_rejections == oracle.depth_rejections
    assert report.elapsed_seconds >= 0.0
    # The report's reasons must be consistent with its counters.
    if report.oracle_crashes or report.depth_rejections:
        assert REASON_CRASH in report.reasons
    if report.prefix_fallbacks:
        assert REASON_FALLBACK in report.reasons


class TestFaultPlan:
    def test_empty_plan_is_inactive(self):
        assert not FaultPlan().active

    @pytest.mark.parametrize("name", sorted(standard_fault_plans()))
    def test_standard_plans_are_active(self, name):
        assert standard_fault_plans()[name].active

    def test_crash_exception_kinds(self):
        assert isinstance(FaultPlan(crash_every=1).crash_exception(), ChaosCrash)
        assert isinstance(
            FaultPlan(crash_every=1, crash_kind="recursion").crash_exception(),
            RecursionError,
        )


class TestChaosMatrix:
    """The acceptance sweep: every program x every plan, never a raise."""

    @pytest.mark.parametrize("plan_name", sorted(standard_fault_plans()))
    def test_every_corpus_program_survives(self, plan_name, corpus_files):
        plan = standard_fault_plans()[plan_name]
        oracle = ChaosOracle(plan, cache=True)
        for corpus_file in corpus_files:
            oracle.reset()
            result = explain(corpus_file.program, oracle=oracle)
            _assert_well_formed(result, oracle)
            if oracle.injected["crash"]:
                assert REASON_CRASH in result.degradation.reasons
            if oracle.injected["snapshot"] and oracle.prefix_fallbacks:
                assert REASON_FALLBACK in result.degradation.reasons

    def test_crashes_actually_fire(self, corpus_files):
        plan = standard_fault_plans()["crash-every-3"]
        oracle = ChaosOracle(plan)
        fired = 0
        for corpus_file in corpus_files[:10]:
            oracle.reset()
            explain(corpus_file.program, oracle=oracle)
            fired += oracle.injected["crash"]
        assert fired > 0

    def test_snapshot_poisoning_triggers_self_heal(self):
        # A file whose failing declaration comes *after* a passing prefix,
        # so the searcher arms a snapshot for the poison to corrupt.
        source = "let x = 1\nlet y = x + true"
        plan = standard_fault_plans()["snapshot-poison"]
        oracle = ChaosOracle(plan)
        result = explain(source, oracle=oracle)
        assert oracle.injected["snapshot"] == 1
        assert oracle.prefix_fallbacks >= 1
        assert REASON_FALLBACK in result.degradation.reasons
        assert result.suggestions  # healed, then found the real answer

    def test_cache_corruption_keeps_outcomes_well_formed(self, corpus_files):
        plan = standard_fault_plans()["cache-corruption"]
        oracle = ChaosOracle(plan, cache=True)
        corrupted = 0
        for corpus_file in corpus_files[:10]:
            oracle.reset()
            result = explain(corpus_file.program, oracle=oracle)
            _assert_well_formed(result, oracle)
            corrupted += oracle.injected["cache"]
        assert corrupted > 0


class TestDeterminism:
    def test_same_plan_same_program_replays_identically(self, corpus_files):
        plan = standard_fault_plans()["crash-every-3"]
        oracle = ChaosOracle(plan, cache=True)
        runs = []
        for _ in range(2):
            oracle.reset()
            result = explain(corpus_files[0].program, oracle=oracle)
            runs.append(
                (
                    [render_suggestion(s) for s in result.suggestions],
                    dict(oracle.injected),
                    oracle.calls,
                    result.degradation.reasons,
                )
            )
        assert runs[0] == runs[1]


class TestTransparency:
    """With the empty plan, ChaosOracle must be invisible."""

    def test_empty_plan_matches_plain_explain(self, corpus_files):
        for corpus_file in corpus_files[:10]:
            plain = explain(corpus_file.program)
            chaotic = explain(
                corpus_file.program, oracle=ChaosOracle(FaultPlan())
            )
            assert chaotic.ok == plain.ok
            assert [render_suggestion(s) for s in chaotic.suggestions] == [
                render_suggestion(s) for s in plain.suggestions
            ]
            assert chaotic.oracle_calls == plain.oracle_calls
            assert not chaotic.degraded

    def test_empty_plan_injects_nothing(self, corpus_files):
        oracle = ChaosOracle(FaultPlan())
        explain(corpus_files[0].program, oracle=oracle)
        assert oracle.injected == {
            "crash": 0, "latency": 0, "cache": 0, "snapshot": 0, "stale": 0,
        }


class TestLatencyAndDeadlines:
    def test_injected_latency_blows_the_deadline(self):
        # Each check sleeps 20ms against a 10ms deadline: the very first
        # post-sleep tick must degrade the search, not hang or raise.
        plan = FaultPlan(name="slow", latency_every=1, latency_seconds=0.02)
        oracle = ChaosOracle(plan)
        result = explain(
            "let x = 1\nlet y = x + true",
            oracle=oracle,
            deadline_seconds=0.01,
        )
        assert result.ok is False
        assert REASON_DEADLINE in result.degradation.reasons
        assert oracle.injected["latency"] >= 1

    def test_injected_sleep_is_swappable(self):
        slept = []
        plan = FaultPlan(name="slow", latency_every=1, latency_seconds=5.0)
        oracle = ChaosOracle(plan, sleep=slept.append)
        explain("let x = 1 + true", oracle=oracle)
        assert slept and all(s == 5.0 for s in slept)


class TestPoisonedSnapshotObject:
    def test_poison_preserves_matches_but_explodes_elsewhere(self):
        from repro.faults import _PoisonedSnapshot

        class Snap:
            env = "secret"

            def matches(self, program):
                return True

        poisoned = _PoisonedSnapshot(Snap())
        assert poisoned.matches(None) is True
        with pytest.raises(SnapshotPoisoned):
            poisoned.env


class TestStaleDeclTable:
    """The `stale-decl-table` plan: a poisoned outcome table may only ever
    cost speed.  Every planned replay must refuse its fingerprint
    verification and re-check for real — same suggestions, same ranks,
    nonzero ``oracle.decl.degraded``, zero wrong answers."""

    def test_degrades_to_full_checks_never_lies(self, corpus_files):
        from repro.obs.metrics import MetricsRegistry

        plan = standard_fault_plans()["stale-decl-table"]
        degraded = 0
        stale_fired = 0
        for corpus_file in corpus_files[:10]:
            metrics = MetricsRegistry()
            oracle = ChaosOracle(plan, metrics=metrics)
            chaotic = explain(corpus_file.program, oracle=oracle)
            plain = explain(corpus_file.program)
            assert chaotic.ok == plain.ok
            assert [render_suggestion(s) for s in chaotic.suggestions] == [
                render_suggestion(s) for s in plain.suggestions
            ]
            assert chaotic.oracle_calls == plain.oracle_calls
            # Staling a table is pure telemetry loss, not degradation in
            # the search-outcome sense (no budget, crash, or deadline hit).
            assert not chaotic.degraded
            assert metrics.value("oracle.decl.replayed") == 0
            degraded += metrics.value("oracle.decl.degraded")
            stale_fired += oracle.injected["stale"]
        assert stale_fired > 0
        assert degraded > 0
