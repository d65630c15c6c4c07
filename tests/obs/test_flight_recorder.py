"""Flight-recorder integration: cross-process aggregation and lifecycle
events from real searches.

The acceptance bar for the telemetry aggregation is *counter identity*:
for every corpus program, the metrics snapshot a batch worker ships home
with its :class:`~repro.core.seminal.BatchEntry` must be byte-identical to
the registry of a serial ``explain`` of the same program.
"""

import io
import os

import pytest

from repro.core.seminal import explain, explain_many
from repro.corpus import generate_corpus
from repro.faults import ChaosOracle, standard_fault_plans
from repro.obs import EventLog, MetricsRegistry, events_of, read_events

CORPUS = generate_corpus(scale=0.15, seed=11)


@pytest.fixture(scope="module")
def batch_entries():
    """One two-worker batch over every corpus representative, each entry
    carrying the metrics snapshot of the worker that searched it."""
    programs = [f.program for f in CORPUS.representatives]
    return explain_many(programs, jobs=2, collect_metrics=True)


class TestBatchCounterIdentity:
    @pytest.mark.parametrize(
        "index", range(len(CORPUS.representatives)),
        ids=[
            f"{f.programmer}-{f.assignment}-{i}"
            for i, f in enumerate(CORPUS.representatives)
        ],
    )
    def test_batch_counters_byte_identical_to_serial(self, batch_entries, index):
        registry = MetricsRegistry()
        outcome = explain(CORPUS.representatives[index].program, metrics=registry)
        entry = batch_entries[index]
        assert entry.metrics["counters"] == registry.counters()
        assert entry.oracle_calls == outcome.oracle_calls

    def test_worker_snapshots_compare_real_work(self, batch_entries):
        # The dicts are non-trivial — the assertions above compared real
        # work, shipped home from worker processes.
        assert os.getpid() not in {e.worker_pid for e in batch_entries}
        for entry in batch_entries:
            counters = entry.metrics["counters"]
            assert counters.get("oracle.calls")
            assert any(k.startswith("search.") for k in counters)
            assert any(k.startswith("enum.") for k in counters)


class TestLifecycleEvents:
    def explain_events(self, program: str, **kwargs) -> list:
        sink = io.StringIO()
        events = EventLog(sink)
        explain(program, events=events, label="test.ml", **kwargs)
        events.close()
        return read_events(sink.getvalue().splitlines())

    def test_search_lifecycle_events(self):
        events = self.explain_events(CORPUS.representatives[0].program)
        assert events_of(events, "search_started")
        finished = events_of(events, "search_finished")
        assert len(finished) == 1
        assert finished[0]["label"] == "test.ml"
        assert finished[0]["oracle_calls"] > 0
        assert events_of(events, "suggestions")

    def test_deadline_run_emits_degraded_event(self):
        events = self.explain_events(
            CORPUS.representatives[0].program, deadline_seconds=1e-9
        )
        reasons = {e["reason"] for e in events_of(events, "degraded")}
        assert "deadline" in reasons
        assert events_of(events, "search_finished")[0]["degraded"] is True


#: What each standard fault plan must leave in the event log.  The
#: latency and cache-corruption plans do not degrade a search by
#: themselves, so they run under a tiny deadline — the deterministic way
#: to make the flight recorder show *something* for them too.
FAULT_PLAN_EXPECTATIONS = {
    "crash-every-1": ("oracle_crash", {}),
    "crash-every-3": ("oracle_crash", {}),
    "recursion-crash": ("oracle_crash", {}),
    "snapshot-poison": ("degraded", {}),
    "latency": ("degraded", {"deadline_seconds": 1e-9}),
    "cache-corruption": ("degraded", {"deadline_seconds": 1e-9}),
    # Staling the decl outcome table is deliberately event-silent (the
    # depprune on/off event logs must stay byte-identical); it surfaces
    # through the oracle.decl.degraded counter instead, asserted by the
    # chaos suite.  Here the tiny-deadline trick applies as above.
    "stale-decl-table": ("degraded", {"deadline_seconds": 1e-9}),
}


class TestFaultPlanEvents:
    """Satellite (c): every chaos plan shows up in the event log."""

    @pytest.mark.parametrize("plan_name", sorted(standard_fault_plans()))
    def test_plan_yields_matching_event(self, plan_name):
        assert plan_name in FAULT_PLAN_EXPECTATIONS, (
            f"new fault plan {plan_name!r}: declare which event it must emit"
        )
        expected_type, extra_kwargs = FAULT_PLAN_EXPECTATIONS[plan_name]
        plan = standard_fault_plans()[plan_name]
        # A prefix that typechecks (so snapshots arm) then a real error.
        source = "let x = 1\nlet y = x + true"
        sink = io.StringIO()
        events = EventLog(sink)
        oracle = ChaosOracle(plan, cache=True)
        explain(source, oracle=oracle, events=events, **extra_kwargs)
        events.close()
        parsed = read_events(sink.getvalue().splitlines())
        matching = events_of(parsed, expected_type)
        assert matching, (
            f"plan {plan_name} produced no {expected_type!r} event; "
            f"got {[e['type'] for e in parsed]}"
        )

    def test_crash_event_carries_traceback_sample(self):
        plan = standard_fault_plans()["crash-every-1"]
        sink = io.StringIO()
        events = EventLog(sink)
        explain(
            "let x = 1\nlet y = x + true",
            oracle=ChaosOracle(plan),
            events=events,
        )
        events.close()
        crashes = events_of(read_events(sink.getvalue().splitlines()), "oracle_crash")
        assert crashes
        assert "injected oracle crash" in crashes[0]["error"]
