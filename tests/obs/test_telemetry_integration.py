"""End-to-end telemetry: the instrumented pipeline feeding obs correctly."""

import json

import pytest

from repro.core import explain
from repro.cpptemplates import explain_cpp
from repro.obs import MetricsRegistry, Tracer

FIG2 = """
let map2 f aList bList =
  List.map (fun (a, b) -> f a b) (List.combine aList bList)
let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]
"""

MULTI = 'let f a = (a + true) + (4 + "hi") + (a + false)'

CPP_BAD = """
void myFun(vector<long>& inv, vector<long>& outv) {
    transform(inv.begin(), inv.end(), outv.begin(),
              compose1(bind1st(multiplies<long>(), 5), labs));
}
"""


class TestMetricsAgreement:
    def test_registry_matches_oracle_counter(self):
        registry = MetricsRegistry()
        result = explain(FIG2, metrics=registry)
        assert registry.value("oracle.calls") == result.oracle_calls
        assert (
            registry.value("oracle.calls.ok") + registry.value("oracle.calls.fail")
            == result.oracle_calls
        )

    def test_phase_counters_match_search_stats(self):
        registry = MetricsRegistry()
        result = explain(MULTI, metrics=registry)
        stats = result.stats
        assert registry.value("search.prefix_tests") == stats.prefix_tests
        assert registry.value("search.removal_tests") == stats.removal_tests
        assert registry.value("search.constructive_tests") == stats.constructive_tests
        assert registry.value("search.adaptation_tests") == stats.adaptation_tests
        assert registry.value("search.triage_tests") == stats.triage_tests

    def test_generated_at_least_tested_per_rule(self):
        registry = MetricsRegistry()
        explain(FIG2, metrics=registry)
        tested = registry.counters("enum.tested.")
        for name, count in tested.items():
            rule = name[len("enum.tested."):]
            assert registry.value(f"enum.generated.{rule}") >= count

    def test_suggestions_ranked_counted(self):
        registry = MetricsRegistry()
        result = explain(FIG2, metrics=registry)
        assert registry.value("rank.suggestions_ranked") == len(result.suggestions)

    def test_explain_result_carries_registry(self):
        registry = MetricsRegistry()
        result = explain(FIG2, metrics=registry)
        assert result.metrics is registry



class TestTraceShape:
    def test_trace_covers_every_search_phase(self):
        tracer = Tracer()
        explain(MULTI, tracer=tracer)
        names = {e["name"] for e in tracer.spans()}
        assert {"parse", "search", "localize", "descend", "enumerate",
                "adapt", "triage", "rank"} <= names

    def test_descend_spans_carry_path_size_and_calls(self):
        tracer = Tracer()
        explain(FIG2, tracer=tracer)
        descends = tracer.spans("descend")
        assert descends
        for span in descends:
            assert "path" in span["args"]
            assert span["args"]["size"] >= 1
            assert span["args"]["oracle_calls"] >= 0

    def test_trace_json_round_trips_through_json_loads(self):
        tracer = Tracer()
        explain(FIG2, tracer=tracer)
        parsed = json.loads(tracer.to_json())
        assert parsed["traceEvents"]
        names = {e["name"] for e in parsed["traceEvents"]}
        assert "search" in names

    def test_all_spans_closed_after_search(self):
        tracer = Tracer()
        explain(MULTI, tracer=tracer)
        assert tracer.open_spans == 0


class TestBudgetExceeded:
    def test_spans_close_when_budget_exhausts_mid_search(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        result = explain(MULTI, max_oracle_calls=10, tracer=tracer, metrics=registry)
        assert result.budget_exhausted
        assert tracer.open_spans == 0
        # The abort is visible on at least one span.
        aborted = [e for e in tracer.spans() if e["args"].get("aborted")]
        assert any(e["args"]["aborted"] == "BudgetExceeded" for e in aborted)
        assert registry.value("oracle.budget_exceeded") == 1
        # The search span itself still closed normally (budget is caught).
        assert tracer.spans("search")

    def test_budget_metrics_stay_consistent(self):
        registry = MetricsRegistry()
        result = explain(MULTI, max_oracle_calls=10, metrics=registry)
        assert registry.value("oracle.calls") == result.oracle_calls == 10


class TestNullPathBehaviour:
    def test_default_explain_uses_null_telemetry(self):
        result = explain(FIG2)
        assert result.metrics is None

    def test_default_matches_instrumented_output(self):
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry)
        plain = explain(FIG2)
        traced = explain(FIG2, tracer=tracer, metrics=registry)
        assert plain.ok == traced.ok
        assert plain.oracle_calls == traced.oracle_calls
        assert plain.render() == traced.render()


class TestCppTelemetry:
    def test_cpp_registry_matches_checker_calls(self):
        registry = MetricsRegistry()
        result = explain_cpp(CPP_BAD, metrics=registry)
        assert not result.ok
        assert registry.value("cpp.checker_calls") == result.checker_calls

    def test_cpp_trace_has_phases_and_closes(self):
        tracer = Tracer()
        result = explain_cpp(CPP_BAD, tracer=tracer)
        assert not result.ok
        names = {e["name"] for e in tracer.spans()}
        assert {"cpp.parse", "cpp.search", "cpp.localize",
                "cpp.enumerate", "cpp.test"} <= names
        assert tracer.open_spans == 0
        json.loads(tracer.to_json())

    def test_cpp_per_rule_accounting(self):
        registry = MetricsRegistry()
        explain_cpp(CPP_BAD, metrics=registry)
        assert registry.value("cpp.enum.success.wrap-ptr-fun") >= 1
        tested = registry.counters("cpp.enum.tested.")
        assert sum(tested.values()) == registry.value("cpp.checker_calls") - 1
