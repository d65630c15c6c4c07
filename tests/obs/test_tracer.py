"""Tests for the structured tracer (spans, events, Chrome/Perfetto JSON)."""

import json

import pytest

from repro.obs import NULL_TRACER, MetricsRegistry, NullTracer, Tracer, format_path


class TestSpans:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("work", path="decls[0]"):
            pass
        [event] = tracer.events
        assert event["name"] == "work"
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["args"]["path"] == "decls[0]"

    def test_spans_nest_and_close_in_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            assert tracer.open_spans == 1
            with tracer.span("inner"):
                assert tracer.open_spans == 2
            assert tracer.open_spans == 1
        assert tracer.open_spans == 0
        # Events are emitted at close: inner first.
        assert [e["name"] for e in tracer.events] == ["inner", "outer"]
        inner, outer = tracer.events
        # The inner span's interval sits within the outer's.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_span_set_attaches_args_mid_span(self):
        tracer = Tracer()
        with tracer.span("work") as sp:
            sp.set("oracle_calls", 42)
        assert tracer.events[0]["args"]["oracle_calls"] == 42

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert tracer.open_spans == 0
        names = {e["name"]: e for e in tracer.events}
        assert names["inner"]["args"]["aborted"] == "ValueError"
        assert names["outer"]["args"]["aborted"] == "ValueError"

    def test_spans_filter_by_name(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [e["name"] for e in tracer.spans("a")] == ["a"]
        assert len(tracer.spans()) == 2

    def test_reset(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.events == []
        assert tracer.open_spans == 0


class TestSerialization:
    def test_trace_json_round_trips(self):
        tracer = Tracer()
        with tracer.span("search", decls=2):
            with tracer.span("descend", path="decls[0]", size=7):
                pass
        parsed = json.loads(tracer.to_json())
        assert isinstance(parsed["traceEvents"], list)
        assert len(parsed["traceEvents"]) == 2
        for event in parsed["traceEvents"]:
            # The keys Perfetto's Chrome-format importer requires.
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)

    def test_write_produces_loadable_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        out = tmp_path / "trace.json"
        tracer.write(out)
        data = json.loads(out.read_text())
        assert data["traceEvents"]
        assert data["displayTimeUnit"] == "ms"

    def test_non_json_args_are_stringified(self):
        tracer = Tracer()
        with tracer.span("work", obj=object()):
            pass
        json.loads(tracer.to_json())  # must not raise


class TestMetricsBridge:
    def test_closed_spans_observe_duration_histograms(self):
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry)
        with tracer.span("descend"):
            pass
        values = registry.values_of("span.descend.seconds")
        assert len(values) == 1
        assert values[0] >= 0

    def test_keep_events_false_still_feeds_metrics(self):
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry, keep_events=False)
        with tracer.span("descend"):
            pass
        assert tracer.events == []
        assert registry.histogram("span.descend.seconds").count == 1
        # Metrics-only tracers advertise that span labels are not worth
        # computing.
        assert tracer.enabled is False


class TestNullTracer:
    def test_singleton_span_is_reused(self):
        a = NULL_TRACER.span("x", arg=1)
        b = NULL_TRACER.span("y")
        assert a is b  # one shared object: no allocation per span

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("work") as sp:
            sp.set("k", "v")
        assert NULL_TRACER.events == []
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.open_spans == 0
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)

    def test_null_span_swallows_nothing(self):
        # The null span must not suppress exceptions.
        with pytest.raises(RuntimeError):
            with NULL_TRACER.span("work"):
                raise RuntimeError("boom")


class TestFormatPath:
    def test_mixed_steps(self):
        assert format_path((("decls", 0), ("bindings", 1), "expr")) == \
            "decls[0].bindings[1].expr"

    def test_root(self):
        assert format_path(()) == "<root>"
