"""Tests for the metrics registry (counters, histograms, rendering)."""

import pytest

from repro.obs import NULL_METRICS, MetricsRegistry, NullMetrics, Tracer
from repro.obs import metrics as metrics_module
from repro.obs.metrics import Histogram


class TestCounters:
    def test_incr_defaults_to_one(self):
        reg = MetricsRegistry()
        reg.incr("a")
        reg.incr("a")
        assert reg.value("a") == 2

    def test_incr_by_n(self):
        reg = MetricsRegistry()
        reg.incr("a", 5)
        assert reg.value("a") == 5

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().value("nope") == 0

    def test_counter_object_is_shared(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.incr()
        assert reg.value("x") == 1

    def test_counters_prefix_filter(self):
        reg = MetricsRegistry()
        reg.incr("oracle.calls")
        reg.incr("oracle.store.hits")
        reg.incr("search.prefix_tests")
        assert set(reg.counters("oracle.")) == {"oracle.calls", "oracle.store.hits"}


class TestHistograms:
    def test_observe_and_stats(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("t", v)
        h = reg.histogram("t")
        assert h.count == 3
        assert h.total == 6.0
        assert h.mean == 2.0
        assert h.min == 1.0
        assert h.max == 3.0

    def test_values_preserve_order(self):
        reg = MetricsRegistry()
        reg.observe("t", 3)
        reg.observe("t", 1)
        assert reg.values_of("t") == [3.0, 1.0]

    def test_empty_histogram_stats(self):
        h = MetricsRegistry().histogram("t")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.values == []

    def test_histogram_names(self):
        reg = MetricsRegistry()
        reg.observe("span.a.seconds", 1)
        reg.observe("other", 1)
        assert reg.histogram_names("span.") == ["span.a.seconds"]


class TestSpanSeconds:
    def test_totals_per_span_name(self):
        reg = MetricsRegistry()
        reg.observe("span.search.seconds", 0.25)
        reg.observe("span.search.seconds", 0.5)
        reg.observe("span.parse.seconds", 0.125)
        reg.observe("triage.depth", 3)
        assert reg.span_seconds() == {"parse": 0.125, "search": 0.75}

    def test_empty_without_a_tracer(self):
        reg = MetricsRegistry()
        reg.incr("oracle.calls")
        assert reg.span_seconds() == {}
        assert NULL_METRICS.span_seconds() == {}

    def test_fed_by_a_tracer(self):
        reg = MetricsRegistry()
        tracer = Tracer(metrics=reg, keep_events=False)
        with tracer.span("search"):
            with tracer.span("localize"):
                pass
        spans = reg.span_seconds()
        assert set(spans) == {"search", "localize"}
        assert spans["search"] >= spans["localize"] >= 0.0


class TestRendering:
    def test_as_dict_flattens_both_kinds(self):
        reg = MetricsRegistry()
        reg.incr("calls", 3)
        reg.observe("seconds", 0.5)
        flat = reg.as_dict()
        assert flat["calls"] == 3
        assert flat["seconds.count"] == 1
        assert flat["seconds.total"] == 0.5

    def test_render_table_lists_every_metric(self):
        reg = MetricsRegistry()
        reg.incr("oracle.calls", 7)
        text = reg.render_table()
        assert "oracle.calls" in text
        assert "7" in text

    def test_render_table_empty(self):
        assert "(empty)" in MetricsRegistry().render_table()

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.incr("a")
        reg.observe("b", 1)
        reg.reset()
        assert reg.as_dict() == {}

    def test_merge_snapshot_folds_counts_and_samples(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.incr("c", 1)
        a.observe("h", 1)
        b.incr("c", 2)
        b.observe("h", 4)
        a.merge_snapshot(b.snapshot())
        assert a.value("c") == 3
        assert a.values_of("h") == [1.0, 4.0]


class TestHistogramMerge:
    def test_merge_folds_samples(self):
        a, b = Histogram("a"), Histogram("b")
        a.observe(1.0)
        b.observe(2.0)
        a.merge(b)
        assert a.count == 2
        assert a.total == 3.0

    def test_merge_is_associative(self):
        def build(*samples):
            h = Histogram("h")
            for s in samples:
                h.observe(s)
            return h

        # ((a+b)+c) vs (a+(b+c)) — same samples, same stats.
        left = build(1.0, 2.0)
        left.merge(build(3.0))
        left.merge(build(0.001, 9.0))

        bc = build(3.0)
        bc.merge(build(0.001, 9.0))
        right = build(1.0, 2.0)
        right.merge(bc)

        assert left.values == right.values
        assert (left.count, left.total, left.min, left.max) == (
            right.count, right.total, right.min, right.max
        )

    def test_merge_empty_is_identity(self):
        h = Histogram("h")
        h.observe(1.0)
        h.merge(Histogram("other"))
        assert h.values == [1.0]


class TestSnapshotTransport:
    def test_snapshot_roundtrip(self):
        reg = MetricsRegistry()
        reg.incr("oracle.calls", 3)
        reg.observe("span.x.seconds", 0.5)
        other = MetricsRegistry()
        other.merge_snapshot(reg.snapshot())
        assert other.value("oracle.calls") == 3
        assert other.values_of("span.x.seconds") == [0.5]

    def test_snapshot_is_plain_data(self):
        import json

        reg = MetricsRegistry()
        reg.incr("a")
        reg.observe("b", 1.5)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_merge_snapshot_is_deterministic_order(self):
        h = {"count": 1, "sum": 1.0, "min": 1.0, "max": 1.0, "samples": [1.0]}
        a, b = MetricsRegistry(), MetricsRegistry()
        a.merge_snapshot({"counters": {"z": 1, "a": 2}, "histograms": {"h": h}})
        b.merge_snapshot({"counters": {"a": 2, "z": 1}, "histograms": {"h": h}})
        assert a.counters() == b.counters()
        assert a.values_of("h") == b.values_of("h") == [1.0]

    def test_empty_histogram_is_not_recreated(self):
        reg = MetricsRegistry()
        reg.histogram("h")  # touched, never observed
        other = MetricsRegistry()
        other.merge_snapshot(reg.snapshot())
        assert other.histogram_names() == []


class TestHistogramSampleCap:
    """Bounded retention: exact scalars forever, capped raw samples."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(metrics_module, "SAMPLE_CAP", 8)

    def _full(self, extra=4):
        h = Histogram("t")
        for i in range(8 + extra):
            h.observe(float(i))
        return h

    def test_scalars_exact_past_cap(self):
        h = self._full(extra=4)
        assert h.count == 12
        assert h.total == sum(float(i) for i in range(12))
        assert h.min == 0.0
        assert h.max == 11.0
        assert h.mean == h.total / 12

    def test_samples_are_first_k_and_deterministic(self):
        h = self._full(extra=4)
        assert h.values == [float(i) for i in range(8)]
        assert h.count > len(h.values)

    def test_values_is_a_copy(self):
        h = Histogram("t")
        h.observe(1.0)
        h.values.append(99.0)
        assert h.values == [1.0]

    def test_values_capped_but_extremes_exact(self):
        h = self._full(extra=100)
        # The curves come from the retained prefix; min/max stay exact.
        assert max(h.values) == 7.0
        assert h.max == 107.0

    def test_merge_truncates_associatively(self):
        def make(lo, n):
            h = Histogram("t")
            for i in range(lo, lo + n):
                h.observe(float(i))
            return h

        left = make(0, 3)
        left.merge(make(10, 3))
        left.merge(make(20, 3))

        tail = make(10, 3)
        tail.merge(make(20, 3))
        right = make(0, 3)
        right.merge(tail)

        assert left.values == right.values == [0.0, 1.0, 2.0, 10.0, 11.0, 12.0, 20.0, 21.0]
        assert left.count == right.count == 9
        assert left.total == right.total
        assert left.max == right.max == 22.0

    def test_merge_empty_keeps_extremes(self):
        h = Histogram("t")
        h.observe(5.0)
        h.merge(Histogram("other"))
        assert (h.count, h.min, h.max) == (1, 5.0, 5.0)

    def test_snapshot_roundtrip_below_cap(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        reg.observe("h", 2.0)
        snap = reg.snapshot()
        assert snap["histograms"]["h"] == {
            "count": 2, "sum": 3.0, "min": 1.0, "max": 2.0, "samples": [1.0, 2.0]
        }
        other = MetricsRegistry()
        other.merge_snapshot(snap)
        assert other.values_of("h") == [1.0, 2.0]
        assert other.histogram("h").count == 2

    def test_snapshot_roundtrip_past_cap_keeps_exact_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for i in range(10):
            h.observe(float(i))
        data = reg.snapshot()["histograms"]["h"]
        assert data["count"] == 10
        assert len(data["samples"]) == 8

        other = MetricsRegistry()
        other.merge_snapshot(reg.snapshot())
        merged = other.histogram("h")
        assert merged.count == 10
        assert merged.total == h.total
        assert merged.max == 9.0
        assert merged.values == h.values

    def test_bare_sample_list_is_not_a_snapshot(self):
        # One wire shape: the dict.  A bare sample list is rejected loudly.
        reg = MetricsRegistry()
        with pytest.raises(TypeError):
            reg.merge_snapshot({"counters": {}, "histograms": {"h": [0.5, 2.0]}})


class TestNullMetrics:
    def test_singleton_identity(self):
        assert NULL_METRICS is NULL_METRICS
        assert isinstance(NULL_METRICS, NullMetrics)
        assert NULL_METRICS.enabled is False

    def test_all_operations_are_noops(self):
        NULL_METRICS.incr("a", 5)
        NULL_METRICS.observe("b", 1.0)
        NULL_METRICS.counter("c").incr()
        assert NULL_METRICS.value("a") == 0
        assert NULL_METRICS.values_of("b") == []
        assert NULL_METRICS.as_dict() == {}
        assert NULL_METRICS.histogram_names() == []
        assert "(disabled)" in NULL_METRICS.render_table()
