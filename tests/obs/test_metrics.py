"""Tests for the metrics registry (counters, histograms, rendering)."""

import pytest

from repro.obs import DEFAULT_BUCKETS, NULL_METRICS, MetricsRegistry, NullMetrics
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
        reg.incr("oracle.cache.hits")
        reg.incr("search.prefix_tests")
        assert set(reg.counters("oracle.")) == {"oracle.calls", "oracle.cache.hits"}


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

    def test_percentile(self):
        reg = MetricsRegistry()
        for v in range(1, 101):
            reg.observe("t", v)
        assert reg.histogram("t").percentile(0.5) == pytest.approx(50, abs=1)
        assert reg.histogram("t").percentile(1.0) == 100

    def test_empty_histogram_stats(self):
        h = MetricsRegistry().histogram("t")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(0.5) == 0.0

    def test_histogram_names(self):
        reg = MetricsRegistry()
        reg.observe("span.a.seconds", 1)
        reg.observe("other", 1)
        assert reg.histogram_names("span.") == ["span.a.seconds"]


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

    def test_merge_folds_counts_and_samples(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.incr("c", 1)
        b.incr("c", 2)
        b.observe("h", 4)
        a.merge(b)
        assert a.value("c") == 3
        assert a.values_of("h") == [4.0]


class TestHistogramBuckets:
    def test_default_buckets_shared(self):
        h = Histogram("t")
        assert h.buckets == DEFAULT_BUCKETS

    def test_bucket_counts_length(self):
        h = Histogram("t")
        assert len(h.bucket_counts()) == len(h.buckets) + 1

    def test_bucket_counts_are_cumulative(self):
        h = Histogram("t", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.bucket_counts() == [1, 3, 4, 5]

    def test_bucket_boundary_is_inclusive(self):
        h = Histogram("t", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.bucket_counts() == [1, 1, 1]

    def test_empty_bucket_counts(self):
        h = Histogram("t", buckets=(1.0,))
        assert h.bucket_counts() == [0, 0]


class TestHistogramQuantile:
    def test_empty_is_zero(self):
        assert Histogram("t").quantile(0.5) == 0.0

    def test_single_sample_is_that_sample(self):
        h = Histogram("t")
        h.observe(7.25)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 7.25

    def test_interpolates_between_order_statistics(self):
        h = Histogram("t")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.quantile(0.5) == pytest.approx(2.5)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 4.0

    def test_clamps_out_of_range(self):
        h = Histogram("t")
        h.observe(1.0)
        h.observe(2.0)
        assert h.quantile(-1.0) == 1.0
        assert h.quantile(2.0) == 2.0

    def test_order_independent(self):
        a, b = Histogram("a"), Histogram("b")
        for v in (5.0, 1.0, 3.0):
            a.observe(v)
        for v in (1.0, 3.0, 5.0):
            b.observe(v)
        assert a.quantile(0.9) == b.quantile(0.9)


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

        # ((a+b)+c) vs (a+(b+c)) — same multiset, same stats and buckets.
        left = build(1.0, 2.0)
        left.merge(build(3.0))
        left.merge(build(0.001, 9.0))

        bc = build(3.0)
        bc.merge(build(0.001, 9.0))
        right = build(1.0, 2.0)
        right.merge(bc)

        assert sorted(left.values) == sorted(right.values)
        assert left.bucket_counts() == right.bucket_counts()
        assert left.quantile(0.5) == right.quantile(0.5)

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
        a, b = MetricsRegistry(), MetricsRegistry()
        snap = {"counters": {"z": 1, "a": 2}, "histograms": {"h": [1.0]}}
        a.merge_snapshot(snap)
        b.merge_snapshot({"counters": {"a": 2, "z": 1}, "histograms": {"h": [1.0]}})
        assert a.counters() == b.counters()


class TestHistogramSampleCap:
    """Bounded retention: exact scalars forever, capped raw samples."""

    def _full(self, cap=8, extra=4):
        h = Histogram("t", buckets=(1.0, 10.0), sample_cap=cap)
        for i in range(cap + extra):
            h.observe(float(i))
        return h

    def test_scalars_exact_past_cap(self):
        h = self._full(cap=8, extra=4)
        assert h.count == 12
        assert h.total == sum(float(i) for i in range(12))
        assert h.min == 0.0
        assert h.max == 11.0
        assert h.mean == h.total / 12

    def test_bucket_counts_exact_past_cap(self):
        h = self._full(cap=8, extra=4)
        # values 0..11 against bounds (1.0, 10.0): 2 at <=1, 9 at <=10.
        assert h.bucket_counts() == [2, 11, 12]
        assert h.bucket_counts()[-1] == h.count

    def test_samples_are_first_k_and_deterministic(self):
        h = self._full(cap=8, extra=4)
        assert h.values == [float(i) for i in range(8)]
        assert h.truncated
        assert not Histogram("u").truncated

    def test_values_is_a_copy(self):
        h = Histogram("t")
        h.observe(1.0)
        h.values.append(99.0)
        assert h.values == [1.0]

    def test_quantile_approximate_past_cap(self):
        h = self._full(cap=8, extra=100)
        # Quantiles come from the retained prefix — bounded, not exact.
        assert h.quantile(1.0) == 7.0
        assert h.max == 107.0

    def test_merge_truncates_associatively(self):
        def make(lo, n):
            h = Histogram("t", sample_cap=4)
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

        assert left.values == right.values == [0.0, 1.0, 2.0, 10.0]
        assert left.count == right.count == 9
        assert left.total == right.total
        assert left.max == right.max == 22.0
        assert left.bucket_counts() == right.bucket_counts()

    def test_merge_empty_keeps_extremes(self):
        h = Histogram("t")
        h.observe(5.0)
        h.merge(Histogram("other"))
        assert (h.count, h.min, h.max) == (1, 5.0, 5.0)

    def test_snapshot_roundtrip_untruncated_is_plain_list(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        reg.observe("h", 2.0)
        snap = reg.snapshot()
        assert snap["histograms"]["h"] == [1.0, 2.0]  # legacy wire shape
        other = MetricsRegistry()
        other.merge_snapshot(snap)
        assert other.values_of("h") == [1.0, 2.0]
        assert other.histogram("h").count == 2

    def test_snapshot_roundtrip_truncated_keeps_exact_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.sample_cap = 4
        for i in range(10):
            h.observe(float(i))
        snap = reg.snapshot()
        data = snap["histograms"]["h"]
        assert isinstance(data, dict)
        assert data["count"] == 10

        other = MetricsRegistry()
        other.merge_snapshot(snap)
        merged = other.histogram("h")
        assert merged.count == 10
        assert merged.total == h.total
        assert merged.max == 9.0
        assert merged.bucket_counts() == h.bucket_counts()

    def test_merge_snapshot_legacy_list_shape(self):
        # Old writers shipped bare sample lists; they must still merge.
        reg = MetricsRegistry()
        reg.merge_snapshot({"counters": {}, "histograms": {"h": [0.5, 2.0]}})
        assert reg.histogram("h").count == 2
        assert reg.values_of("h") == [0.5, 2.0]


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
