"""Acceptance tests for failing store I/O.

**Flaky store I/O** — an ``OSError`` on a verdict-store segment read or
publish degrades at once to a cache miss; cold and warm runs stay
byte-identical, nothing escapes ``explain``, and every failure is
counted on the search it happened in.
"""

from __future__ import annotations

import pytest

from repro.core import explain, explain_many
from repro.core.messages import render_suggestion
from repro.faults import FlakyStore
from repro.obs import MetricsRegistry
from repro.obs.events import EventLog, read_events
from repro.store import verdicts

FIG2 = """\
let map2 f aList bList =
  List.map (fun (a, b) -> f a b) (List.combine aList bList)
let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]
"""


@pytest.fixture
def publish_per_verdict(monkeypatch):
    """One segment write per stored verdict, so an every-2nd-operation
    failure schedule actually fires mid-run."""
    monkeypatch.setattr(verdicts, "FLUSH_EVERY", 1)


def _rendered(result):
    return [render_suggestion(s) for s in result.suggestions]


class TestFlakyStoreIO:
    def test_cold_run_with_flaky_store_matches_storeless(
        self, tmp_path, publish_per_verdict
    ):
        plain = explain(FIG2)
        store = FlakyStore(tmp_path / "store", fail_every=2)
        flaky = explain(FIG2, store=store)
        store.close()
        assert store.injected_io_failures > 0
        assert _rendered(flaky) == _rendered(plain)
        assert flaky.oracle_calls == plain.oracle_calls

    def test_warm_run_matches_cold_under_flaky_io(
        self, tmp_path, publish_per_verdict
    ):
        path = tmp_path / "store"
        cold_store = FlakyStore(path, fail_every=2)
        cold = explain(FIG2, store=cold_store)
        cold_store.close()
        warm_store = FlakyStore(path, fail_every=2)
        warm = explain(FIG2, store=warm_store)
        warm_store.close()
        assert _rendered(warm) == _rendered(cold)
        assert warm.ok == cold.ok

    def test_failed_reads_degrade_to_cache_misses(
        self, tmp_path, publish_per_verdict
    ):
        """Every read failing skips every segment (cache misses), never
        a raise, and the answer is the store-less one."""
        path = tmp_path / "store"
        with FlakyStore(path, fail_every=10**9) as seed_store:
            explain(FIG2, store=seed_store)  # clean seed run, segments real
        store = FlakyStore(path, fail_every=1, fail_writes=False)
        assert store.io_errors >= 1
        assert store.skipped_segments == store.injected_io_failures
        assert len(store) == 0
        result = explain(FIG2, store=store)
        store.close()
        assert _rendered(result) == _rendered(explain(FIG2))

    def test_failed_reads_at_open_count_on_the_first_search(self, tmp_path):
        path = tmp_path / "store"
        with FlakyStore(path, fail_every=10**9) as seed_store:
            explain(FIG2, store=seed_store)
        store = FlakyStore(path, fail_every=1, fail_writes=False)
        registry = MetricsRegistry()
        explain(FIG2, store=store, metrics=registry)
        assert registry.value("oracle.store.io_errors") == store.skipped_segments > 0

    def test_store_io_errors_reach_oracle_metrics(
        self, tmp_path, publish_per_verdict
    ):
        registry = MetricsRegistry()
        store = FlakyStore(tmp_path / "store", fail_every=2)
        explain(FIG2, store=store, metrics=registry)
        store.close()
        assert registry.value("oracle.store.io_errors") > 0


class TestFailedEndOfSearchPublish:
    """``explain`` publishes a search's verdicts after the search; when
    that publish fails, the failure counts on that search."""

    def test_counted_in_the_searchs_metrics_and_events(self, tmp_path):
        registry = MetricsRegistry()
        log_path = tmp_path / "events.jsonl"
        store = FlakyStore(tmp_path / "store", fail_every=1, fail_reads=False)
        with EventLog(log_path) as events:
            explain(FIG2, store=store, metrics=registry, events=events)
        assert registry.value("oracle.store.writes") > 0
        assert registry.value("oracle.store.io_errors") == 1
        failures = [e for e in read_events(log_path) if e["type"] == "store_io_error"]
        assert [e["errors"] for e in failures] == [1]
        assert store.injected_io_failures == 1  # the end-of-search publish

    def test_counted_on_the_batch_file_whose_publish_failed(self, tmp_path):
        store = FlakyStore(tmp_path / "store", fail_every=1, fail_reads=False)
        second = "let f x = x + 1\nlet b = f true\n"
        entries = explain_many([FIG2, second], store=store, collect_metrics=True)
        counts = []
        for entry in entries:
            registry = MetricsRegistry()
            registry.merge_snapshot(entry.metrics)
            counts.append(registry.value("oracle.store.io_errors"))
        assert counts == [1, 1]
        assert store.injected_io_failures == 2  # one publish per file
