"""Acceptance tests for retrying store I/O.

**Flaky store I/O** — transient ``OSError`` on verdict-store segment
reads/writes is retried and, when persistent, degrades to a cache miss;
cold and warm runs stay byte-identical and nothing escapes ``explain``.
"""

from __future__ import annotations

from repro.core import explain
from repro.core.messages import render_suggestion
from repro.faults import FlakyStore
from repro.obs import MetricsRegistry

FIG2 = """\
let map2 f aList bList =
  List.map (fun (a, b) -> f a b) (List.combine aList bList)
let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]
"""


class TestFlakyStoreIO:
    def test_cold_run_with_flaky_store_matches_storeless(self, tmp_path):
        plain = explain(FIG2)
        # flush_every=1: one segment write per stored verdict, so the
        # every-2nd-attempt failure schedule actually fires mid-run.
        store = FlakyStore(tmp_path / "store", fail_every=2, flush_every=1)
        flaky = explain(FIG2, store=store)
        store.close()
        assert store.injected_io_failures > 0
        assert [render_suggestion(s) for s in flaky.suggestions] == [
            render_suggestion(s) for s in plain.suggestions
        ]
        assert flaky.oracle_calls == plain.oracle_calls

    def test_warm_run_matches_cold_under_flaky_io(self, tmp_path):
        path = tmp_path / "store"
        cold_store = FlakyStore(path, fail_every=2, flush_every=1)
        cold = explain(FIG2, store=cold_store)
        cold_store.close()
        warm_store = FlakyStore(path, fail_every=2, flush_every=1)
        warm = explain(FIG2, store=warm_store)
        warm_store.close()
        assert [render_suggestion(s) for s in warm.suggestions] == [
            render_suggestion(s) for s in cold.suggestions
        ]
        assert warm.ok == cold.ok

    def test_retry_exhaustion_degrades_to_cache_miss(self, tmp_path):
        """A failure streak at the retry budget exhausts the retry: the
        read degrades to a skipped segment (cache miss), never a raise."""
        path = tmp_path / "store"
        with FlakyStore(path, fail_every=10**9, flush_every=1) as seed_store:
            explain(FIG2, store=seed_store)  # clean seed run, segments real
        # Streak of 3 >= the store policy's 3 attempts: first read fails
        # for good and the segment is skipped.
        store = FlakyStore(path, fail_every=1, fail_streak=3)
        assert store.io_errors >= 1
        assert store.skipped_segments >= 1
        result = explain(FIG2, store=store)  # still never raises
        store.close()
        plain = explain(FIG2)
        assert [render_suggestion(s) for s in result.suggestions] == [
            render_suggestion(s) for s in plain.suggestions
        ]

    def test_store_io_counters_reach_oracle_metrics(self, tmp_path):
        registry = MetricsRegistry()
        store = FlakyStore(
            tmp_path / "store", fail_every=2, flush_every=1
        )
        explain(FIG2, store=store, metrics=registry)
        store.close()
        assert (
            registry.value("oracle.store.retries")
            + registry.value("oracle.store.io_errors")
        ) > 0
