"""Unit tests for the verdict store's segment I/O under failure.

The store's contract under I/O faults is *degrade, never raise*, and a
failure is taken once, with no retry: a failed read skips that segment
for the session, and a failed publish keeps its verdicts pending (served
from memory) for the session's next publish.  Faults come from
:class:`repro.faults.FlakyStore`; ``fail_every=1`` fails every operation
of the chosen kind, a persistent failure such as a full disk.
"""

from __future__ import annotations

import pytest

from repro.core import Oracle
from repro.faults import FlakyStore
from repro.miniml.parser import parse_program
from repro.obs import MetricsRegistry
from repro.store import VerdictStore, verdicts


def _seed(path, *keys):
    with VerdictStore(path) as seed:
        for key in keys:
            assert seed.put(key, True)


class TestFailedReads:
    def test_failed_read_skips_the_segment(self, tmp_path):
        _seed(tmp_path / "s", "k")
        store = FlakyStore(tmp_path / "s", fail_every=1, fail_writes=False)
        assert len(store) == 0  # degraded to a cache miss
        assert store.injected_io_failures == 1  # tried once, not again
        assert store.io_errors == 1
        assert store.skipped_segments == 1
        store.refresh()  # a skipped segment stays skipped this session
        assert store.injected_io_failures == 1
        store.close()

    def test_a_failed_read_skips_only_its_segment(self, tmp_path):
        for key in ("a", "b", "c"):
            _seed(tmp_path / "s", key)  # one segment each
        # Every second read fails: one of the three segments is lost.
        store = FlakyStore(tmp_path / "s", fail_every=2, fail_writes=False)
        assert len(store) == 2
        assert store.skipped_segments == store.io_errors == 1


class TestFailedPublishes:
    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        store = FlakyStore(tmp_path / "s", fail_every=1, fail_reads=False)
        assert store.put("k", True)
        assert store.flush() is None  # dropped, not raised
        assert store.injected_io_failures == 1
        assert store.io_errors == 1
        # No half-written temp files left behind for the next run to skip.
        assert list((tmp_path / "s").glob(".tmp-*")) == []
        assert store.get("k").ok  # still served from memory

    def test_next_publish_lands_a_failed_publishs_verdicts(self, tmp_path):
        # Every second publish fails: the first lands, the second fails,
        # the third lands the failed one's verdicts under a fresh name.
        store = FlakyStore(tmp_path / "s", fail_every=2, fail_reads=False)
        store.put("a", True)
        assert store.flush() is not None
        store.put("b", False, "boom")
        assert store.flush() is None
        store.put("c", True)
        store.flush()
        assert store.io_errors == 1
        fresh = VerdictStore(tmp_path / "s")
        assert len(fresh) == 3
        assert fresh.get("b").err == "boom"
        assert len(list((tmp_path / "s").glob("seg-*"))) == 2

    def test_no_publish_storm_after_a_failed_auto_flush(self, tmp_path):
        store = FlakyStore(tmp_path / "s", fail_every=1, fail_reads=False)
        keys = [("k", i) for i in range(3 * verdicts.FLUSH_EVERY)]
        for key in keys:
            assert store.put(key, True)
        # One auto-flush per FLUSH_EVERY pending verdicts, never one per put.
        assert store.injected_io_failures <= 3
        assert all(store.get(key) is not None for key in keys)

    @pytest.mark.parametrize("flush_every", [1, 4])
    def test_auto_flush_retries_only_on_multiples(
        self, tmp_path, monkeypatch, flush_every
    ):
        monkeypatch.setattr(verdicts, "FLUSH_EVERY", flush_every)
        store = FlakyStore(tmp_path / "s", fail_every=1, fail_reads=False)
        attempted_at = []
        for n in range(1, 3 * flush_every + 1):
            before = store.injected_io_failures
            store.put(("k", n), True)
            if store.injected_io_failures > before:
                attempted_at.append(n)
        assert attempted_at == [flush_every, 2 * flush_every, 3 * flush_every]

    def test_a_later_auto_flush_lands_a_failed_ones_verdicts(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(verdicts, "FLUSH_EVERY", 2)
        # Publishes: the first lands, the second fails, the third lands.
        store = FlakyStore(tmp_path / "s", fail_every=2, fail_reads=False)
        for n in range(6):
            store.put(("k", n), True)
        assert store.io_errors == 1
        assert len(list((tmp_path / "s").glob("seg-*"))) == 2
        assert len(VerdictStore(tmp_path / "s")) == 6


class TestIoErrorHandoff:
    def test_take_io_errors_returns_and_zeroes(self, tmp_path):
        store = FlakyStore(tmp_path / "s", fail_every=1, fail_reads=False)
        store.put("k", True)
        store.flush()
        assert store.take_io_errors() == 1
        assert store.take_io_errors() == 0

    def test_oracle_drains_io_errors_into_metrics_and_events(
        self, tmp_path, monkeypatch
    ):
        events = []

        class Recorder:
            enabled = True

            def emit(self, type, **fields):
                events.append((type, fields))

        monkeypatch.setattr(verdicts, "FLUSH_EVERY", 1)  # publish per write
        registry = MetricsRegistry()
        store = FlakyStore(tmp_path / "s", fail_every=1, fail_reads=False)
        oracle = Oracle(metrics=registry, events=Recorder())
        oracle.attach_store(store)
        oracle.check(parse_program("let x = 1"))
        assert registry.value("oracle.store.io_errors") == 1
        assert ("store_io_error", {"errors": 1}) in events
