"""Unit tests for the verdict store's retrying segment I/O.

The store's contract under I/O faults is *degrade, never raise*: a
transient ``OSError`` is retried per the injectable policy (deterministic
backoff, recorded sleeps), and an exhausted retry turns into a skipped
segment (reads) or a dropped flush (writes) — a cache miss either way.
"""

from __future__ import annotations

import pytest

from repro.core.retry import RetryPolicy
from repro.store import VerdictStore


def _put_one(store, key="k"):
    assert store.put(key, True)


class FlakySeams(VerdictStore):
    """Fail the read/write seams a scripted number of times."""

    def __init__(self, path, *, read_failures=0, write_failures=0, **kwargs):
        self._read_failures = read_failures
        self._write_failures = write_failures
        super().__init__(path, **kwargs)

    def _read_segment_text(self, segment):
        if self._read_failures > 0:
            self._read_failures -= 1
            raise OSError("injected read failure")
        return super()._read_segment_text(segment)

    def _write_segment_file(self, tmp, final, body):
        if self._write_failures > 0:
            self._write_failures -= 1
            raise OSError("injected write failure")
        super()._write_segment_file(tmp, final, body)


class TestRetriedWrites:
    def test_transient_write_failure_is_retried(self, tmp_path):
        slept = []
        store = FlakySeams(
            tmp_path / "s",
            write_failures=1,
            retry_policy=RetryPolicy(attempts=3, backoff_seconds=0.01),
            sleep=slept.append,
        )
        _put_one(store)
        assert store.flush() is not None  # the retry landed the segment
        assert store.io_retries == 1
        assert store.io_errors == 0
        assert slept == [0.01]
        store.close()
        # The published segment is real: a fresh store loads it.
        fresh = VerdictStore(tmp_path / "s")
        assert len(fresh) == 1
        fresh.close()

    def test_exhausted_write_degrades_to_no_segment(self, tmp_path):
        store = FlakySeams(
            tmp_path / "s",
            write_failures=5,
            retry_policy=RetryPolicy(attempts=2, backoff_seconds=0.0),
            sleep=lambda s: None,
        )
        _put_one(store)
        assert store.flush() is None  # dropped, not raised
        assert store.io_errors == 1
        assert store.io_retries == 1
        # No half-written temp files left behind for the next run to skip.
        assert list((tmp_path / "s").glob("*.tmp-*")) == []
        store.close()


class TestRetriedReads:
    def test_transient_read_failure_is_retried(self, tmp_path):
        with VerdictStore(tmp_path / "s") as seed:
            _put_one(seed)
        slept = []
        store = FlakySeams(
            tmp_path / "s",
            read_failures=1,
            retry_policy=RetryPolicy(attempts=3, backoff_seconds=0.02),
            sleep=slept.append,
        )
        assert len(store) == 1  # the retried read loaded the segment
        assert store.io_retries == 1
        assert store.io_errors == 0
        assert store.skipped_segments == 0
        assert slept == [0.02]
        store.close()

    def test_exhausted_read_skips_the_segment(self, tmp_path):
        with VerdictStore(tmp_path / "s") as seed:
            _put_one(seed)
        store = FlakySeams(
            tmp_path / "s",
            read_failures=10,
            retry_policy=RetryPolicy(attempts=2, backoff_seconds=0.0),
            sleep=lambda s: None,
        )
        assert len(store) == 0  # degraded to a cache miss
        assert store.io_errors == 1
        assert store.skipped_segments == 1
        store.close()


class TestIoCounterHandoff:
    def test_take_io_counters_returns_and_zeroes(self, tmp_path):
        store = FlakySeams(
            tmp_path / "s",
            write_failures=1,
            retry_policy=RetryPolicy(attempts=2, backoff_seconds=0.0),
            sleep=lambda s: None,
        )
        _put_one(store)
        store.flush()
        assert store.take_io_counters() == (1, 0)
        assert store.take_io_counters() == (0, 0)
        store.close()

    def test_oracle_drains_counters_into_metrics_and_events(self, tmp_path):
        from repro.core import Oracle
        from repro.obs import MetricsRegistry

        events = []

        class Recorder:
            enabled = True

            def emit(self, type, **fields):
                events.append((type, fields))

        registry = MetricsRegistry()
        store = FlakySeams(
            tmp_path / "s",
            write_failures=5,
            retry_policy=RetryPolicy(attempts=2, backoff_seconds=0.0),
            sleep=lambda s: None,
        )
        store.flush_every = 1  # flush (and fail) on the first write
        oracle = Oracle(metrics=registry, events=Recorder())
        oracle.attach_store(store)
        from repro.miniml.parser import parse_program

        oracle.check(parse_program("let x = 1"))
        store.close()
        assert registry.value("oracle.store.io_errors") >= 1
        kinds = [kind for kind, _ in events]
        assert "store_io_error" in kinds
