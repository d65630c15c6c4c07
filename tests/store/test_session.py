"""One verdict-store session per batch process.

``explain_many(store=path)`` opens one :class:`VerdictStore` for the whole
batch (forked workers inherit it) instead of one per file.  The session
must behave like per-file reopening in everything observable: entries,
store hits and writes, compaction's eviction order, and the invalidation
count — while reading each published segment at most once.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

import repro.core.seminal as seminal
from repro.core import explain, explain_many
from repro.corpus import generate_corpus
from repro.miniml.pretty import pretty_program
from repro.obs import MetricsRegistry
from repro.store import STORE_SCHEMA_VERSION, VerdictStore, verdicts

FIG2 = """\
let map2 f aList bList =
  List.map (fun (a, b) -> f a b) (List.combine aList bList)
let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]
"""

ILL_TYPED = "let f x = x + 1\nlet b = f true\n"

#: The first files of a small course, in timestamp order: recompile loops,
#: so later files repeat earlier sources and hit the store.
COURSE = [pretty_program(f.program) for f in generate_corpus(scale=0.15, seed=11).files[:30]]


def _merged(entries) -> MetricsRegistry:
    total = MetricsRegistry()
    for entry in entries:
        total.merge_snapshot(entry.metrics)
    return total


def _count_opens(monkeypatch, log):
    """Append this process's pid to ``log`` on every ``VerdictStore``
    construction — a file, so forked workers report too."""
    init = VerdictStore.__init__

    def counting_init(self, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        init(self, *args, **kwargs)

    monkeypatch.setattr(VerdictStore, "__init__", counting_init)


def _opens(log):
    return Counter(int(line) for line in log.read_text().split()) if log.exists() else Counter()


class TestOneOpenPerProcess:
    def test_serial_batch_opens_the_store_once(self, tmp_path, monkeypatch):
        log = tmp_path / "opens"
        _count_opens(monkeypatch, log)
        explain_many([FIG2, ILL_TYPED, FIG2, ILL_TYPED], jobs=1, store=tmp_path / "s")
        assert _opens(log) == Counter({os.getpid(): 1})

    def test_parallel_batch_opens_at_most_once_per_process(self, tmp_path, monkeypatch):
        log = tmp_path / "opens"
        _count_opens(monkeypatch, log)
        entries = explain_many(
            [FIG2, ILL_TYPED, FIG2, ILL_TYPED, FIG2, ILL_TYPED],
            jobs=2,
            store=tmp_path / "s",
            collect_metrics=True,
        )
        assert _merged(entries).value("oracle.store.writes") > 0
        opens = _opens(log)
        workers = {entry.worker_pid for entry in entries} - {os.getpid()}
        assert set(opens) <= workers | {os.getpid()}
        assert all(n == 1 for n in opens.values())
        assert sum(opens.values()) <= len(workers) + 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unopenable_store_is_each_files_error(self, tmp_path, jobs):
        """A store path that cannot be opened (here: a plain file) fails
        every file's entry, exactly as opening it per file did."""
        not_a_dir = tmp_path / "store"
        not_a_dir.write_text("")
        entries = explain_many([FIG2, ILL_TYPED], jobs=jobs, store=not_a_dir)
        with pytest.raises(OSError) as raised:
            explain(FIG2, store=not_a_dir)
        assert [entry.error for entry in entries] == [str(raised.value)] * 2

    def test_single_file_explain_opens_and_closes_its_own(self, tmp_path, monkeypatch):
        log = tmp_path / "opens"
        _count_opens(monkeypatch, log)
        explain(FIG2, store=tmp_path / "s")
        explain(FIG2, store=tmp_path / "s")
        assert _opens(log) == Counter({os.getpid(): 2})


class TestCallersOracleGetsItsStoreBack:
    """``explain(oracle=o, store=...)`` lends ``o`` the store for one call."""

    def test_store_explain_opened_is_detached_after_the_call(self, tmp_path):
        from repro.core import Oracle

        path = tmp_path / "s"
        oracle = Oracle()
        explain("let x = 1 + true", oracle=oracle, store=path)
        assert oracle.store is None
        assert oracle.store_writes > 0
        assert VerdictStore(path).stats().segments == 1
        explain("let y = 2 + true", oracle=oracle)
        # The second call had no store: nothing written, nothing published.
        assert oracle.store is None
        assert oracle.store_writes == 0
        assert VerdictStore(path).stats().segments == 1

    def test_oracle_keeps_the_session_it_had(self, tmp_path):
        from repro.core import Oracle

        own = VerdictStore(tmp_path / "own")
        oracle = Oracle(store=own)
        explain("let x = 1 + true", oracle=oracle, store=tmp_path / "lent")
        assert oracle.store is own

    def test_callers_session_passed_as_store_stays_usable(self, tmp_path):
        from repro.core import Oracle

        session = VerdictStore(tmp_path / "s")
        oracle = Oracle()
        cold = explain(ILL_TYPED, oracle=oracle, store=session)
        assert oracle.store is None
        warm = explain(ILL_TYPED, store=session)
        assert warm.render() == cold.render()
        assert len(session) > 0
        session.close()


class TestRefresh:
    def test_refresh_serves_a_segment_published_mid_batch(self, tmp_path, monkeypatch):
        """A second store on the same path publishes FIG2's verdicts
        between the batch's first and second file: the session serves the
        second file from them, and no store reads any segment twice —
        the session never reads back its own segments."""
        path = tmp_path / "s"
        reads = Counter()
        read = VerdictStore._read_segment_text

        def counting_read(self, segment):
            reads[(id(self), segment.name)] += 1
            return read(self, segment)

        monkeypatch.setattr(VerdictStore, "_read_segment_text", counting_read)
        sessions = []
        explain_entry = seminal._explain_entry

        def entry_with_a_concurrent_writer(label, source, top, kwargs):
            sessions.append(kwargs["store"])
            if label == "second":
                other = VerdictStore(path)
                explain(FIG2, store=other)
                other.close()
            return explain_entry(label, source, top, kwargs)

        monkeypatch.setattr(seminal, "_explain_entry", entry_with_a_concurrent_writer)
        entries = explain_many(
            [ILL_TYPED, FIG2, ILL_TYPED],
            ["first", "second", "third"],
            store=path,
            collect_metrics=True,
        )
        session = sessions[0]
        assert all(s is session for s in sessions)
        second = MetricsRegistry()
        second.merge_snapshot(entries[1].metrics)
        assert second.value("oracle.store.hits") == entries[1].oracle_calls > 0
        assert second.value("oracle.calls") == 0

        assert set(reads.values()) == {1}
        read_by_session = {name for (owner, name) in reads if owner == id(session)}
        segments = {p.name for p in path.glob("seg-*.jsonl")}
        assert len(segments) == 2  # the first file's and the other store's
        assert len(read_by_session) == 1  # only the other store's
        assert read_by_session < segments

    def test_two_stores_in_one_process_never_share_a_segment_name(
        self, tmp_path, monkeypatch
    ):
        # Both publish in the same millisecond.
        monkeypatch.setattr(verdicts, "time", _Ticks(step=0.0))
        first = VerdictStore(tmp_path / "s")
        second = VerdictStore(tmp_path / "s")
        first.put(("a",), True)
        second.put(("b",), True)
        assert first.flush() != second.flush()
        assert len(VerdictStore(tmp_path / "s")) == 2

    def test_refresh_reads_only_new_segments(self, tmp_path):
        path = tmp_path / "s"
        session = VerdictStore(path)
        session.put(("a",), True)
        session.flush()
        other = VerdictStore(path)
        assert other.get(("a",)) is not None
        other.put(("b",), False, err="boom")
        other.flush()
        assert session.get(("b",)) is None
        session.refresh()
        assert session.get(("b",)).err == "boom"
        assert session.skipped_segments == 0


class _Ticks:
    """Stands in for the store module's ``time``: deterministic publish
    stamps, ``step`` seconds apart."""

    def __init__(self, step=1.0):
        self.now = 1000.0
        self.step = step

    def time(self):
        self.now += self.step
        return self.now


def _course_of_files(path, reopen_per_file):
    """Three files each publish one verdict; a fourth hits the first's."""
    session = None if reopen_per_file else VerdictStore(path)
    for key in (("a",), ("b",), ("c",), None):
        store = VerdictStore(path) if reopen_per_file else session
        store.refresh()
        if key is None:
            assert store.get(("a",)) is not None
        else:
            store.put(key, True)
        store.flush()


class TestCompactionInOneSession:
    def test_compaction_evicts_as_with_per_file_reopening(self, tmp_path, monkeypatch):
        """Oldest-published first either way: the hit on the first file's
        verdict does not save its segment, and no run writes ``hits/``."""
        monkeypatch.setattr(verdicts, "time", _Ticks())
        survivors = {}
        for reopen in (False, True):
            path = tmp_path / f"s-{reopen}"
            _course_of_files(path, reopen)
            assert not (path / "hits").exists()
            one_segment = max(p.stat().st_size for p in path.glob("seg-*.jsonl"))
            VerdictStore(path).compact(max_bytes=one_segment)
            fresh = VerdictStore(path, read_only=True)
            survivors[reopen] = [
                key for key in (("a",), ("b",), ("c",))
                if fresh.get(key) is not None
            ]
        assert survivors[False] == survivors[True] == [("c",)]

    def test_segments_of_one_millisecond_evict_in_publish_order(
        self, tmp_path, monkeypatch
    ):
        # Twelve publishes in one millisecond: the segment names must sort
        # in publish order (``-2`` before ``-10``), so compacting down to
        # one segment keeps the newest.
        monkeypatch.setattr(verdicts, "time", _Ticks(step=0.0))
        path = tmp_path / "s"
        store = VerdictStore(path)
        keys = [(f"k{i}",) for i in range(12)]
        for key in keys:
            store.put(key, True)
            store.flush()
        names = [p.name for p in path.glob("seg-*.jsonl")]
        assert len(names) == 12
        one_segment = max(p.stat().st_size for p in path.glob("seg-*.jsonl"))
        VerdictStore(path).compact(max_bytes=one_segment)
        fresh = VerdictStore(path, read_only=True)
        assert [key for key in keys if fresh.get(key) is not None] == [keys[-1]]


class TestInvalidatedCountedOnce:
    def test_batch_reports_stale_entries_once(self, tmp_path):
        path = tmp_path / "s"
        path.mkdir()
        k = 4
        lines = [json.dumps({"v": STORE_SCHEMA_VERSION, "checker": "0" * 32})] + [
            json.dumps({"k": f"{i:032d}", "ok": True}) for i in range(k)
        ]
        (path / "seg-0000000000000-1-1.jsonl").write_text("\n".join(lines) + "\n")
        entries = explain_many(
            [FIG2, ILL_TYPED, FIG2], jobs=1, store=path, collect_metrics=True
        )
        assert _merged(entries).value("oracle.store.invalidated") == k


def _visible(report, best, oracle_calls, result, registry):
    return (
        report,
        best,
        oracle_calls,
        result.stats.summary(),
        registry.value("oracle.store.hits"),
        registry.value("oracle.store.writes"),
    )


class TestSessionMatchesPerFileOpens:
    def test_course_cold_then_warm(self, tmp_path):
        batch_store, loop_store = tmp_path / "batch", tmp_path / "loop"
        for run in ("cold", "warm"):
            entries = explain_many(COURSE, store=batch_store, collect_metrics=True)
            batch = []
            for entry in entries:
                registry = MetricsRegistry()
                registry.merge_snapshot(entry.metrics)
                batch.append(_visible(entry.report, entry.best, entry.oracle_calls,
                                      entry.result, registry))
            loop = []
            for source in COURSE:
                registry = MetricsRegistry()
                result = explain(source, store=loop_store, metrics=registry)
                loop.append(_visible(result.render(limit=3), result.render_best(),
                                     result.oracle_calls, result, registry))
            assert batch == loop, run
        assert sum(hits for *_, hits, _ in batch) > 0
