"""Tests for file-level fan-out: :func:`repro.core.explain_many`.

The contract under test:

* **Determinism** — ``jobs=N`` returns the same entries, in input order,
  as the serial batch.
* **Crash isolation** — a worker process that dies takes only the files it
  was running with it; those are re-run serially in the parent, so every
  entry still carries the serial answer.
* **Plumbing** — the per-file worker task ships a pickled entry (the
  summary survives an unpicklable result), and interrupt teardown kills
  busy workers promptly.
"""

from __future__ import annotations

import gc
import os
import pickle
import time
import weakref
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.core.seminal as seminal
from repro.core import explain, explain_many
from repro.core.messages import render_suggestion
from repro.core.oracle import Oracle
from repro.core.searcher import Searcher
from repro.core.parallel import (
    _fork_context,
    explain_batch_worker,
    terminate_executor,
)
from repro.corpus import generate_corpus

FIG2 = """\
let map2 f aList bList =
  List.map (fun (a, b) -> f a b) (List.combine aList bList)
let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]
"""

ILL_TYPED = "let f x = x + 1\nlet b = f true\n"
WELL_TYPED = "let f x = x + 1\nlet b = f 2\n"
PARSE_ERROR = "let let = ("


def _signature(result):
    return (
        result.ok,
        result.bad_decl_index,
        result.oracle_calls,
        result.budget_exhausted,
        result.render(limit=50),
        [render_suggestion(s) for s in result.suggestions],
    )


CORPUS = generate_corpus(scale=0.15, seed=11)


def _exited(pid):
    """True once ``pid`` has terminated (a zombie or already reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


class TestExplainMany:
    SOURCES = [FIG2, WELL_TYPED, PARSE_ERROR, ILL_TYPED]
    LABELS = ["fig2.ml", "ok.ml", "broken.ml", "bool.ml"]

    def test_serial_batch_order_and_outcomes(self):
        entries = explain_many(self.SOURCES, self.LABELS)
        assert [e.label for e in entries] == self.LABELS
        assert [e.ok for e in entries] == [False, True, False, False]
        assert entries[2].error is not None
        assert entries[0].suggestions > 0
        assert entries[0].result is not None

    def test_parallel_batch_matches_serial(self):
        serial = explain_many(self.SOURCES, self.LABELS)
        parallel = explain_many(self.SOURCES, self.LABELS, jobs=2)
        assert [e.label for e in parallel] == [e.label for e in serial]
        assert [e.report for e in parallel] == [e.report for e in serial]
        assert [e.best for e in parallel] == [e.best for e in serial]
        assert [e.oracle_calls for e in parallel] == [
            e.oracle_calls for e in serial
        ]

    def test_parallel_batch_uses_workers(self):
        entries = explain_many([FIG2, ILL_TYPED], jobs=2)
        pids = {e.worker_pid for e in entries}
        assert os.getpid() not in pids

    def test_dead_worker_file_is_rerun_serially(self, monkeypatch):
        """A worker killed outright (``os._exit``, which no ``except`` can
        catch) while explaining one file: that file is re-run in the
        parent and the batch matches the serial run entry for entry."""
        serial = explain_many(self.SOURCES, self.LABELS)
        parent = os.getpid()
        victim = "bool.ml"
        explain_entry = seminal._explain_entry

        def dying_entry(label, source, top, kwargs):
            if label == victim and os.getpid() != parent:
                os._exit(23)
            return explain_entry(label, source, top, kwargs)

        # Forked workers inherit the patched module attribute.
        monkeypatch.setattr(seminal, "_explain_entry", dying_entry)
        parallel = explain_many(self.SOURCES, self.LABELS, jobs=2)
        assert [e.label for e in parallel] == self.LABELS
        assert [e.report for e in parallel] == [e.report for e in serial]
        assert [e.best for e in parallel] == [e.best for e in serial]
        assert [e.oracle_calls for e in parallel] == [
            e.oracle_calls for e in serial
        ]
        killed = parallel[self.LABELS.index(victim)]
        assert killed.worker_pid == parent

    def test_default_labels(self):
        entries = explain_many([WELL_TYPED])
        assert entries[0].label == "program[0]"

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            explain_many([WELL_TYPED], ["a", "b"])

    def test_results_are_picklable(self):
        """Full ExplainResults (including checker errors with node/type
        payloads) must survive the process boundary."""
        for source in (FIG2, ILL_TYPED):
            result = explain(source)
            clone = pickle.loads(pickle.dumps(result))
            assert clone.checker_message == result.checker_message
            assert len(clone.suggestions) == len(result.suggestions)

    def test_parallel_batch_ships_full_results(self):
        entries = explain_many([ILL_TYPED], jobs=2)
        assert entries[0].result is not None
        assert entries[0].result.checker_message


class TestMemory:
    def test_serial_batch_keeps_no_search_alive(self, monkeypatch):
        # A kept result holds the checker's error; that error must not
        # pin the oracle and searcher that produced it (through its
        # traceback's frames or a chained exception).
        made = []
        for cls in (Oracle, Searcher):
            init = cls.__init__

            def tracked(self, *args, _init=init, **kwargs):
                made.append(weakref.ref(self))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", tracked)
        programs = [f.program for f in CORPUS.representatives[:12]]
        entries = explain_many(programs)
        monkeypatch.undo()
        gc.collect()
        assert made
        assert [ref() for ref in made if ref() is not None] == []
        assert any(e.result.checker_error is not None for e in entries)
        for program, entry in zip(programs, entries):
            serial = explain(program)
            assert _signature(entry.result) == _signature(serial)
            assert entry.report == serial.render(limit=3)


@pytest.fixture(scope="module")
def corpus_batch():
    """One two-worker batch over every corpus representative."""
    programs = [f.program for f in CORPUS.representatives]
    return explain_many(programs, jobs=2)


class TestDeterminism:
    """Each file's batch entry carries exactly the serial answer."""

    @pytest.mark.parametrize(
        "index", range(len(CORPUS.representatives)),
        ids=[
            f"{f.programmer}-{f.assignment}-{i}"
            for i, f in enumerate(CORPUS.representatives)
        ],
    )
    def test_corpus_entry_byte_identical(self, corpus_batch, index):
        serial = explain(CORPUS.representatives[index].program)
        entry = corpus_batch[index]
        assert entry.result is not None
        assert _signature(entry.result) == _signature(serial)
        assert entry.report == serial.render(limit=3)
        assert entry.best == serial.render_best()

    def test_corpus_batch_ran_in_workers(self, corpus_batch):
        assert os.getpid() not in {e.worker_pid for e in corpus_batch}

    def test_fig2_byte_identical(self):
        serial = explain(FIG2)
        entry = explain_many([FIG2, ILL_TYPED], jobs=2)[0]
        assert _signature(entry.result) == _signature(serial)
        assert not entry.degraded

    def test_budget_exhaustion_matches_serial(self):
        serial = explain(FIG2, max_oracle_calls=12)
        entry = explain_many([FIG2, ILL_TYPED], jobs=2, max_oracle_calls=12)[0]
        assert serial.budget_exhausted
        assert entry.result.budget_exhausted
        assert _signature(entry.result) == _signature(serial)

    def test_no_triage_configuration_matches(self):
        serial = explain(FIG2, enable_triage=False)
        entry = explain_many([FIG2, ILL_TYPED], jobs=2, enable_triage=False)[0]
        assert _signature(entry.result) == _signature(serial)


class TestCrashIsolation:
    SOURCES = TestExplainMany.SOURCES
    LABELS = TestExplainMany.LABELS

    def test_raising_worker_file_is_rerun_serially(self, monkeypatch):
        """An exception that escapes a worker's task (as opposed to an
        input error, which becomes an ``error`` entry) only costs that
        file a serial re-run in the parent."""
        serial = explain_many(self.SOURCES, self.LABELS)
        parent = os.getpid()
        victim = "fig2.ml"
        explain_entry = seminal._explain_entry

        def raising_entry(label, source, top, kwargs):
            if label == victim and os.getpid() != parent:
                raise RuntimeError("worker-side failure")
            return explain_entry(label, source, top, kwargs)

        monkeypatch.setattr(seminal, "_explain_entry", raising_entry)
        parallel = explain_many(self.SOURCES, self.LABELS, jobs=2)
        assert [e.report for e in parallel] == [e.report for e in serial]
        assert [e.oracle_calls for e in parallel] == [
            e.oracle_calls for e in serial
        ]
        rerun = parallel[self.LABELS.index(victim)]
        assert rerun.worker_pid == parent
        assert rerun.error is None

    def test_every_worker_dying_degrades_to_a_serial_batch(self, monkeypatch):
        serial = explain_many(self.SOURCES, self.LABELS)
        parent = os.getpid()
        explain_entry = seminal._explain_entry

        def dying_entry(label, source, top, kwargs):
            if os.getpid() != parent:
                os._exit(23)
            return explain_entry(label, source, top, kwargs)

        monkeypatch.setattr(seminal, "_explain_entry", dying_entry)
        parallel = explain_many(self.SOURCES, self.LABELS, jobs=2)
        assert [e.label for e in parallel] == self.LABELS
        assert [e.report for e in parallel] == [e.report for e in serial]
        assert [e.best for e in parallel] == [e.best for e in serial]
        assert {e.worker_pid for e in parallel} == {parent}


class TestWorkerPlumbing:
    def test_batch_worker_returns_a_pickled_entry(self):
        blob = explain_batch_worker("bool.ml", ILL_TYPED, 3, pickle.dumps({}))
        entry = pickle.loads(blob)
        serial = explain(ILL_TYPED)
        assert entry.label == "bool.ml"
        assert entry.report == serial.render(limit=3)
        assert entry.oracle_calls == serial.oracle_calls
        assert entry.result is not None

    def test_batch_worker_parse_error_is_an_error_entry(self):
        blob = explain_batch_worker("broken.ml", PARSE_ERROR, 3, pickle.dumps({}))
        entry = pickle.loads(blob)
        assert entry.error
        assert not entry.ok
        assert entry.result is None

    def test_unpicklable_result_ships_the_summary(self, monkeypatch):
        explain_entry = seminal._explain_entry

        def unpicklable_entry(label, source, top, kwargs):
            entry = explain_entry(label, source, top, kwargs)
            entry.result.unpicklable = lambda: None
            return entry

        monkeypatch.setattr(seminal, "_explain_entry", unpicklable_entry)
        entry = pickle.loads(
            explain_batch_worker("bool.ml", ILL_TYPED, 3, pickle.dumps({}))
        )
        assert entry.result is None
        assert entry.report == explain(ILL_TYPED).render(limit=3)
        assert entry.suggestions > 0

    def test_terminate_executor_kills_a_busy_worker(self):
        pool = ProcessPoolExecutor(max_workers=1, mp_context=_fork_context())
        future = pool.submit(time.sleep, 60)
        deadline = time.monotonic() + 10
        while not future.running() and time.monotonic() < deadline:
            time.sleep(0.01)
        pids = list(pool._processes)
        assert pids
        terminate_executor(pool)
        # The executor's own thread may reap the worker concurrently, so
        # ask the process table rather than the Process object.
        deadline = time.monotonic() + 10
        while not all(_exited(pid) for pid in pids):
            assert time.monotonic() < deadline, "worker outlived teardown"
            time.sleep(0.01)

    def test_terminate_executor_never_raises(self):
        pool = ProcessPoolExecutor(max_workers=1, mp_context=_fork_context())
        pool.submit(abs, -1).result()
        pool.shutdown(wait=True)
        terminate_executor(pool)
        terminate_executor(pool)
