"""Dependency pruning is invisible: corpus-wide output equivalence.

The ISSUE's acceptance bar for the declaration outcome table is *byte
identity* of everything user-visible: for every corpus representative,
with pruning on vs off — same suggestions, same ranks, same ``--stats``
summary, same event log.  Only the ``oracle.decl.*`` telemetry (and wall
time) may differ.  The toggle also reaches the batch workers of
``explain_many(jobs=N)``: a file searched in a worker prunes, and accounts
its per-declaration counters, exactly like a serial search.
"""

import io
import json

import pytest

from repro.core import explain, explain_many
from repro.core.messages import render_suggestion
from repro.corpus import generate_corpus
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry

CORPUS_SCALE = 0.1
CORPUS_SEED = 7

#: Metric families allowed to differ when toggling ``depprune`` — the
#: pruning telemetry itself, and keyer interning (the table interns
#: declaration keys the off-configuration never builds).
TOGGLE_SENSITIVE = ("oracle.decl.", "search.keys.interned")

#: Event fields that are run-scoped, not behaviour: wall-clock values and
#: process ids (the ``t`` field is already pinned by the injected clock).
VOLATILE_FIELDS = ("t", "pid", "wall_time", "seconds", "elapsed_seconds")


@pytest.fixture(scope="module")
def corpus_files():
    return generate_corpus(scale=CORPUS_SCALE, seed=CORPUS_SEED).representatives


def _run(program, **kwargs):
    buf = io.StringIO()
    events = EventLog(buf, clock=lambda: 0.0)
    metrics = MetricsRegistry()
    result = explain(program, metrics=metrics, events=events, **kwargs)
    events.close()
    return result, metrics, buf.getvalue()


def _events(raw):
    out = []
    for line in raw.splitlines():
        record = json.loads(line)
        for fld in VOLATILE_FIELDS:
            record.pop(fld, None)
        out.append(record)
    return out


def _visible(result):
    return (
        result.ok,
        result.bad_decl_index,
        result.oracle_calls,
        result.budget_exhausted,
        [render_suggestion(s) for s in result.suggestions],
        result.stats.summary() if result.stats is not None else None,
    )


def _stable_counters(metrics):
    return {
        k: v
        for k, v in metrics.counters().items()
        if not any(k.startswith(p) for p in TOGGLE_SENSITIVE)
    }


class TestSerialEquivalence:
    def test_corpus_on_vs_off(self, corpus_files):
        replayed_total = 0
        for corpus_file in corpus_files:
            on, m_on, ev_on = _run(corpus_file.program)
            off, m_off, ev_off = _run(corpus_file.program, depprune=False)
            assert _visible(on) == _visible(off)
            assert _stable_counters(m_on) == _stable_counters(m_off)
            assert _events(ev_on) == _events(ev_off)
            assert m_off.value("oracle.decl.replayed") == 0
            replayed_total += m_on.value("oracle.decl.replayed")
        # The sweep as a whole must actually have pruned something.
        assert replayed_total > 0


def _decl_counters(counters):
    return {k: v for k, v in counters.items() if k.startswith("oracle.decl.")}


class TestBatchEquivalence:
    """File-level fan-out on the largest representatives (the ones whose
    searches replay the most declarations)."""

    def _largest(self, corpus_files, n=6):
        return sorted(
            corpus_files, key=lambda c: len(c.program.decls), reverse=True
        )[:n]

    def test_on_vs_off_in_batch_workers(self, corpus_files):
        programs = [c.program for c in self._largest(corpus_files)]
        on = explain_many(programs, jobs=2, collect_metrics=True)
        off = explain_many(programs, jobs=2, depprune=False, collect_metrics=True)
        for e_on, e_off in zip(on, off):
            assert _visible(e_on.result) == _visible(e_off.result)
            assert e_off.metrics["counters"].get("oracle.decl.replayed", 0) == 0
        assert sum(
            e.metrics["counters"].get("oracle.decl.replayed", 0) for e in on
        ) > 0

    def test_decl_counters_in_batch_match_serial(self, corpus_files):
        largest = self._largest(corpus_files)
        entries = explain_many(
            [c.program for c in largest], jobs=2, collect_metrics=True
        )
        for corpus_file, entry in zip(largest, entries):
            serial, metrics, _ = _run(corpus_file.program)
            assert _visible(entry.result) == _visible(serial)
            assert _decl_counters(entry.metrics["counters"]) == _decl_counters(
                metrics.counters()
            )


class TestRebindingCut:
    """Shadowing probe at the full-search level: rebinding the mutated
    name keeps the suffix replayable, and both searches agree anyway."""

    SRC = (
        "let size = 4\n"
        "let bad = size + true\n"
        "let size = 100\n"
        "let uses = size * 2\n"
    )

    def test_rebound_suffix_is_pruned_and_identical(self):
        on, m_on, _ = _run(self.SRC)
        off, m_off, _ = _run(self.SRC, depprune=False)
        assert _visible(on) == _visible(off)
        assert m_on.value("oracle.decl.replayed") > 0
        assert m_on.value("oracle.decl.degraded") == 0
