"""Trail speculation is invisible: corpus-wide output equivalence.

The tentpole's acceptance bar: everything user-visible is *byte
identical* with speculation on vs off, composed with every other reuse
tier — dependency pruning on/off, verdict store cold vs warm, serial vs
the batch workers of ``explain_many(jobs=N)``.  Only the
``oracle.trail.*`` telemetry (plus the families the composed toggles
already own) and wall time may differ.
"""

import io
import json

import pytest

from repro.core import explain, explain_many
from repro.core.messages import render_suggestion
from repro.corpus import generate_corpus
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.store import VerdictStore

CORPUS_SCALE = 0.1
CORPUS_SEED = 7

#: Metric families allowed to differ when toggling ``speculate`` (alone or
#: composed with ``depprune``): the trail telemetry itself, the pruning
#: telemetry, keyer interning, and store accounting (a warm store answers
#: checks the cold configuration re-derives).
TOGGLE_SENSITIVE = (
    "oracle.trail.",
    "oracle.decl.",
    "search.keys.interned",
    "oracle.store.",
)

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
    def test_corpus_speculate_on_vs_off(self, corpus_files):
        speculated_total = 0
        for corpus_file in corpus_files:
            on, m_on, ev_on = _run(corpus_file.program)
            off, m_off, ev_off = _run(corpus_file.program, speculate=False)
            assert _visible(on) == _visible(off)
            assert _stable_counters(m_on) == _stable_counters(m_off)
            assert _events(ev_on) == _events(ev_off)
            assert m_off.value("oracle.trail.speculated") == 0
            assert m_on.value("oracle.trail.fallbacks") == 0
            speculated_total += m_on.value("oracle.trail.speculated")
        # The sweep as a whole must actually have speculated something.
        assert speculated_total > 0

    def test_corpus_speculate_without_depprune(self, corpus_files):
        # Speculation must compose with the decl table *off* too: the
        # snapshot tier's live-state checks are then the only speculative
        # path, and outputs still match the fully-copying configuration.
        for corpus_file in corpus_files:
            on, m_on, ev_on = _run(corpus_file.program, depprune=False)
            off, m_off, ev_off = _run(
                corpus_file.program, depprune=False, speculate=False
            )
            assert _visible(on) == _visible(off)
            assert _stable_counters(m_on) == _stable_counters(m_off)
            assert _events(ev_on) == _events(ev_off)

    def test_both_toggles_off_is_the_same_answer(self, corpus_files):
        # Anchor the whole 2x2: the all-on default equals the all-off
        # (copy-everything) configuration.
        for corpus_file in corpus_files[::3]:
            on, _, ev_on = _run(corpus_file.program)
            off, _, ev_off = _run(
                corpus_file.program, speculate=False, depprune=False
            )
            assert _visible(on) == _visible(off)
            assert _events(ev_on) == _events(ev_off)


class TestBatchEquivalence:
    """File-level fan-out on the largest representatives: the toggle
    reaches the batch workers, and a worker speculates exactly like a
    serial search."""

    def _largest(self, corpus_files, n=4):
        return sorted(
            corpus_files, key=lambda c: len(c.program.decls), reverse=True
        )[:n]

    def test_speculate_on_vs_off_in_batch_workers(self, corpus_files):
        programs = [c.program for c in self._largest(corpus_files)]
        on = explain_many(programs, jobs=2, collect_metrics=True)
        off = explain_many(programs, jobs=2, speculate=False, collect_metrics=True)
        for e_on, e_off in zip(on, off):
            assert _visible(e_on.result) == _visible(e_off.result)
            assert e_off.metrics["counters"].get("oracle.trail.speculated", 0) == 0
        assert sum(
            e.metrics["counters"].get("oracle.trail.speculated", 0) for e in on
        ) > 0

    def test_batch_workers_speculate_like_serial(self, corpus_files):
        largest = self._largest(corpus_files)
        entries = explain_many(
            [c.program for c in largest], jobs=2, collect_metrics=True
        )
        for corpus_file, entry in zip(largest, entries):
            serial, metrics, _ = _run(corpus_file.program)
            assert _visible(entry.result) == _visible(serial)
            assert entry.metrics["counters"] == metrics.counters()


class TestStoreEquivalence:
    """Cold vs warm verdict store, speculation on vs off: same answers,
    and the warm pass actually serves from disk."""

    def _sample(self, corpus_files, n=5):
        return sorted(
            corpus_files, key=lambda c: len(c.program.decls), reverse=True
        )[:n]

    def test_cold_and_warm_match_across_toggle(self, corpus_files, tmp_path):
        for i, corpus_file in enumerate(self._sample(corpus_files)):
            on_dir = tmp_path / f"on-{i}"
            off_dir = tmp_path / f"off-{i}"
            with VerdictStore(on_dir) as store:
                cold_on, _, _ = _run(corpus_file.program, store=store)
            with VerdictStore(on_dir) as store:
                warm_on, m_warm, _ = _run(corpus_file.program, store=store)
            with VerdictStore(off_dir) as store:
                cold_off, _, _ = _run(
                    corpus_file.program, store=store, speculate=False
                )
            with VerdictStore(off_dir) as store:
                warm_off, _, _ = _run(
                    corpus_file.program, store=store, speculate=False
                )
            assert (
                _visible(cold_on)
                == _visible(warm_on)
                == _visible(cold_off)
                == _visible(warm_off)
            )
            assert m_warm.value("oracle.store.hits") > 0
