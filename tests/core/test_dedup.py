"""Tests for in-flight candidate dedup (``SearchConfig.dedup``).

The memo is answer-preserving by construction: a duplicate candidate's
verdict is *replayed* (suggestion recording and lazy expansions still
happen), only the redundant oracle call is skipped.  These tests pin both
halves: suggestions never change, and duplicate-heavy programs actually
skip calls (``search.dedup_skipped``).
"""

from __future__ import annotations

import os

from repro.core import explain, explain_many
from repro.core.messages import render_suggestion
from repro.corpus import generate_corpus
from repro.obs import MetricsRegistry

#: ``f`` is binary but applied to three arguments: several enumerator
#: rules (drop-an-argument variants, currying probes) propose the same
#: repaired applications, so this search tests duplicate candidates.
OVERAPPLIED = "let f x y = x + y\nlet r = f 1 1 1\n"

FIG2 = """\
let map2 f aList bList =
  List.map (fun (a, b) -> f a b) (List.combine aList bList)
let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]
"""


def _signature(result):
    return (
        result.ok,
        result.bad_decl_index,
        result.render(limit=50),
        [render_suggestion(s) for s in result.suggestions],
    )


def test_dedup_skips_duplicate_candidates():
    registry = MetricsRegistry()
    result = explain(OVERAPPLIED, metrics=registry)
    assert registry.value("search.dedup_skipped") > 0
    assert result.stats.dedup_skipped == registry.value("search.dedup_skipped")


def test_dedup_reduces_oracle_calls():
    with_dedup = explain(OVERAPPLIED)
    without = explain(OVERAPPLIED, dedup=False)
    assert with_dedup.oracle_calls < without.oracle_calls


def test_suggestions_unchanged_by_dedup():
    for source in (OVERAPPLIED, FIG2):
        with_dedup = explain(source)
        without = explain(source, dedup=False)
        assert _signature(with_dedup) == _signature(without)


def test_suggestions_unchanged_across_corpus():
    corpus = generate_corpus(scale=0.1, seed=23)
    for corpus_file in corpus.representatives:
        with_dedup = explain(corpus_file.program)
        without = explain(corpus_file.program, dedup=False)
        assert _signature(with_dedup) == _signature(without), (
            f"dedup changed answers on {corpus_file.programmer}/"
            f"{corpus_file.assignment}"
        )


def test_dedup_statistics_line():
    result = explain(OVERAPPLIED)
    assert "duplicate candidates skipped" in result.stats.summary()


def test_disabled_dedup_reports_no_skips():
    registry = MetricsRegistry()
    result = explain(OVERAPPLIED, dedup=False, metrics=registry)
    assert registry.value("search.dedup_skipped") == 0
    assert result.stats.dedup_skipped == 0


def test_memo_is_per_search():
    """Two searches on one Searcher must not leak verdicts across runs."""
    from repro.core.searcher import SearchConfig, Searcher
    from repro.miniml.parser import parse_program

    searcher = Searcher(config=SearchConfig())
    first = searcher.search_program(parse_program(OVERAPPLIED))
    second = searcher.search_program(parse_program(OVERAPPLIED))
    assert first.oracle_calls == second.oracle_calls
    assert [render_suggestion(s) for s in first.suggestions] == [
        render_suggestion(s) for s in second.suggestions
    ]


def test_dedup_works_in_batch_workers():
    serial = explain(OVERAPPLIED)
    entry = explain_many([OVERAPPLIED, FIG2], jobs=2)[0]
    assert entry.worker_pid != os.getpid()
    assert _signature(entry.result) == _signature(serial)
    assert entry.oracle_calls == serial.oracle_calls
    assert entry.result.stats.dedup_skipped == serial.stats.dedup_skipped
    assert serial.stats.dedup_skipped > 0
