"""The default oracle's reuse routes against the from-scratch reference.

A naive from-scratch check defines what a correct answer is: plain
:func:`~repro.miniml.infer.typecheck_program` with no snapshot, decl table,
trail, memo or store.  ``Oracle(typecheck=plain)`` is exactly that — any
custom checker turns every reuse route off — so each case here searches a
program twice, once with ``explain()``'s default oracle and once with the
reference, and requires everything user-visible to be equal: the rendered
report, the suggestion ranks, the oracle-call count and the ``--stats``
phase summary.  Axes: every representative of a generated corpus, deep
programs with weak ``ref []`` cells (the ill-typed declaration early or
late), a cold and a warm verdict store, and ``explain_many(jobs=2)``.
"""

import pytest

from repro.core import Oracle, explain, explain_many
from repro.core.messages import render_suggestion
from repro.corpus import generate_corpus
from repro.miniml import parse_program
from repro.miniml.infer import (
    SpeculativeState,
    TrailIntegrityError,
    typecheck_program,
)
from repro.obs import MetricsRegistry, suggestion_rows
from repro.store import VerdictStore

MAX_CALLS = 20000

REPRESENTATIVES = generate_corpus(scale=0.15, seed=11).representatives


def plain(program):
    """The reference checker: one from-scratch pass per oracle call."""
    return typecheck_program(program)


def reference_oracle(**kwargs):
    return Oracle(typecheck=plain, max_calls=MAX_CALLS, **kwargs)


def _visible(result):
    return (
        result.render(limit=3),
        [render_suggestion(s) for s in result.suggestions],
        suggestion_rows(result.suggestions),
        result.oracle_calls,
        result.stats.summary() if result.stats is not None else None,
    )


def _deep_weak_source(n, bad):
    """``n`` declarations, every fifth a weak ``ref []`` cell; every other
    cell is pinned to ``int list`` by the function after it, the rest stay
    weak.  Declaration ``bad`` pins the last weak cell before it to
    ``string list`` and then passes the string to an int function, so its
    candidates pin that cell one way or the other."""
    lines = []
    for i in range(n):
        if i == bad:
            cell = (i - 5) // 10 * 10 + 5
            lines.append(
                f'let f{i} x = (r{cell} := [x]); (r{cell} := ["s"]); f{i - 1} x'
            )
        elif i % 5 == 0:
            lines.append(f"let r{i} = ref []")
        elif i % 10 == 2:
            lines.append(f"let f{i} x = (r{i - 2} := [x]); x + {i}")
        elif i % 5 == 1:
            lines.append(f"let f{i} x = x * {i}")
        else:
            lines.append(f"let f{i} x = f{i - 1} x + {i}")
    return "\n".join(lines) + "\n"


DEEP_WEAK = {
    "early": _deep_weak_source(40, 8),
    "late": _deep_weak_source(40, 38),
}


@pytest.mark.parametrize(
    "index", range(len(REPRESENTATIVES)), ids=lambda i: f"rep{i:02d}"
)
def test_corpus_representative_matches_reference(index):
    program = REPRESENTATIVES[index].program
    reference = explain(program, oracle=reference_oracle())
    assert _visible(explain(program)) == _visible(reference)


@pytest.mark.parametrize(
    "index", range(len(REPRESENTATIVES)), ids=lambda i: f"rep{i:02d}"
)
def test_cold_and_warm_store_match_reference(index, tmp_path):
    program = REPRESENTATIVES[index].program
    reference = _visible(explain(program, oracle=reference_oracle()))
    with VerdictStore(tmp_path) as store:
        assert _visible(explain(program, store=store)) == reference
    warm_metrics = MetricsRegistry()
    with VerdictStore(tmp_path) as store:
        warm = explain(program, store=store, metrics=warm_metrics)
    assert _visible(warm) == reference
    if reference[3]:
        assert warm_metrics.value("oracle.store.hits") > 0


@pytest.mark.parametrize("side", sorted(DEEP_WEAK))
def test_deep_weak_program_matches_reference(side):
    source = DEEP_WEAK[side]
    metrics = MetricsRegistry()
    result = explain(source, metrics=metrics)
    assert not result.ok and result.suggestions
    assert _visible(result) == _visible(explain(source, oracle=reference_oracle()))
    # The program exercises both reuse routes over live weak schemes.
    assert metrics.value("oracle.prefix.reused") > 0
    assert metrics.value("oracle.decl.replayed") > 0
    assert metrics.value("oracle.trail.rolled_back") > 0
    # Only snapshot checks run under a trail: the table never speculates.
    assert metrics.value("oracle.trail.speculated") == metrics.value(
        "oracle.prefix.reused"
    )
    assert metrics.value("oracle.prefix.fallbacks") == 0
    assert metrics.value("oracle.decl.fallbacks") == 0


@pytest.mark.parametrize("side", sorted(DEEP_WEAK))
def test_healed_search_matches_reference(side, monkeypatch):
    # Every snapshot check fails its trail: the first heals the snapshot
    # away, and every later candidate, each of which edits the declaration
    # that pins a weak cell, is checked from scratch (the decl table
    # declines it).
    def corrupt(self, program, freeze_errors=True):
        raise TrailIntegrityError("speculative rollback failed")

    source = DEEP_WEAK[side]
    reference = _visible(explain(source, oracle=reference_oracle()))
    monkeypatch.setattr(SpeculativeState, "check", corrupt)
    metrics = MetricsRegistry()
    assert _visible(explain(source, metrics=metrics)) == reference
    assert metrics.value("oracle.prefix.fallbacks") == 1
    assert metrics.value("oracle.decl.checked") > 0
    assert metrics.value("oracle.decl.fallbacks") == 0


def test_deep_weak_programs_are_ill_typed_where_planted():
    for side, bad in (("early", 8), ("late", 38)):
        program = parse_program(DEEP_WEAK[side])
        assert explain(program).bad_decl_index == bad


def _largest(n=4):
    return sorted(
        REPRESENTATIVES, key=lambda c: len(c.program.decls), reverse=True
    )[:n]


def test_batch_workers_match_reference():
    largest = _largest()
    entries = explain_many([c.program for c in largest], jobs=2)
    for corpus_file, entry in zip(largest, entries):
        reference = explain(corpus_file.program, oracle=reference_oracle())
        assert _visible(entry.result) == _visible(reference)


def test_batch_workers_count_like_serial():
    # A worker reuses, and accounts its reuse counters, exactly like a
    # serial search of the same file.
    largest = _largest()
    entries = explain_many(
        [c.program for c in largest], jobs=2, collect_metrics=True
    )
    for corpus_file, entry in zip(largest, entries):
        metrics = MetricsRegistry()
        serial = explain(corpus_file.program, metrics=metrics)
        assert _visible(entry.result) == _visible(serial)
        assert entry.metrics["counters"] == metrics.counters()


def test_rebound_name_matches_reference():
    # The failing declaration's name is rebound after it; localization's
    # prefixes are still the decl table's to answer.
    source = (
        "let size = 4\n"
        "let bad = size + true\n"
        "let size = 100\n"
        "let uses = size * 2\n"
    )
    metrics = MetricsRegistry()
    result = explain(source, metrics=metrics)
    assert _visible(result) == _visible(explain(source, oracle=reference_oracle()))
    assert metrics.value("oracle.decl.replayed") > 0


def test_decl_table_halves_inferred_declarations():
    # On the deepest programs of a larger corpus, the table (plus the
    # prefix snapshot) must really infer at most half the declarations
    # the from-scratch reference infers, for the same oracle calls.
    corpus = generate_corpus(scale=0.3, seed=7)
    deepest = sorted(
        corpus.representatives, key=lambda f: len(f.program.decls), reverse=True
    )[:10]
    production, reference = MetricsRegistry(), MetricsRegistry()
    for corpus_file in deepest:
        fast = explain(corpus_file.program, metrics=production)
        slow = explain(
            corpus_file.program,
            oracle=reference_oracle(metrics=reference),
            metrics=reference,
        )
        assert fast.oracle_calls == slow.oracle_calls
    reused = production.value("oracle.decl.checked")
    scratch = reference.value("oracle.decl.checked")
    assert scratch >= 2 * reused, (scratch, reused)
    assert production.value("oracle.decl.replayed") > 0
    assert production.value("oracle.decl.skipped") > 0
    assert production.value("oracle.decl.fallbacks") == 0
