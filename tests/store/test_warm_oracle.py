"""Warm-start contract: a persistent store changes *cost*, never *answers*.

Suggestions, ranks, ``oracle_calls`` and the ``[N oracle calls]``,
phase, successful-changes and degradation lines of ``--stats`` must be
byte-identical whether the store is cold, warm, or absent; and a warm
second run over the corpus must spend strictly fewer real checker
invocations (the ``oracle.calls`` *metric* — the logical
``Oracle.calls`` attribute still counts every question so budgets behave
identically).  The reuse counters (``full_checks``,
``oracle.prefix.reused``, ...) count checker work, so they shrink on
store hits too.  A stored verdict is keyed by the program alone: it is
served whether or not a prefix snapshot answered it.
"""

from __future__ import annotations

import pytest

from repro.core import explain, explain_many
from repro.core.messages import render_suggestion
from repro.core.oracle import Oracle
from repro.core.quickfix import fix_all
from repro.corpus import generate_corpus
from repro.faults import ChaosOracle, FaultPlan
from repro.miniml.ast_nodes import Program
from repro.miniml.infer import typecheck_program
from repro.miniml.parser import parse_program
from repro.obs import MetricsRegistry
from repro.store import VerdictStore

FIG2 = """\
let map2 f aList bList =
  List.map (fun (a, b) -> f a b) (List.combine aList bList)
let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]
"""

ILL_TYPED = "let f x = x + 1\nlet b = f true\n"


def _signature(result):
    return (
        result.ok,
        result.bad_decl_index,
        result.oracle_calls,
        result.render(limit=50),
        [render_suggestion(s) for s in result.suggestions],
    )


class TestOracleStoreTier:
    def test_warm_oracle_skips_real_checks(self, tmp_path):
        program = parse_program(ILL_TYPED)
        cold_metrics = MetricsRegistry()
        cold = Oracle(metrics=cold_metrics,
                      store=VerdictStore(tmp_path / "s"))
        cold_result = cold.check(program)
        cold.store.close()
        assert cold.store_misses > 0
        assert cold.store_writes > 0

        warm_metrics = MetricsRegistry()
        warm = Oracle(metrics=warm_metrics,
                      store=VerdictStore(tmp_path / "s"))
        warm_result = warm.check(program)
        assert warm.store_hits > 0
        # Logical accounting identical; the checker-work counters are not.
        assert warm.calls == cold.calls
        assert warm.full_checks == 0 < cold.full_checks
        assert warm_metrics.value("oracle.calls") == 0
        assert cold_metrics.value("oracle.calls") > 0
        assert warm_metrics.value("oracle.store.hits") == warm.store_hits

        assert warm_result.ok == cold_result.ok
        assert warm_result.error.render() == cold_result.error.render()
        assert getattr(warm_result.error, "kind", None) == getattr(
            cold_result.error, "kind", None
        )

    def test_store_is_the_repeat_check_tier(self, tmp_path):
        # With no in-memory verdict memo, a repeated question inside one
        # session is answered by the store, not by a second real check.
        program = parse_program(ILL_TYPED)
        metrics = MetricsRegistry()
        oracle = Oracle(metrics=metrics, store=VerdictStore(tmp_path / "s"))
        first = oracle.check(program)
        hits_before = oracle.store_hits
        real_checks = metrics.value("oracle.calls")
        second = oracle.check(program)
        assert oracle.store_hits == hits_before + 1
        assert metrics.value("oracle.calls") == real_checks
        assert oracle.calls == 2
        assert second.ok is first.ok is False
        assert second.error.render() == first.error.render()

    @pytest.mark.parametrize(
        "writer_armed", [False, True], ids=["unarmed-writer", "armed-writer"]
    )
    def test_verdict_served_across_snapshot_regimes(self, tmp_path, writer_armed):
        # Written with no snapshot armed and asked with one, or the
        # reverse: the verdict is the program's, so it is served.
        program = parse_program(ILL_TYPED)

        def sharing(source):
            return Program([program.decls[0], parse_program(source).decls[0]])

        candidate = sharing('let b = f "one"')
        reference = typecheck_program(candidate)
        answers = []
        for writer, armed in ((True, writer_armed), (False, not writer_armed)):
            metrics = MetricsRegistry()
            oracle = Oracle(metrics=metrics, store=VerdictStore(tmp_path / "s"))
            if armed:
                # A baseline, then a real check of another candidate that
                # edits its failing declaration: it arms the snapshot.
                oracle.check(program)
                oracle.check(sharing("let b = f 2.0"))
                assert oracle._snapshot is not None
                assert metrics.value("oracle.prefix.reused") == 1
            calls = metrics.value("oracle.calls")
            answers.append(oracle.check(candidate))
            if armed:
                assert oracle._snapshot is not None
            if writer:
                assert oracle.store_hits == 0
                if armed:
                    # The snapshot answered the candidate it wrote.
                    assert metrics.value("oracle.prefix.reused") == 2
            oracle.store.close()
        assert oracle.store_hits == 1
        assert metrics.value("oracle.calls") == calls
        for result in answers:
            assert result.ok is reference.ok is False
            assert result.error.render() == reference.error.render()

    def test_partly_warm_rerun_arms_without_recording(self, tmp_path):
        # A store written by a search its budget cut short answers the
        # rerun's baseline and localization; the first candidate it
        # misses arms the snapshot, and no check needs the decl table.
        explain(FIG2, store=tmp_path / "s", max_oracle_calls=8)
        metrics = MetricsRegistry()
        rerun = explain(FIG2, store=tmp_path / "s", metrics=metrics)
        assert _signature(rerun) == _signature(explain(FIG2))
        assert metrics.value("oracle.store.hits") >= 8
        assert metrics.value("oracle.store.misses") > 0
        assert metrics.value("oracle.prefix.armed") == 1
        assert metrics.value("oracle.prefix.reused") > 0
        assert metrics.value("oracle.decl.armed") == 0

    def test_crashed_check_writes_no_verdict(self, tmp_path):
        store = VerdictStore(tmp_path / "s")
        oracle = ChaosOracle(FaultPlan(crash_every=1), store=store)
        result = oracle.check(parse_program(ILL_TYPED))
        assert result.ok is False
        assert oracle.crashes == 1
        assert (oracle.store_writes, len(store)) == (0, 0)
        store.close()
        assert not list((tmp_path / "s").glob("seg-*"))

    def test_reset_keeps_store_attached(self, tmp_path):
        oracle = Oracle(store=VerdictStore(tmp_path / "s"))
        oracle.check(parse_program(ILL_TYPED))
        oracle.reset()
        assert oracle.store is not None
        assert (oracle.store_hits, oracle.store_misses, oracle.store_writes) \
            == (0, 0, 0)


class TestExplainStoreDeterminism:
    def test_cold_warm_absent_byte_identical(self, tmp_path):
        absent = explain(FIG2)
        cold = explain(FIG2, store=tmp_path / "s")
        warm = explain(FIG2, store=tmp_path / "s")
        assert _signature(cold) == _signature(absent)
        assert _signature(warm) == _signature(absent)

    def test_warm_run_hits_store(self, tmp_path):
        explain(FIG2, store=tmp_path / "s")
        metrics = MetricsRegistry()
        explain(FIG2, store=tmp_path / "s", metrics=metrics)
        assert metrics.value("oracle.store.hits") > 0
        assert metrics.value("oracle.calls") \
            < metrics.value("oracle.store.hits")

    def test_warm_matches_serial(self, tmp_path):
        serial = explain(FIG2)
        explain(FIG2, store=tmp_path / "s")  # seed the store
        warm = explain(FIG2, store=tmp_path / "s")
        assert _signature(warm) == _signature(serial)

    def test_fix_all_accepts_store(self, tmp_path):
        cold = fix_all(ILL_TYPED, store=tmp_path / "s")
        metrics = MetricsRegistry()
        warm = fix_all(ILL_TYPED, store=tmp_path / "s", metrics=metrics)
        assert (warm.source, warm.ok, warm.applied) \
            == (cold.source, cold.ok, cold.applied)
        assert metrics.value("oracle.store.hits") > 0


CORPUS = generate_corpus(scale=0.15, seed=11)


def _batch_signature(entries):
    return [
        (e.label, e.ok, e.error, e.report, e.best, e.suggestions,
         e.oracle_calls)
        for e in entries
    ]


def _aggregate_calls(entries):
    total = MetricsRegistry()
    for entry in entries:
        if entry.metrics:
            total.merge_snapshot(entry.metrics)
    return total.value("oracle.calls")


class TestCorpusWarmVsCold:
    """The headline acceptance test, at jobs=1 and jobs=4."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_warm_byte_identical_and_strictly_cheaper(self, tmp_path, jobs):
        sources = [f.program for f in CORPUS.representatives]
        labels = [
            f"{f.programmer}/{f.assignment}" for f in CORPUS.representatives
        ]
        store = tmp_path / f"store-j{jobs}"
        baseline = explain_many(sources, labels, jobs=jobs,
                                collect_metrics=True)
        cold = explain_many(sources, labels, jobs=jobs, store=store,
                            collect_metrics=True)
        warm = explain_many(sources, labels, jobs=jobs, store=store,
                            collect_metrics=True)

        assert _batch_signature(cold) == _batch_signature(baseline)
        assert _batch_signature(warm) == _batch_signature(baseline)

        cold_calls = _aggregate_calls(cold)
        warm_calls = _aggregate_calls(warm)
        assert warm_calls < cold_calls
