"""Declaration outcome table: record/replay equivalence and degradation.

The table's contract mirrors the prefix snapshot's: *semantic
transparency*.  For any candidate, :func:`replay_decl_table` must return
the same verdict — and on failure, the same rendered error — as a full
:func:`typecheck_program` pass.  Staleness and fingerprint mismatches may
only ever cost speed (degrading replays to real checks), never answers.
"""

import pytest

from repro.core import explain
from repro.core.messages import render_suggestion
from repro.corpus import generate_corpus
from repro.miniml import parse_program
from repro.miniml.infer import (
    _scheme_fingerprint,
    record_decl_table,
    replay_decl_table,
    typecheck_program,
)
from repro.obs.metrics import MetricsRegistry
from tests.core.reference_checking import ReferenceCheckingOracle

WELL_TYPED = """\
let base = 10
let double x = x * 2
let rec fact n = if n <= 1 then 1 else n * fact (n - 1)
let total = base + double 3
let label = "done"
"""

ILL_TYPED = """\
let base = 10
let double x = x * 2
let bad = double "nope"
let after = base + 1
"""


def _errtext(result):
    return result.error.render() if result.error is not None else None


def _assert_same(a, b):
    assert a.ok == b.ok
    assert _errtext(a) == _errtext(b)


class TestRecord:
    def test_recording_is_a_complete_check(self):
        program = parse_program(WELL_TYPED)
        table, result = record_decl_table(program)
        _assert_same(result, typecheck_program(program))
        assert table is not None
        assert len(table) == len(program.decls)

    def test_recording_stops_at_failing_decl(self):
        program = parse_program(ILL_TYPED)
        table, result = record_decl_table(program)
        assert not result.ok
        assert table is not None
        # Entries cover decls up to and including the failing one.
        assert len(table) == 3
        assert table.entries[2].error is not None


class TestReplay:
    def test_identical_program_is_pure_replay(self):
        program = parse_program(WELL_TYPED)
        table, _ = record_decl_table(program)
        replayed = replay_decl_table(program, table)
        _assert_same(replayed, typecheck_program(program))
        assert replayed.decls_replayed == len(program.decls)
        assert replayed.decls_checked == 0

    def test_recorded_failure_replays(self):
        program = parse_program(ILL_TYPED)
        table, _ = record_decl_table(program)
        replayed = replay_decl_table(program, table)
        _assert_same(replayed, typecheck_program(program))
        assert not replayed.ok

    def test_mutated_decl_rechecks_only_dependents(self):
        baseline = parse_program(WELL_TYPED)
        table, _ = record_decl_table(baseline)
        # Mutate `double` (decl 1): `total` (decl 3) uses it; `base`,
        # `fact`, `label` are independent.
        candidate_decls = list(baseline.decls)
        candidate_decls[1] = parse_program("let double x = x + x").decls[0]
        candidate = type(baseline)(candidate_decls)
        replayed = replay_decl_table(candidate, table)
        _assert_same(replayed, typecheck_program(candidate))
        assert replayed.decls_checked == 2
        assert replayed.decls_replayed == 3
        assert replayed.decls_degraded == 0

    def test_mutation_that_breaks_a_dependent_fails_identically(self):
        baseline = parse_program(WELL_TYPED)
        table, _ = record_decl_table(baseline)
        candidate_decls = list(baseline.decls)
        # `double` now returns a string: `total = base + double 3` breaks.
        candidate_decls[1] = parse_program('let double x = "two"').decls[0]
        candidate = type(baseline)(candidate_decls)
        replayed = replay_decl_table(candidate, table)
        full = typecheck_program(candidate)
        _assert_same(replayed, full)
        assert not replayed.ok

    def test_weak_scheme_replay_does_not_leak_across_passes(self):
        # `cell` is weak (value restriction).  Replaying it twice with
        # incompatible downstream mutations must not let one candidate's
        # unifications contaminate the other (or the table itself).
        src = "let cell = ref []\nlet put = cell := [1]\nlet tail = 0"
        baseline = parse_program(src)
        table, rec = record_decl_table(baseline)
        assert rec.ok and table is not None
        mk = lambda last: type(baseline)(  # noqa: E731
            list(baseline.decls[:2]) + [parse_program(last).decls[0]]
        )
        for last in ('let tail = cell := ["s"]', "let tail = cell := [2]"):
            candidate = mk(last)
            _assert_same(
                replay_decl_table(candidate, table),
                typecheck_program(candidate),
            )

    def test_weak_replay_leaves_table_fingerprints_unchanged(self):
        # `cell` stays weak in the recorded baseline.  The planner normally
        # re-infers a weak binding's declaration whenever a checked
        # declaration touches it; clear the table's weak names so the
        # recorded scheme itself is bound live and pinned, leaving the
        # replay's trail as the only thing that keeps the table pristine.
        # A failing candidate pins `cell` to int before failing, a passing
        # one pins it to bool.
        src = "let cell = ref []\nlet x = 0\nlet y = 0"
        baseline = parse_program(src)
        table, rec = record_decl_table(baseline)
        assert rec.ok and table is not None and table.free_vars
        for entry in table.entries:
            entry.weak_names = frozenset()

        def fingerprints():
            return [
                {name: _scheme_fingerprint(s) for name, s in e.bindings.items()}
                for e in table.entries
            ]

        before = fingerprints()
        mk = lambda x, y: type(baseline)(  # noqa: E731
            [baseline.decls[0], parse_program(x).decls[0], parse_program(y).decls[0]]
        )
        failing = mk("let x = cell := [1]", 'let y = cell := ["s"]')
        passing = mk("let x = cell := [true]", "let y = 0")
        for candidate, ok in ((failing, False), (passing, True)):
            replayed = replay_decl_table(candidate, table)
            _assert_same(replayed, typecheck_program(candidate))
            assert replayed.ok is ok
            assert replayed.decls_replayed >= 1  # `cell`, bound live
            assert fingerprints() == before

    @pytest.mark.parametrize(
        "baseline_src,edited",
        [
            # Pinned by a later passing declaration the candidate edits.
            ("let r = ref []\nlet a = r := [1]\nlet b = 2", 'let a = r := ["s"]'),
            # Pinned part-way by the failing declaration itself.
            ('let r = ref []\nlet a = (r := ["s"]); 1 + true', "let a = (r := [1]); 1 + 2"),
        ],
    )
    def test_weak_binding_pinned_later_is_rechecked(self, baseline_src, edited):
        # `r` is weak when bound; the end-of-pass scheme carries the pin of
        # a later declaration, which the candidate no longer makes.
        baseline = parse_program(baseline_src)
        table, _ = record_decl_table(baseline)
        decls = list(baseline.decls)
        decls[1] = parse_program(edited).decls[0]
        candidate = type(baseline)(decls)
        replayed = replay_decl_table(candidate, table)
        assert typecheck_program(candidate).ok
        _assert_same(replayed, typecheck_program(candidate))


class TestDegradation:
    def test_stale_table_degrades_to_full_check(self):
        program = parse_program(WELL_TYPED)
        table, _ = record_decl_table(program)
        table.stale = True
        replayed = replay_decl_table(program, table)
        _assert_same(replayed, typecheck_program(program))
        assert replayed.decls_replayed == 0
        assert replayed.decls_checked == len(program.decls)
        assert replayed.decls_degraded == len(program.decls)

    def test_corrupt_fingerprint_degrades_that_decl_onward(self):
        program = parse_program(WELL_TYPED)
        table, _ = record_decl_table(program)
        # `total` (decl 3) records an env fingerprint for `base` and
        # `double`; corrupting it must force a real check of decl 3+.
        entry = table.entries[3]
        assert entry.env_fp, "expected a non-empty used-names fingerprint"
        name = sorted(entry.env_fp)[0]
        entry.env_fp = dict(entry.env_fp, **{name: "corrupted"})
        replayed = replay_decl_table(program, table)
        _assert_same(replayed, typecheck_program(program))
        assert replayed.decls_degraded >= 1
        assert replayed.decls_checked >= 2  # decl 3 and everything after


class TestCrossCheckSweep:
    """Every check of a corpus search against the from-scratch reference.

    :class:`ReferenceCheckingOracle` re-derives each answered check with
    plain ``typecheck_program`` and raises on any divergence, so a clean
    sweep is the proof.  With a store attached the rendered messages are
    compared as well."""

    @pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
    @pytest.mark.parametrize("scale,seed", [(0.1, 7)])
    def test_corpus_sweep_zero_mismatches(self, scale, seed, with_store, tmp_path):
        corpus = generate_corpus(scale=scale, seed=seed).representatives
        metrics = MetricsRegistry()
        compared = 0
        for corpus_file in corpus:
            oracle = ReferenceCheckingOracle(metrics=metrics)
            checked = explain(
                corpus_file.program,
                oracle=oracle,
                store=tmp_path / "s" if with_store else None,
            )
            plain = explain(corpus_file.program)
            assert checked.ok == plain.ok
            assert [render_suggestion(s) for s in checked.suggestions] == [
                render_suggestion(s) for s in plain.suggestions
            ]
            compared += oracle.compared
        assert compared > 0
        assert metrics.value("oracle.decl.replayed") > 0
        assert metrics.value("oracle.prefix.reused") > 0
