"""Declaration table: record, unchanged-prefix answers, declines.

The table's contract mirrors the prefix snapshot's: *semantic
transparency*, with matching by identity.  It answers exactly the programs
whose declarations *are* the recorded baseline's (up to their own end or
the baseline's first failing declaration) — the baseline's unchanged
prefixes — with the same verdict, and on failure the same rendered error,
as a full :func:`typecheck_program` pass; it declines (``None``) every
other program, structurally equal copies included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core import Oracle, explain
from repro.core.messages import render_suggestion
from repro.corpus import generate_corpus
from repro.miniml import parse_program
from repro.miniml.ast_nodes import Program
from repro.miniml.infer import (
    record_decl_table,
    replay_decl_table,
    typecheck_program,
)
from repro.miniml.types import type_to_string
from repro.obs.metrics import MetricsRegistry
from repro.tree import copy_tree
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

#: Weak ``ref []`` cells, pinned by later declarations (one of them the
#: failing one).
WEAK = """\
let cell = ref []
let put = cell := [1]
type t = A | B of int
let other = ref []
let bad = (other := ["s"]); 1 + true
"""

#: Declarations an edited program draws from: some bind the baselines'
#: names at other types (so some fail where they land), some re-declare a
#: type.
EDITS = parse_program(
    """\
let base = "ten"
let double x = x ^ "!"
let cell = ref [true]
let put = cell := ["s"]
let bad = 1 + 2
exception Boom of int
type t = A
let total = base + 1
"""
).decls

SWEEP = generate_corpus(scale=0.15, seed=2007).representatives


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
        decls, error = table
        assert all(mine is theirs for mine, theirs in zip(decls, program.decls))
        assert len(decls) == len(program.decls)
        assert error is None

    def test_recording_stops_at_failing_decl(self):
        program = parse_program(ILL_TYPED)
        table, result = record_decl_table(program)
        assert not result.ok
        assert table is not None
        # The table covers decls up to and including the failing one.
        decls, error = table
        assert len(decls) == 3
        assert error is result.error

    def test_recursion_blowup_records_no_table(self):
        from tests.miniml.test_deep_nesting import PATHOLOGICAL, deep_app_chain

        program = deep_app_chain(PATHOLOGICAL)
        table, result = record_decl_table(program)
        assert table is None
        _assert_same(result, typecheck_program(program))


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

    def test_every_prefix_is_answered(self):
        program = parse_program(ILL_TYPED)
        table, _ = record_decl_table(program)
        decls, _ = table
        for n in range(len(decls) + 1):
            prefix = Program(program.decls[:n])
            replayed = replay_decl_table(prefix, table)
            _assert_same(replayed, typecheck_program(prefix))
            assert replayed.decls_replayed == n

    def test_edited_program_is_declined(self):
        baseline = parse_program(ILL_TYPED)
        table, _ = record_decl_table(baseline)
        edited = list(baseline.decls)
        edited[1] = parse_program("let double x = x + x").decls[0]
        assert replay_decl_table(Program(edited), table) is None

    def test_program_past_a_passing_baseline_is_declined(self):
        baseline = parse_program(WELL_TYPED)
        table, _ = record_decl_table(baseline)
        longer = Program(list(baseline.decls) + list(EDITS[:1]))
        assert replay_decl_table(longer, table) is None

    def test_replay_binds_no_weak_scheme(self):
        # The table records no schemes: answered prefixes carry an empty
        # top level, and neither they nor declined edits (which would pin
        # `cell` to bool) change the recorded error.
        program = parse_program(WEAK)
        table, _ = record_decl_table(program)
        decls, error = table
        rendered = error.render()
        for n in range(len(decls)):
            answer = replay_decl_table(Program(program.decls[: n + 1]), table)
            assert answer.top_level == {}
            edited = list(program.decls[:n]) + [EDITS[2], EDITS[3]]
            assert replay_decl_table(Program(edited), table) is None
        assert error.render() == rendered


class TestOracleTableRoute:
    def test_copied_prefix_is_checked_from_scratch(self):
        # Structurally equal declarations that are not the baseline's
        # objects are not the table's to answer.
        baseline = parse_program(ILL_TYPED)
        metrics = MetricsRegistry()
        oracle = Oracle(metrics=metrics)
        # The first check is the baseline: the table records it.
        assert not oracle.check(baseline).ok
        checked = metrics.value("oracle.decl.checked")
        copied = Program([copy_tree(d) for d in baseline.decls[:2]])
        answer = oracle.check(copied)
        _assert_same(answer, typecheck_program(copied))
        assert answer.ok
        assert metrics.value("oracle.decl.replayed") == 0
        assert metrics.value("oracle.decl.checked") == checked + 2
        # The table stays armed for the baseline's own prefixes, and the
        # copy, which edits the first declaration, armed no snapshot.
        assert oracle.check(Program(baseline.decls[:2])).ok
        assert metrics.value("oracle.decl.replayed") == 2
        assert metrics.value("oracle.prefix.armed") == 0

    def test_prefix_answer_shows_no_scheme_a_later_decl_pinned(self):
        # `put` pins the weak `cell` to `int list ref` in the recording
        # pass; the one-declaration prefix must not report that scheme.
        program = parse_program("let cell = ref []\nlet put = cell := [1]\n")
        metrics = MetricsRegistry()
        oracle = Oracle(metrics=metrics)
        assert oracle.check(program).ok
        answer = oracle.check(Program(program.decls[:1]))
        assert answer.ok
        assert metrics.value("oracle.decl.replayed") == 1
        shown = [type_to_string(s.body) for s in answer.top_level.values()]
        assert "int list ref" not in shown
        assert answer.top_level == {}


def _answerable(probe, baseline):
    """Whether ``probe``'s declarations are ``baseline``'s up to its own
    end or the baseline's first failing declaration."""
    result = typecheck_program(baseline)
    covered = result.decls_checked  # up to and including the first failure
    if len(probe.decls) > covered and result.ok:
        return False
    return all(
        mine is theirs
        for mine, theirs in zip(probe.decls[:covered], baseline.decls)
    )


@st.composite
def baseline_and_probe(draw):
    """A baseline and a probe built from its declarations (shared or
    copied) and from :data:`EDITS`, of any length up to one past it."""
    baseline = draw(
        st.sampled_from(
            [parse_program(s) for s in (WELL_TYPED, ILL_TYPED, WEAK)]
            + [f.program for f in SWEEP[:10]]
        )
    )
    decls = []
    for i in range(draw(st.integers(0, len(baseline.decls) + 1))):
        kind = draw(st.sampled_from(["same", "copy", "edit"]))
        if kind == "edit" or i >= len(baseline.decls):
            decls.append(draw(st.sampled_from(EDITS)))
        elif kind == "copy":
            decls.append(copy_tree(baseline.decls[i]))
        else:
            decls.append(baseline.decls[i])
    return baseline, Program(decls)


class TestPrefixProperty:
    @given(baseline_and_probe())
    @settings(max_examples=150, deadline=None)
    def test_answers_exactly_the_unchanged_prefixes(self, case):
        baseline, probe = case
        table, _ = record_decl_table(baseline)
        answer = replay_decl_table(probe, table)
        assert (answer is not None) == _answerable(probe, baseline)
        if answer is not None:
            _assert_same(answer, typecheck_program(probe))
            assert answer.decls_checked == 0


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

    @pytest.mark.parametrize("index", range(len(SWEEP)), ids=lambda i: f"rep{i:02d}")
    def test_representative_zero_mismatches(self, index):
        program = SWEEP[index].program
        metrics = MetricsRegistry()
        oracle = ReferenceCheckingOracle(metrics=metrics)
        checked = explain(program, oracle=oracle)
        reference = explain(program, oracle=Oracle(typecheck=typecheck_program))
        assert oracle.compared > 0
        assert checked.ok == reference.ok
        assert checked.oracle_calls == reference.oracle_calls
        assert [render_suggestion(s) for s in checked.suggestions] == [
            render_suggestion(s) for s in reference.suggestions
        ]
        if checked.bad_decl_index:
            # Localization's prefix scan is the table's to answer.
            assert metrics.value("oracle.decl.replayed") > 0
        assert metrics.value("oracle.decl.fallbacks") == 0
