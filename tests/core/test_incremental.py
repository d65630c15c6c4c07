"""Prefix-reuse incremental typechecking: snapshot API and equivalence.

The optimization's contract is *semantic transparency*: for any program
whose first ``k`` declarations type-check, checking its suffix against the
:class:`~repro.miniml.infer.SpeculativeState` armed by
:func:`~repro.miniml.infer.snapshot_prefix` for those ``k`` declarations
must return the same verdict — and on failure, the same rendered error —
as inference from the empty environment.  These tests exercise the
contract directly at the infer layer, then property-style over generated
corpus programs through the full search (with
:class:`~tests.core.reference_checking.ReferenceCheckingOracle`, which
re-derives every answered check from scratch and compares it in-process).
"""

import pytest

from repro.core import Oracle
from repro.core.messages import render_suggestion
from repro.core.seminal import explain
from repro.miniml import parse_program
from repro.miniml.ast_nodes import Program
from repro.miniml.infer import snapshot_prefix, typecheck_program
from tests.core.reference_checking import ReferenceCheckingOracle

#: Ill-typed programs with at least one passing leading declaration,
#: covering the declaration forms a snapshot must capture: values,
#: functions, type declarations (constructors + arities), exceptions.
PROGRAMS = [
    "let x = 1\nlet y = x + true",
    "let f x = x + 1\nlet g = f true",
    "let pair = (1, true)\nlet s = fst pair ^ \"!\"",
    "type t = A | B of int\nlet v = B true",
    "exception Boom of int\nlet r = raise (Boom true)",
    "let id x = x\nlet twice f x = f (f x)\nlet bad = twice id true + 1",
]


def _passing_splits(program):
    """Split points whose prefix type-checks (snapshot candidates)."""
    for k in range(1, len(program.decls)):
        if typecheck_program(Program(program.decls[:k])).ok:
            yield k


class TestSnapshotApi:
    def test_matches_is_identity_based(self):
        program = parse_program("let a = 1\nlet b = a + true")
        snapshot = snapshot_prefix(program, 1)
        assert snapshot.matches(program)
        # Rewriting the suffix keeps the (shared) prefix matching.
        edited_suffix = Program(
            [program.decls[0], parse_program("let b = a").decls[0]]
        )
        assert snapshot.matches(edited_suffix)
        # An equal-looking but distinct first declaration does not match:
        # identity, not structural equality, is the (cheap, sound) test.
        edited_prefix = Program(
            [parse_program("let a = 1").decls[0], program.decls[1]]
        )
        assert not snapshot.matches(edited_prefix)

    def test_answer_shows_no_prefix_name(self):
        # A snapshot answer carries the schemes its suffix bound, not the
        # prefix's: nothing reads an oracle answer's schemes, so the
        # prefix's are not copied into every check.
        program = parse_program("let a = 1\nlet b = a + true")
        snapshot = snapshot_prefix(program, 1)
        candidate = Program([program.decls[0], parse_program("let b = a").decls[0]])
        answer = snapshot.check(candidate)
        assert answer.ok
        assert sorted(answer.top_level) == ["b"]

    def test_shorter_program_never_matches(self):
        program = parse_program("let a = 1\nlet b = 2\nlet c = a + true")
        snapshot = snapshot_prefix(program, 2)
        assert not snapshot.matches(Program(program.decls[:1]))

    def test_no_snapshot_for_empty_prefix(self):
        program = parse_program("let a = 1")
        assert snapshot_prefix(program, 0) is None

    def test_no_snapshot_for_failing_prefix(self):
        program = parse_program("let a = 1 + true\nlet b = 2")
        assert snapshot_prefix(program, 1) is None


class TestEquivalence:
    @pytest.mark.parametrize("source", PROGRAMS)
    def test_incremental_agrees_at_every_split(self, source):
        program = parse_program(source)
        full = typecheck_program(program)
        splits = list(_passing_splits(program))
        assert splits, "test program needs a passing prefix"
        for k in splits:
            snapshot = snapshot_prefix(program, k)
            assert snapshot is not None
            fast = snapshot.check(program)
            assert fast.ok == full.ok
            if not full.ok:
                assert fast.error.render() == full.error.render()

    def test_well_typed_suffix_agrees(self):
        program = parse_program("let f x = x + 1\nlet g = f 2\nlet h = g + 3")
        snapshot = snapshot_prefix(program, 1)
        assert snapshot.check(program).ok

    def test_snapshot_is_reusable_across_candidates(self):
        # One snapshot, many suffixes — the point of the optimization.
        base = parse_program("let f x = x + 1\nlet g = f true")
        snapshot = snapshot_prefix(base, 1)
        for suffix in ["let g = f 2", "let g = f true", "let g = f f"]:
            candidate = Program(
                [base.decls[0], parse_program(suffix).decls[0]]
            )
            fast = snapshot.check(candidate)
            assert fast.ok == typecheck_program(candidate).ok


class TestFreeVariableIsolation:
    """The value restriction leaves un-generalized type variables in
    top-level schemes (``let r = ref []`` : ``'_a list ref``).  Suffix
    inference unifies through them, so each incremental check must roll its
    links back — they must never leak across oracle calls."""

    def test_monomorphic_ref_does_not_leak_between_checks(self):
        base = parse_program("let r = ref []\nlet u = r := [1]")
        snapshot = snapshot_prefix(base, 1)
        assert snapshot is not None
        int_use = base
        bool_use = Program(
            [base.decls[0], parse_program("let u = r := [true]").decls[0]]
        )
        # Both suffixes pin '_a differently; with shared state the second
        # (and the re-run of the first) would spuriously fail.
        assert snapshot.check(int_use).ok
        assert snapshot.check(bool_use).ok
        assert snapshot.check(int_use).ok

    def test_conflict_within_one_suffix_still_detected(self):
        program = parse_program(
            "let r = ref []\nlet u = r := [1]\nlet v = r := [true]"
        )
        snapshot = snapshot_prefix(program, 1)
        full = typecheck_program(program)
        fast = snapshot.check(program)
        assert not full.ok
        assert fast.ok == full.ok
        assert fast.error.render() == full.error.render()


class TestCorpusAgreement:
    """Property-style: over generated corpus programs, a search whose
    every answered check is compared with the from-scratch reference
    (messages too, when a store is attached) and a search with the
    from-scratch reference oracle must agree bit-for-bit — same verdict,
    same oracle-call count, same rendered suggestions in the same order."""

    @pytest.fixture(scope="class")
    def corpus_programs(self):
        from repro.corpus.generator import generate_corpus

        corpus = generate_corpus(scale=0.15, seed=11)
        files = sorted(
            corpus.representatives,
            key=lambda f: len(f.program.decls),
            reverse=True,
        )
        return [f.program for f in files[:6]]

    @pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
    def test_search_results_identical(self, corpus_programs, with_store, tmp_path):
        for program in corpus_programs:
            baseline = explain(program, oracle=Oracle(typecheck=typecheck_program))
            oracle = ReferenceCheckingOracle()
            checked = explain(
                program, oracle=oracle, store=tmp_path / "s" if with_store else None
            )
            assert oracle.compared > 0
            assert checked.ok == baseline.ok
            assert checked.oracle_calls == baseline.oracle_calls
            assert checked.bad_decl_index == baseline.bad_decl_index
            assert [render_suggestion(s) for s in checked.suggestions] == [
                render_suggestion(s) for s in baseline.suggestions
            ]
