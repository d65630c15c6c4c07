"""Tests for quick-fix application and the iterative repair loop."""

import pytest

import repro.core.quickfix as quickfix_module
from repro.core import apply_suggestion, explain, fix_all
from repro.miniml import typecheck_source

FIG8 = """let add str lst = if List.mem str lst then lst else str :: lst
let s = "hello"
let vList1 = ["a"; "b"]
let r = add vList1 s
"""


class TestApplySuggestion:
    def test_splice_preserves_surrounding_text(self):
        result = explain(FIG8)
        fix = apply_suggestion(FIG8, result.best)
        assert fix.spliced
        # All untouched lines survive byte-for-byte (comments/layout kept).
        assert 'let s = "hello"' in fix.source
        assert "let r = add s vList1" in fix.source

    def test_result_typechecks(self):
        result = explain(FIG8)
        fix = apply_suggestion(FIG8, result.best)
        assert typecheck_source(fix.source).ok

    def test_comments_survive(self):
        src = "(* important comment *)\nlet x = 1 + true\n"
        result = explain(src)
        fix = apply_suggestion(src, result.best)
        if fix.spliced:
            assert "important comment" in fix.source

    def test_description_mentions_both_sides(self):
        result = explain(FIG8)
        fix = apply_suggestion(FIG8, result.best)
        assert "add vList1 s" in fix.description
        assert "add s vList1" in fix.description

    def test_removal_suggestion_applies(self):
        src = "let x = 1 + true\n"
        result = explain(src)
        removals = [s for s in result.suggestions if s.kind == "remove"]
        assert removals
        fix = apply_suggestion(src, removals[0])
        # The wildcard splices as real code (raise Foo), never as [[...]].
        assert "[[...]]" not in fix.source
        assert typecheck_source(fix.source).ok

    def test_triaged_suggestion_need_not_typecheck(self):
        src = 'let f a = (a + true) + (4 + "hi") + (a + false)'
        result = explain(src)
        triaged = [s for s in result.suggestions if s.triaged]
        assert triaged
        fix = apply_suggestion(src, triaged[0])
        assert fix.source  # applies without demanding a full fix


class TestFixAll:
    def test_single_error_fixed_in_one_round(self):
        result = fix_all(FIG8)
        assert result.ok
        assert result.rounds == 1
        assert typecheck_source(result.source).ok

    def test_already_ok_program(self):
        result = fix_all("let x = 1\n")
        assert result.ok
        assert result.rounds == 0
        assert result.applied == []

    def test_multi_error_program_converges(self):
        src = """let f a =
  let x = 3 + true in
  let y = 4 + "hi" in
  x + y + a
"""
        result = fix_all(src)
        assert result.ok, result.source
        assert typecheck_source(result.source).ok
        assert result.rounds >= 2  # one per isolated error

    def test_applied_log(self):
        result = fix_all(FIG8)
        assert len(result.applied) == 1
        assert "replace" in result.applied[0]

    def test_round_limit_respected(self, monkeypatch):
        monkeypatch.setattr(quickfix_module, "MAX_ROUNDS", 1)
        src = 'let f a = (a + true) + (4 + "hi")'
        result = fix_all(src)
        assert result.rounds == 1  # two errors: the default limit fixes both
        assert not result.ok

    def test_kwargs_forwarded(self):
        result = fix_all(FIG8, enable_triage=False)
        assert result.ok  # single-error file: triage irrelevant
