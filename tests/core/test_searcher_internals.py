"""Unit tests for the searcher's internal machinery (not just outcomes)."""

import pytest

import repro.core.searcher as searcher_module
from repro.core import Oracle, SearchConfig, Searcher
from repro.core.enumerator import wildcard_for
from repro.miniml import parse_program
from repro.miniml.ast_nodes import Binding, EBinop, EConst, Expr, Pattern
from repro.tree import get_at


def make_searcher(**config_kwargs):
    return Searcher(config=SearchConfig(**config_kwargs))


class TestPrefixLocalization:
    def test_first_bad_decl_found(self):
        src = "let a = 1\nlet b = a + true\nlet c = b + 1"
        searcher = make_searcher()
        program = parse_program(src)
        assert searcher._localize_bad_decl(program) == 1

    def test_error_in_first_decl(self):
        program = parse_program("let a = 1 + true\nlet b = 2")
        assert make_searcher()._localize_bad_decl(program) == 0

    def test_later_decls_never_checked(self):
        # The paper: "It does not examine the third top-level binding."
        src = "let a = 1\nlet b = a + true\nlet c = nonsense_that_is_unbound"
        searcher = make_searcher()
        outcome = searcher.search_program(parse_program(src))
        assert outcome.bad_decl_index == 1
        # All suggestions live inside declaration 1.
        for s in outcome.suggestions:
            assert s.change.path[0] == ("decls", 1)

    def test_type_decl_errors_fall_back_to_checker(self):
        # No searchable children inside a bad type declaration.
        searcher = make_searcher()
        outcome = searcher.search_program(parse_program("type t = A of nosuch"))
        assert outcome.bad_decl_index == 0
        assert outcome.checker_error is not None
        assert outcome.suggestions == []


class TestSearchableChildren:
    def test_descends_through_transparent_nodes(self):
        # Binding and MatchCase nodes are transparent; their expression and
        # pattern children are the searchable units.
        program = parse_program("let f x = match x with 0 -> 1 | n -> n")
        searcher = make_searcher()
        decl_path = (("decls", 0),)
        children = list(searcher._searchable_children(program, decl_path))
        kinds = {type(get_at(program, p)).__name__ for p in children}
        # The binding's pattern (PVar f) and its expression (EFun).
        assert "PVar" in kinds
        assert "EFun" in kinds

    def test_children_are_exprs_or_patterns(self):
        program = parse_program("let f (a, b) = a + b")
        searcher = make_searcher()
        for path in searcher._searchable_children(program, (("decls", 0),)):
            node = get_at(program, path)
            assert isinstance(node, (Expr, Pattern))


class TestBudgetDuringSearch:
    def test_partial_results_on_budget(self):
        src = """
let map2 f aList bList =
  List.map (fun (a, b) -> f a b) (List.combine aList bList)
let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]
"""
        searcher = Searcher(config=SearchConfig(max_oracle_calls=12))
        outcome = searcher.search_program(parse_program(src))
        assert outcome.budget_exhausted
        assert outcome.oracle_calls <= 12

    def test_well_typed_costs_one_call(self):
        searcher = make_searcher()
        outcome = searcher.search_program(parse_program("let x = 1"))
        assert outcome.ok
        assert outcome.oracle_calls == 1


class TestOnlyRemovalLogic:
    def test_small_node_not_triaged(self):
        # 1 + true is below the triage threshold: plain removal suggestions.
        assert searcher_module.TRIAGE_THRESHOLD == 5
        searcher = make_searcher()
        outcome = searcher.search_program(parse_program("let x = 1 + true"))
        assert all(not s.triaged for s in outcome.suggestions)

    def test_threshold_zero_triages_eagerly(self, monkeypatch):
        monkeypatch.setattr(searcher_module, "TRIAGE_THRESHOLD", 0)
        searcher = make_searcher()
        src = 'let f a = (a + true) + (4 + "hi")'
        outcome = searcher.search_program(parse_program(src))
        assert any(s.triaged for s in outcome.suggestions)

    def test_max_triage_depth_zero_disables_triage(self, monkeypatch):
        monkeypatch.setattr(searcher_module, "MAX_TRIAGE_DEPTH", 0)
        searcher = make_searcher()
        src = 'let f a = (a + true) + (4 + "hi")'
        outcome = searcher.search_program(parse_program(src))
        assert all(not s.triaged for s in outcome.suggestions)


class TestWildcardDispatch:
    def test_exprs_and_patterns_removable(self):
        program = parse_program("let f x = x + 1")
        binding = program.decls[0].bindings[0]
        assert wildcard_for(binding.expr) is not None
        assert wildcard_for(binding.pattern) is not None
        assert wildcard_for(binding) is None
        assert wildcard_for(program.decls[0]) is None


class TestLocalizationCallCount:
    # Satellite fix: localization used to re-test the full program as the
    # final "prefix" even though search_program had just proved it fails.

    def test_no_oracle_call_for_final_prefix(self):
        # Error in the last of three declarations: only the two proper
        # prefixes are tested; the full program is already known to fail.
        src = "let a = 1\nlet b = 2\nlet c = a + true"
        searcher = make_searcher()
        outcome = searcher.search_program(parse_program(src))
        assert outcome.bad_decl_index == 2
        assert outcome.stats.prefix_tests == 2

    def test_single_decl_localized_for_free(self):
        searcher = make_searcher()
        outcome = searcher.search_program(parse_program("let a = 1 + true"))
        assert outcome.bad_decl_index == 0
        assert outcome.stats.prefix_tests == 0

    def test_early_failure_stops_at_first_bad_prefix(self):
        src = "let a = 1\nlet b = a + true\nlet c = 2\nlet d = 3"
        searcher = make_searcher()
        outcome = searcher.search_program(parse_program(src))
        assert outcome.bad_decl_index == 1
        assert outcome.stats.prefix_tests == 2


class TestAdaptBuiltOnce:
    def test_adapt_expr_called_once_per_adaptation_test(self, monkeypatch):
        # Satellite fix: step 4 used to build adapt_expr(node) twice (once
        # for the probe, once for the reported Change).  The replacement in
        # the Change must be the very object the oracle tested, so each
        # adaptation test builds the wrapper exactly once.
        import repro.core.searcher as searcher_mod
        from repro.core.changes import KIND_ADAPT

        real = searcher_mod.adapt_expr
        calls = []

        def counting(node):
            calls.append(node)
            return real(node)

        monkeypatch.setattr(searcher_mod, "adapt_expr", counting)
        src = """
let upper s = String.uppercase s
let f e2 e3 e4 = if upper e2 then e3 else e4
"""
        searcher = make_searcher()
        outcome = searcher.search_program(parse_program(src))
        adaptations = [s for s in outcome.suggestions if s.kind == KIND_ADAPT]
        assert adaptations, "expected adaptation suggestions"
        assert len(calls) == outcome.stats.adaptation_tests
        # And the accepted suggestion reports the tested object itself.
        for s in adaptations:
            from repro.tree import get_at as _get_at

            assert _get_at(s.program, s.change.path) is s.change.replacement


class TestWorklistOrder:
    def test_fifo_expansion_order(self, monkeypatch):
        # Satellite fix: the worklist moved from list.pop(0) to
        # deque.popleft() — same FIFO discipline, O(1) per pop.  Guard the
        # discipline: follow-ups are appended, not prepended.
        from repro.core.changes import Change, ChangeNode, KIND_CONSTRUCTIVE
        from repro.miniml.ast_nodes import EConst

        program = parse_program("let x = 1 + true")
        searcher = make_searcher()
        paths = [
            p
            for p in searcher._searchable_children(program, (("decls", 0),))
            if isinstance(get_at(program, p), Expr)
        ]
        path = paths[0]
        node = get_at(program, path)

        def mk(label, on_failure=None):
            change = Change(
                path=path,
                original=node,
                replacement=EConst(label, "string"),
                kind=KIND_CONSTRUCTIVE,
                description=label,
            )
            return ChangeNode(change, on_failure=on_failure)

        d = mk("D")
        b = mk("B", on_failure=lambda: [d])
        c = mk("C")
        a = mk("A", on_failure=lambda: [b, c])

        tried = []

        def spy(candidate):
            tried.append(get_at(candidate, path).value)
            return False

        monkeypatch.setattr(searcher, "_passes", spy)
        monkeypatch.setattr(searcher.enumerator, "changes", lambda n, p: [a])
        assert searcher._try_changes(program, path, node) == []
        assert tried == ["A", "B", "C", "D"]
