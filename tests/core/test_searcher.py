"""Integration tests for the search procedure on the paper's examples.

Each test pins both the *checker baseline* and the *SEMINAL suggestion* the
paper reports, so any regression in search, ranking, or rendering that
changes who wins on a paper example fails loudly.
"""

import pytest

from repro.core import (
    KIND_ADAPT,
    KIND_CONSTRUCTIVE,
    KIND_REMOVE,
    Oracle,
    SearchConfig,
    Searcher,
    explain,
)
from repro.miniml import parse_program
from repro.miniml.pretty import pretty


FIG2 = """
let map2 f aList bList =
  List.map (fun (a, b) -> f a b) (List.combine aList bList)
let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]
let ans = List.filter (fun x -> x == 0) lst
"""

FIG8 = """
let add str lst = if List.mem str lst then lst else str :: lst
let s = "hello"
let vList1 = ["a"; "b"]
let r = add vList1 s
"""

FIG9 = """
type move = For of int * (move list) | Ahead of int | Turn of int
let rec loop movelist x y dir acc =
  match movelist with
    [] -> acc
  | For (moves, lst) :: tl ->
      let rec finalLst index searchLst =
        if index = (moves - 1) then []
        else (List.nth searchLst) :: (finalLst (index + 1) searchLst)
      in loop (finalLst 0 lst) x y dir acc
  | Ahead n :: tl -> loop tl (x + n) y dir acc
  | Turn n :: tl -> loop tl x y (dir + n) acc
"""


class TestWellTyped:
    def test_ok_program_short_circuits(self):
        result = explain("let x = 1 + 2")
        assert result.ok
        assert result.suggestions == []
        assert result.oracle_calls == 1

    def test_render_ok(self):
        assert "type-checks" in explain("let x = 1").render()


class TestFigure2:
    def test_best_is_currying_fix(self):
        result = explain(FIG2)
        best = result.best
        assert best.kind == KIND_CONSTRUCTIVE
        assert best.change.rule == "curry-params"
        assert pretty(best.change.original) == "fun (x, y) -> x + y"
        assert pretty(best.change.replacement) == "fun x y -> x + y"

    def test_best_message_matches_paper(self):
        message = explain(FIG2).render_best()
        assert "Try replacing fun (x, y) -> x + y with fun x y -> x + y" in message
        assert "of type int -> int -> int" in message
        assert "let lst = map2 (fun x y -> x + y) [1; 2; 3] [4; 5; 6]" in message

    def test_not_triaged(self):
        assert not explain(FIG2).best.triaged

    def test_bad_decl_localized(self):
        # map2's definition is fine; the second declaration fails.
        assert explain(FIG2).bad_decl_index == 1

    def test_checker_location_differs_from_seminal(self):
        """The whole point: the checker blames x + y, search blames the fun."""
        result = explain(FIG2)
        assert "x + y" in result.checker_message
        assert "fun (x, y)" not in result.checker_message


class TestFigure8:
    def test_best_is_argument_swap(self):
        best = explain(FIG8).best
        assert best.change.rule == "permute-args"
        assert pretty(best.change.replacement) == "add s vList1"

    def test_message(self):
        message = explain(FIG8).render_best()
        assert "Try replacing add vList1 s with add s vList1" in message


class TestFigure9:
    def test_best_adds_missing_argument(self):
        best = explain(FIG9).best
        assert best.change.rule == "insert-arg"
        assert pretty(best.change.original) == "List.nth searchLst"
        assert "List.nth searchLst [[...]]" in pretty(best.change.replacement)

    def test_two_candidate_regions_found(self):
        # The paper: "small suggestions both in the body of finalLst and its
        # use", with the constructive one in the body ranked first.
        result = explain(FIG9)
        originals = {pretty(s.change.original) for s in result.suggestions}
        assert "List.nth searchLst" in originals
        assert any("finalLst 0 lst" in o for o in originals)


class TestAdaptation:
    SRC = """
let upper s = String.uppercase s
let f e2 e3 e4 = if upper e2 then e3 else e4
"""

    def test_adaptation_preferred_at_larger_expression(self):
        # Section 2.3: adapting ``e1 e2`` (the whole call) must outrank
        # adapting just ``e1``.
        result = explain(self.SRC)
        adaptations = [s for s in result.suggestions if s.kind == KIND_ADAPT]
        assert adaptations, "expected adaptation suggestions"
        top_adapt = adaptations[0]
        assert pretty(top_adapt.change.original) == "upper e2"

    def test_adaptation_outranks_removal(self):
        result = explain(self.SRC)
        kinds = [s.kind for s in result.suggestions]
        assert kinds.index(KIND_ADAPT) < kinds.index(KIND_REMOVE)


class TestLetNonLocalExample:
    # Section 2.1's ``let x = e1 in e2`` example: e1 has the wrong type and
    # x is used many times in e2; the checker complains at a use of x, the
    # search suggests changing e1.
    SRC = """
let f () =
  let x = "zero" in
  let a = x + 1 in
  let b = x + 2 in
  let c = x + 3 in
  a + b + c
"""

    def test_checker_blames_a_use(self):
        result = explain(self.SRC)
        assert "x" in result.checker_message

    def test_search_blames_the_binding(self):
        result = explain(self.SRC)
        originals = [pretty(s.change.original) for s in result.suggestions]
        assert '"zero"' in originals


class TestUnboundVariable:
    def test_unbound_flag_set(self):
        result = explain('let f x = print "hi"')
        assert any(s.unbound_variable == "print" for s in result.suggestions)

    def test_unbound_message(self):
        result = explain('let f x = print "hi"')
        best_unbound = [s for s in result.suggestions if s.unbound_variable]
        from repro.core.messages import render_suggestion

        assert "appears to be unbound" in render_suggestion(best_unbound[0])


class TestBudget:
    def test_budget_exhaustion_is_graceful(self):
        result = explain(FIG2, max_oracle_calls=5)
        assert not result.ok
        assert result.budget_exhausted
        assert result.oracle_calls <= 5

    def test_checker_error_still_reported_on_budget(self):
        result = explain(FIG2, max_oracle_calls=5)
        assert result.checker_message is not None


class TestConfigKnobs:
    def test_disabled_rules_respected(self):
        result = explain(FIG2, disabled_rules=["curry-params"])
        assert all(s.change.rule != "curry-params" for s in result.suggestions)

    def test_searcher_reuse_resets_oracle(self):
        searcher = Searcher(config=SearchConfig())
        p1 = parse_program("let x = 1 + true")
        searcher.search_program(p1)
        first_calls = searcher.oracle.calls
        searcher.search_program(p1)
        assert searcher.oracle.calls == first_calls

    def test_searches_on_one_searcher_are_independent(self):
        # ``f`` is binary but applied to three arguments, so several rules
        # propose the same repaired application: nothing the first search
        # learned about those candidates may leak into the second.
        from repro.core.messages import render_suggestion

        searcher = Searcher(config=SearchConfig())
        source = "let f x y = x + y\nlet r = f 1 1 1\n"
        first = searcher.search_program(parse_program(source))
        second = searcher.search_program(parse_program(source))
        assert first.oracle_calls == second.oracle_calls
        assert first.stats.summary() == second.stats.summary()
        assert [render_suggestion(s) for s in first.suggestions] == [
            render_suggestion(s) for s in second.suggestions
        ]


class TestSuggestionPrograms:
    def test_every_suggestion_program_typechecks(self):
        from repro.miniml import typecheck_program

        for src in [FIG2, FIG8, FIG9]:
            result = explain(src)
            for s in result.suggestions:
                if s.triaged:
                    continue  # triaged programs have other errors wildcarded
                assert typecheck_program(s.program).ok, pretty(s.change.replacement)

    def test_triaged_programs_typecheck_too(self):
        # Triage verifies candidates against the *reduced* program, which
        # includes the wildcards — so those must also pass.
        from repro.miniml import typecheck_program

        src = 'let f a = (3 + true) + (4 + "hi") + a'
        result = explain(src)
        for s in result.suggestions:
            assert typecheck_program(s.program).ok
