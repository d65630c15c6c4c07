"""Tests for the open change framework (paper Section 6 future work)."""

from repro.core import (
    ChangeNode,
    MiniMLEnumerator,
    SearchConfig,
    Searcher,
    constructive_change,
    explain,
)
from repro.miniml import parse_expr, parse_program
from repro.miniml.ast_nodes import EConst, EVar
from repro.miniml.pretty import pretty


def int_to_string_literal(node, path):
    """A custom rule: try converting an int literal to its string form."""
    if isinstance(node, EConst) and node.kind == "int":
        change = constructive_change(
            path,
            node,
            EConst(str(node.value), "string"),
            "int-to-string-literal",
            "quote the number as a string",
        )
        return [ChangeNode(change)]
    return []


class TestRegistration:
    def test_search_config_rules_reach_the_enumerator(self):
        searcher = Searcher(config=SearchConfig(custom_rules=[int_to_string_literal]))
        changes = searcher.enumerator.changes(parse_expr("42"), ())
        rules = {cn.change.rule for cn in changes}
        assert "int-to-string-literal" in rules

    def test_constructor_accepts_rules(self):
        enum = MiniMLEnumerator(custom_rules=[int_to_string_literal])
        changes = enum.changes(parse_expr("42"), ())
        assert any(cn.change.rule == "int-to-string-literal" for cn in changes)

    def test_rule_consulted_for_every_node_kind(self):
        calls = []

        def spy(node, path):
            calls.append(type(node).__name__)
            return []

        enum = MiniMLEnumerator(custom_rules=[spy])
        enum.changes(parse_expr("f x"), ())
        enum.changes(parse_expr("42"), ())
        assert "EApp" in calls and "EConst" in calls

    def test_disabled_rules_filter_custom(self):
        enum = MiniMLEnumerator(
            disabled_rules=["int-to-string-literal"],
            custom_rules=[int_to_string_literal],
        )
        changes = enum.changes(parse_expr("42"), ())
        assert all(cn.change.rule != "int-to-string-literal" for cn in changes)


class TestEndToEnd:
    SRC = 'let greeting = "hello " ^ 42'

    def test_custom_rule_produces_suggestion(self):
        result = explain(self.SRC, custom_rules=[int_to_string_literal])
        rules = {s.change.rule for s in result.suggestions}
        assert "int-to-string-literal" in rules

    def test_custom_suggestion_program_typechecks(self):
        from repro.miniml import typecheck_program

        result = explain(self.SRC, custom_rules=[int_to_string_literal])
        custom = [s for s in result.suggestions if s.change.rule == "int-to-string-literal"]
        assert custom
        assert typecheck_program(custom[0].program).ok
        assert pretty(custom[0].change.replacement) == '"42"'

    def test_without_custom_rule_not_suggested(self):
        result = explain(self.SRC)
        rules = {s.change.rule for s in result.suggestions}
        assert "int-to-string-literal" not in rules

    def test_bad_custom_change_is_harmless(self):
        """A nonsensical custom change can never hurt correctness: the
        oracle simply rejects it (the paper's safety argument)."""

        def nonsense(node, path):
            if isinstance(node, EVar):
                change = constructive_change(
                    path, node, EConst(True, "bool"), "nonsense", "replace with true"
                )
                return [ChangeNode(change)]
            return []

        result = explain("let x = 1 + y", custom_rules=[nonsense])
        for s in result.suggestions:
            from repro.miniml import typecheck_program

            assert typecheck_program(s.program).ok
