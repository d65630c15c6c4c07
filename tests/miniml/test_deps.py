"""Per-declaration def/use extraction (`repro.miniml.deps`).

The dependency engine's soundness rests entirely on these summaries being
*over*-approximations of what a declaration can observe: a missed use means
a stale replay, a missed def means a missed shadow cut.  So the tests pin
the exact sets for every declaration form and every shadowing shape.
"""

from repro.miniml import parse_program
from repro.miniml.deps import (
    NS_CTOR,
    NS_FIELD,
    NS_TYPE,
    NS_VALUE,
    decl_use_def,
    pattern_names,
)


def _decl(src: str, index: int = 0):
    return parse_program(src).decls[index]


class TestValueDecls:
    def test_simple_let_defines_its_name(self):
        ud = decl_use_def(_decl("let x = 1"))
        assert ud.defs == {(NS_VALUE, "x")}
        assert ud.uses == frozenset()

    def test_free_variable_is_a_use(self):
        ud = decl_use_def(_decl("let y = x + 1"))
        assert (NS_VALUE, "x") in ud.uses
        assert ud.defs == {(NS_VALUE, "y")}

    def test_fun_params_shadow(self):
        ud = decl_use_def(_decl("let f x = x + y"))
        assert (NS_VALUE, "x") not in ud.uses
        assert (NS_VALUE, "y") in ud.uses

    def test_let_rec_own_name_is_not_a_use(self):
        ud = decl_use_def(_decl("let rec loop n = loop (n - 1)"))
        assert (NS_VALUE, "loop") not in ud.uses
        assert ud.defs == {(NS_VALUE, "loop")}

    def test_non_rec_let_same_name_is_a_use(self):
        # `let x = x + 1` at top level *uses* the previous x.
        ud = decl_use_def(_decl("let x = x + 1"))
        assert (NS_VALUE, "x") in ud.uses
        assert (NS_VALUE, "x") in ud.defs

    def test_inner_let_shadows_in_body_only(self):
        ud = decl_use_def(_decl("let a = let b = c in b + d"))
        assert (NS_VALUE, "b") not in ud.uses
        assert (NS_VALUE, "c") in ud.uses
        assert (NS_VALUE, "d") in ud.uses

    def test_inner_let_rec_shadows_its_own_expr(self):
        ud = decl_use_def(_decl("let a = let rec f n = f n in f 1"))
        assert (NS_VALUE, "f") not in ud.uses

    def test_match_case_patterns_shadow(self):
        ud = decl_use_def(
            _decl("let f v = match v with (a, b) -> a + b + c")
        )
        assert (NS_VALUE, "a") not in ud.uses
        assert (NS_VALUE, "b") not in ud.uses
        assert (NS_VALUE, "c") in ud.uses

    def test_operators_are_not_uses(self):
        # Operator schemes are unshadowable (OPERATOR_SCHEMES), so they
        # can never carry a dependency edge.
        ud = decl_use_def(_decl("let n = 1 + 2 * 3"))
        assert ud.uses == frozenset()

    def test_tuple_pattern_defines_all_names(self):
        ud = decl_use_def(_decl("let (p, q) = (1, 2)"))
        assert ud.defs == {(NS_VALUE, "p"), (NS_VALUE, "q")}

    def test_constructor_use_in_expr_and_pattern(self):
        ud = decl_use_def(
            _decl(
                "type t = A | B of int\n"
                "let f v = match v with B n -> n | A -> 0",
                index=1,
            )
        )
        assert (NS_CTOR, "A") in ud.uses
        assert (NS_CTOR, "B") in ud.uses

    def test_annotation_types_are_uses(self):
        ud = decl_use_def(_decl("type t = T\nlet f x = (x : t)", index=1))
        assert (NS_TYPE, "t") in ud.uses


class TestTypeAndExceptionDecls:
    def test_variant_type_defs(self):
        ud = decl_use_def(_decl("type color = Red | Green | Blue"))
        assert (NS_TYPE, "color") in ud.defs
        assert (NS_CTOR, "Red") in ud.defs
        assert (NS_CTOR, "Blue") in ud.defs

    def test_variant_arg_types_are_uses(self):
        ud = decl_use_def(
            _decl("type t = Wrap of int list", index=0)
        )
        assert (NS_TYPE, "list") in ud.uses
        assert (NS_TYPE, "int") in ud.uses

    def test_recursive_type_reference_is_not_a_use(self):
        ud = decl_use_def(_decl("type tree = Leaf | Node of tree * tree"))
        assert (NS_TYPE, "tree") not in ud.uses

    def test_record_type_defines_fields(self):
        ud = decl_use_def(_decl("type point = { x : int; y : int }"))
        assert (NS_FIELD, "x") in ud.defs
        assert (NS_FIELD, "y") in ud.defs
        assert (NS_TYPE, "point") in ud.defs

    def test_record_expr_and_access_use_fields(self):
        ud = decl_use_def(
            _decl(
                "type point = { x : int; y : int }\n"
                "let norm p = p.x + { x = 1; y = 2 }.y",
                index=1,
            )
        )
        assert (NS_FIELD, "x") in ud.uses
        assert (NS_FIELD, "y") in ud.uses

    def test_exception_defs_ctor_and_uses_arg_type(self):
        ud = decl_use_def(_decl("exception Boom of string"))
        assert ud.defs == {(NS_CTOR, "Boom")}
        assert (NS_TYPE, "string") in ud.uses


class TestProgramLevel:
    def test_use_defs_in_declaration_order(self):
        uds = [
            decl_use_def(decl)
            for decl in parse_program("let a = 1\nlet b = a\nlet a = b").decls
        ]
        assert [ud.defs for ud in uds] == [
            frozenset({(NS_VALUE, "a")}),
            frozenset({(NS_VALUE, "b")}),
            frozenset({(NS_VALUE, "a")}),
        ]
        assert (NS_VALUE, "a") in uds[1].uses
        assert (NS_VALUE, "b") in uds[2].uses

    def test_pattern_names_in_binding_order(self):
        decl = _decl("let (a, (b, c)) = (1, (2, 3))")
        assert pattern_names(decl.bindings[0].pattern) == ["a", "b", "c"]
