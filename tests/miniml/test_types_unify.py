"""Tests for semantic types, schemes, and unification."""

import pytest
from hypothesis import given, strategies as st

from repro.miniml.types import (
    BOOL,
    INT,
    STRING,
    Scheme,
    TArrow,
    TCon,
    TTuple,
    TVar,
    arrows,
    free_type_vars,
    generalize,
    instantiate,
    monotype,
    resolve,
    t_list,
    t_ref,
    type_to_string,
    types_to_strings,
)
from repro.miniml.unify import UnifyError, occurs_in, unifiable, unify
from repro.tree import DepthProbe, HCKey, StructuralKeyer


class TestConstruction:
    def test_arrows_right_nested(self):
        t = arrows(INT, BOOL, STRING)
        assert isinstance(t, TArrow)
        assert t.param is INT
        assert isinstance(t.result, TArrow)

    def test_resolve_follows_links(self):
        a, b = TVar(0), TVar(0)
        a.link = b
        b.link = INT
        assert resolve(a) is INT


class TestUnify:
    def test_identical_constructors(self):
        unify(INT, TCon("int"))

    def test_var_binds(self):
        v = TVar(0)
        unify(v, INT)
        assert resolve(v) is INT

    def test_symmetric_var_binding(self):
        v = TVar(0)
        unify(STRING, v)
        assert resolve(v) is STRING

    def test_arrow_components(self):
        a, b = TVar(0), TVar(0)
        unify(TArrow(a, b), arrows(INT, BOOL))
        assert resolve(a) is INT
        assert resolve(b) is BOOL

    def test_mismatched_constructors(self):
        with pytest.raises(UnifyError):
            unify(INT, BOOL)

    def test_mismatched_shapes(self):
        with pytest.raises(UnifyError):
            unify(TArrow(INT, INT), INT)

    def test_tuple_arity_mismatch(self):
        with pytest.raises(UnifyError):
            unify(TTuple([INT, INT]), TTuple([INT, INT, INT]))

    def test_list_element_conflict_reports_outer_types(self):
        # OCaml reports "int list vs string list", not "int vs string".
        with pytest.raises(UnifyError) as exc_info:
            unify(t_list(INT), t_list(STRING))
        s1, s2 = types_to_strings([exc_info.value.t1, exc_info.value.t2])
        assert s1 == "int list"
        assert s2 == "string list"

    def test_occurs_check(self):
        v = TVar(0)
        with pytest.raises(UnifyError):
            unify(v, t_list(v))

    def test_occurs_in_positive(self):
        v = TVar(0)
        assert occurs_in(v, TArrow(INT, t_list(v)))

    def test_occurs_in_negative(self):
        v = TVar(0)
        assert not occurs_in(v, TArrow(INT, t_list(TVar(0))))

    def test_unifiable_helper(self):
        assert unifiable(TVar(0), INT)
        assert not unifiable(INT, BOOL)

    def test_level_adjustment(self):
        outer = TVar(1)
        inner = TVar(5)
        unify(outer, t_list(inner))
        assert inner.level == 1

    def test_failed_occurs_commits_no_level_adjustments(self):
        # Regression for the fused occurs+adjust traversal: the occurs
        # failure surfaces in the *second* child here, after the walk has
        # already seen the level-5 variable in the first.  An
        # adjust-as-you-go fusion would lower it before failing; the
        # collect-then-commit contract is that a failed unification leaves
        # every level untouched (``unifiable`` callers continue the pass,
        # and a half-lowered level changes later generalization).
        var = TVar(1)
        early = TVar(5)
        cyclic = TArrow(t_list(early), t_list(var))
        assert not unifiable(var, cyclic)
        assert early.level == 5
        assert var.link is None

    def test_successful_unify_still_adjusts_all_levels(self):
        var = TVar(1)
        first, second = TVar(5), TVar(7)
        unify(var, TArrow(t_list(first), second))
        assert first.level == 1
        assert second.level == 1


class TestGeneralization:
    def test_generalize_quantifies_deeper_levels(self):
        v = TVar(2)
        scheme = generalize(TArrow(v, v), level=1)
        assert scheme.vars == [v]

    def test_generalize_keeps_shallow_vars_free(self):
        v = TVar(1)
        scheme = generalize(TArrow(v, v), level=1)
        assert scheme.vars == []

    def test_instantiate_makes_fresh_vars(self):
        v = TVar(2)
        scheme = Scheme([v], TArrow(v, v))
        t1 = instantiate(scheme, level=0)
        t2 = instantiate(scheme, level=0)
        assert isinstance(t1, TArrow)
        assert resolve(t1.param) is not resolve(t2.param)
        # ... but within one instantiation the variable is shared
        assert resolve(t1.param) is resolve(t1.result)

    def test_instantiate_monotype_is_identity(self):
        t = arrows(INT, BOOL)
        assert instantiate(monotype(t), 0) is t

    def test_free_type_vars_order(self):
        a, b = TVar(0), TVar(0)
        fvs = free_type_vars(TTuple([b, a, b]))
        assert fvs == [b, a]


class TestPrinting:
    def test_base_types(self):
        assert type_to_string(INT) == "int"

    def test_list(self):
        assert type_to_string(t_list(INT)) == "int list"

    def test_nested_list(self):
        assert type_to_string(t_list(t_list(STRING))) == "string list list"

    def test_arrow(self):
        assert type_to_string(arrows(INT, INT, INT)) == "int -> int -> int"

    def test_arrow_param_parenthesized(self):
        assert type_to_string(TArrow(TArrow(INT, BOOL), INT)) == "(int -> bool) -> int"

    def test_tuple(self):
        assert type_to_string(TTuple([INT, STRING])) == "int * string"

    def test_tuple_in_list(self):
        assert type_to_string(t_list(TTuple([INT, BOOL]))) == "(int * bool) list"

    def test_vars_named_in_order(self):
        a, b = TVar(0), TVar(0)
        assert type_to_string(arrows(a, b, a)) == "'a -> 'b -> 'a"

    def test_ref(self):
        assert type_to_string(t_ref(INT)) == "int ref"

    def test_shared_printer_scope(self):
        a = TVar(0)
        s1, s2 = types_to_strings([a, t_list(a)])
        assert (s1, s2) == ("'a", "'a list")

    def test_multi_arg_constructor(self):
        assert type_to_string(TCon("hashtbl", [INT, STRING])) == "(int, string) hashtbl"


@st.composite
def ground_types(draw, depth=0):
    """Random variable-free types for property tests."""
    if depth >= 3:
        return draw(st.sampled_from([INT, BOOL, STRING]))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(st.sampled_from([INT, BOOL, STRING]))
    if kind == 1:
        return t_list(draw(ground_types(depth=depth + 1)))
    if kind == 2:
        return TArrow(
            draw(ground_types(depth=depth + 1)), draw(ground_types(depth=depth + 1))
        )
    if kind == 3:
        items = draw(st.lists(ground_types(depth=depth + 1), min_size=2, max_size=3))
        return TTuple(items)
    return t_ref(draw(ground_types(depth=depth + 1)))


class TestUnifyProperties:
    @given(ground_types())
    def test_reflexive(self, t):
        unify(t, t)  # must not raise

    @given(ground_types())
    def test_fresh_var_unifies_with_anything(self, t):
        v = TVar(0)
        unify(v, t)
        assert type_to_string(resolve(v)) == type_to_string(t)

    @given(ground_types(), ground_types())
    def test_symmetry_of_failure(self, t1, t2):
        assert unifiable(t1, t2) == unifiable(t2, t1)

    @given(ground_types())
    def test_printing_deterministic(self, t):
        assert type_to_string(t) == type_to_string(t)


def test_type_nodes_are_slotted():
    # The hot-path objects the checker and keyer allocate per check carry
    # no per-instance __dict__.
    for instance in (
        TVar(0),
        TCon("int"),
        TArrow(TCon("int"), TCon("int")),
        TTuple([TCon("int"), TCon("bool")]),
        HCKey(("probe",)),
        StructuralKeyer(),
        DepthProbe(),
    ):
        assert not hasattr(instance, "__dict__"), type(instance).__name__
