"""Deep-nesting stress: every layer rejects gracefully, never RecursionError.

The parser, the structural keyers, and inference are all recursive; a
pathological program (or a pathological *candidate* the enumerator built)
must come back as a typed, catchable rejection — ``ParseError``,
``TreeTooDeep``, or an ill-typed ``CheckResult`` — because a raw
``RecursionError`` from any of them would kill the whole search.
"""

import sys

import pytest

from repro.miniml.ast_nodes import DExpr, EApp, EVar, Program
from repro.miniml.errors import NestingTooDeepError
from repro.miniml.infer import typecheck_program
from repro.miniml.parser import ParseError, parse_program
from repro.tree import (
    DepthProbe,
    StructuralKeyer,
    TreeTooDeep,
    node_depth,
    node_size,
    structural_key,
)

#: Deep enough that naive recursion over it trips the interpreter limit.
PATHOLOGICAL = sys.getrecursionlimit() * 2


def deep_app_chain(depth: int) -> Program:
    """``f x x ... x`` nested ``depth`` applications deep, built iteratively."""
    expr = EVar("f")
    for _ in range(depth):
        expr = EApp(expr, [EVar("x")])
    return Program([DExpr(expr)])


class TestParser:
    def test_deep_parens_raise_parse_error(self):
        source = "let x = " + "(" * PATHOLOGICAL + "1" + ")" * PATHOLOGICAL
        with pytest.raises(ParseError) as excinfo:
            parse_program(source)
        assert "nested too deeply" in str(excinfo.value)

    def test_reasonable_nesting_still_parses(self):
        # The expression grammar's descent chain costs ~20 frames per
        # nesting level, so human-plausible depths sit well inside the
        # interpreter limit while 2x the limit is far beyond it.
        source = "let x = " + "(" * 30 + "1" + ")" * 30
        program = parse_program(source)
        assert len(program.decls) == 1


class TestTreeKeying:
    def test_structural_key_raises_tree_too_deep(self):
        with pytest.raises(TreeTooDeep):
            structural_key(deep_app_chain(PATHOLOGICAL))

    def test_structural_keyer_raises_tree_too_deep(self):
        with pytest.raises(TreeTooDeep):
            StructuralKeyer()(deep_app_chain(PATHOLOGICAL))

    def test_tree_too_deep_is_catchable_as_runtime_error(self):
        # Callers that guard broadly must still catch it (it is the
        # conversion of a RecursionError, not a RecursionError itself).
        assert issubclass(TreeTooDeep, RuntimeError)
        assert not issubclass(TreeTooDeep, RecursionError)

    def test_shallow_keys_unaffected(self):
        program = deep_app_chain(20)
        assert structural_key(program) == StructuralKeyer()(program)


class TestNodeDepth:
    def test_node_depth_is_iterative(self):
        # Would raise RecursionError if implemented by naive recursion.
        assert node_depth(deep_app_chain(PATHOLOGICAL)) > PATHOLOGICAL

    def test_node_depth_small_values(self):
        assert node_depth(EVar("x")) == 1
        # Program -> DExpr -> EApp -> EVar
        assert node_depth(deep_app_chain(1)) == 4


class TestDepthProbe:
    def test_probe_handles_pathological_depth(self):
        probe = DepthProbe(StructuralKeyer())
        assert probe.exceeds(deep_app_chain(PATHOLOGICAL), 100)

    def test_probe_limit_is_node_depth(self):
        probe = DepthProbe(StructuralKeyer())
        for depth in (1, 5, 50):
            program = deep_app_chain(depth)
            assert probe.exceeds(program, node_depth(program) - 1)
            assert not probe.exceeds(program, node_depth(program))

    def test_probe_rejects_shared_pathological_subtrees(self):
        probe = DepthProbe(StructuralKeyer())
        program = deep_app_chain(PATHOLOGICAL)
        assert probe.exceeds(program, 100)
        # Rewrapping reuses the whole chain, which the keyer could never
        # finish keying: still too deep, still no RecursionError.
        rewrapped = Program([DExpr(EApp(program.decls[0].expr, [EVar("y")]))])
        assert probe.exceeds(rewrapped, 100)

    def test_probe_reads_the_keyer_it_is_given(self):
        keyer = StructuralKeyer()
        program = deep_app_chain(10)
        probe = DepthProbe(keyer)
        # Nothing keyed yet: the probe walks the whole tree, keys nothing.
        assert not probe.exceeds(program, 100)
        assert keyer.interned == 0
        keyer(program)
        assert keyer.interned == node_size(program)
        # Keyed subtrees answer from HCKey.depth.  Grafting a deeper chain
        # into the keyed tree in place (the search never mutates a keyed
        # node) shows the probe reads the key instead of re-walking.
        program.decls[0].expr.func = deep_app_chain(200).decls[0].expr
        assert not probe.exceeds(program, 100)
        assert keyer.interned == node_size(deep_app_chain(10))


class TestInference:
    def test_deep_program_rejected_not_crashed(self):
        result = typecheck_program(deep_app_chain(PATHOLOGICAL))
        assert result.ok is False
        assert isinstance(result.error, NestingTooDeepError)

    def test_nesting_error_renders(self):
        message = NestingTooDeepError().render()
        assert "nested too deeply" in message

    def test_deep_source_end_to_end(self):
        # Through the oracle: the depth pre-check rejects before inference
        # ever sees the tree (no call consumed, no recursion risked).
        from repro.core import Oracle

        oracle = Oracle()
        result = oracle.check(deep_app_chain(PATHOLOGICAL))
        assert result.ok is False
        assert oracle.depth_rejections == 1
        assert oracle.calls == 0

    def test_unkeyable_tree_rejected_not_crashed(self, monkeypatch):
        # A depth limit above the tree's depth: only the keyer's
        # TreeTooDeep can reject it, and it must count as too deep.
        import repro.core.oracle as oracle_module
        from repro.core import Oracle

        program = deep_app_chain(PATHOLOGICAL)
        with pytest.raises(TreeTooDeep):
            StructuralKeyer()(program)
        monkeypatch.setattr(
            oracle_module, "default_max_depth", lambda: PATHOLOGICAL * 10
        )
        oracle = Oracle()
        result = oracle.check(program)
        assert result.ok is False
        assert oracle.depth_rejections == 1
        assert oracle.crashes == 0
        assert oracle.calls == 0
