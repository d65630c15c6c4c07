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
)

#: Deep enough that naive recursion over it trips the interpreter limit.
PATHOLOGICAL = sys.getrecursionlimit() * 2


def deep_app_chain(depth: int) -> Program:
    """``f x x ... x`` nested ``depth`` applications deep, built iteratively."""
    expr = EVar("f")
    for _ in range(depth):
        expr = EApp(expr, [EVar("x")])
    return Program([DExpr(expr)])


def ill_typed_application_chain(depth: int) -> str:
    """``f (f (... (1 + true)))``, ``depth`` applications deep, as source."""
    return "let f x = x\nlet y = " + "f (" * depth + "1 + true" + ")" * depth + "\n"


def deepest_parsing(source_of) -> int:
    """The largest ``depth`` for which ``source_of(depth)`` parses here."""
    low, high = 1, PATHOLOGICAL  # parses at ``low``, not at ``high``
    while high - low > 1:
        mid = (low + high) // 2
        try:
            parse_program(source_of(mid))
            low = mid
        except ParseError:
            high = mid
    return low


class TestParser:
    def test_deep_parens_raise_parse_error(self):
        source = "let x = " + "(" * PATHOLOGICAL + "1" + ")" * PATHOLOGICAL
        with pytest.raises(ParseError) as excinfo:
            parse_program(source)
        assert "nested too deeply" in str(excinfo.value)

    def test_reasonable_nesting_still_parses(self):
        # A parenthesized expression costs 6 frames per nesting level
        # (the atom, parse_expr, the control, tuple and infix levels, the
        # application), so human-plausible depths sit well inside the
        # interpreter limit while 2x the limit is far beyond it.
        source = "let x = " + "(" * 30 + "1" + ")" * 30
        program = parse_program(source)
        assert len(program.decls) == 1

    def test_three_times_the_old_nesting_limit_parses(self):
        # A parser with a function per precedence level spent ~23 frames
        # per paren level and took at most 43 levels under the default
        # limit; the precedence-climbing parser takes three times that.
        depth = 3 * 43
        program = parse_program("let x = " + "(" * depth + "1" + ")" * depth)
        assert len(program.decls) == 1

    def test_deep_application_reaches_the_oracle(self, monkeypatch):
        # 120 nested applications: past what a function per precedence
        # level could parse.  Under the oracle's depth ceiling inference
        # checks it; over it, the depth guard rejects it unchecked.
        import repro.core.oracle as oracle_module
        from repro.core import Oracle

        depth = 120
        source = "let f x = x\nlet y = " + "f (" * depth + "1" + ")" * depth
        program = parse_program(source)
        assert node_depth(program) > depth
        assert Oracle().check(program).ok
        monkeypatch.setattr(oracle_module, "default_max_depth", lambda: depth // 2)
        oracle = Oracle()
        assert oracle.check(program).ok is False
        assert oracle.depth_rejections == 1
        assert oracle.calls == 0


class TestEndToEndAtTheParseCeiling:
    """An ill-typed source as deep as the parser takes goes through the
    whole search (enumerator, tree walks, pretty-printer, inference,
    ranking) without a RecursionError escaping."""

    def test_explain_at_the_ceiling(self):
        from repro.core.seminal import explain

        depth = deepest_parsing(ill_typed_application_chain)
        assert depth > 3 * 43  # far past a function per precedence level
        result = explain(ill_typed_application_chain(depth))
        assert result.ok is False
        assert result.suggestions
        assert "Try replacing" in result.render()

    def test_cli_at_the_ceiling(self, tmp_path, capsys):
        # The CLI calls the parser a frame or so deeper than this test
        # does, so the first depths down from the ceiling may still be
        # too deep for it: each must be a clean exit 2 naming the
        # nesting, and a few levels down the full search must answer.
        from repro.cli import main

        path = tmp_path / "deep.ml"
        ceiling = deepest_parsing(ill_typed_application_chain)
        for depth in range(ceiling, ceiling - 5, -1):
            path.write_text(ill_typed_application_chain(depth))
            code = main([str(path)])
            captured = capsys.readouterr()
            if code != 2:
                break
            assert captured.err.startswith("error: 2:")
            assert "nested too deeply to parse" in captured.err
        assert code == 1
        assert "Try replacing" in captured.out
        assert captured.err == ""


class TestTreeKeying:
    def test_keyer_stays_usable_after_tree_too_deep(self):
        keyer = StructuralKeyer()
        with pytest.raises(TreeTooDeep):
            keyer(deep_app_chain(PATHOLOGICAL))
        program = deep_app_chain(20)
        assert keyer(program) == StructuralKeyer()(program)

    def test_structural_keyer_raises_tree_too_deep(self):
        with pytest.raises(TreeTooDeep):
            StructuralKeyer()(deep_app_chain(PATHOLOGICAL))

    def test_tree_too_deep_is_catchable_as_runtime_error(self):
        # Callers that guard broadly must still catch it (it is the
        # conversion of a RecursionError, not a RecursionError itself).
        assert issubclass(TreeTooDeep, RuntimeError)
        assert not issubclass(TreeTooDeep, RecursionError)

    def test_shallow_keys_unaffected(self):
        # Two keyers key separately built equal trees to equal keys.
        assert StructuralKeyer()(deep_app_chain(20)) == StructuralKeyer()(
            deep_app_chain(20)
        )


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
        probe = DepthProbe()
        assert probe.exceeds(deep_app_chain(PATHOLOGICAL), 100)

    def test_probe_limit_is_node_depth(self):
        probe = DepthProbe()
        for depth in (1, 5, 50):
            program = deep_app_chain(depth)
            assert probe.exceeds(program, node_depth(program) - 1)
            assert not probe.exceeds(program, node_depth(program))

    def test_probe_rejects_shared_pathological_subtrees(self):
        probe = DepthProbe()
        program = deep_app_chain(PATHOLOGICAL)
        assert probe.exceeds(program, 100)
        # Rewrapping reuses the whole chain, which the probe could never
        # finish measuring: still too deep, still no RecursionError.
        rewrapped = Program([DExpr(EApp(program.decls[0].expr, [EVar("y")]))])
        assert probe.exceeds(rewrapped, 100)

    def test_probe_reads_its_own_memo(self):
        program = deep_app_chain(10)
        probe = DepthProbe()
        # The first probe walks the whole tree and memoizes every height.
        assert not probe.exceeds(program, 100)
        assert len(probe._memo) == node_size(program)
        # Measured subtrees answer from the memo.  Grafting a deeper chain
        # into the measured tree in place (the search never mutates a
        # node it has built) shows the probe reads the memo instead of
        # re-walking...
        program.decls[0].expr.func = deep_app_chain(200).decls[0].expr
        assert not probe.exceeds(program, 100)
        assert len(probe._memo) == node_size(deep_app_chain(10))
        # ...until the memo is cleared.
        probe.clear()
        assert probe.exceeds(program, 100)


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
