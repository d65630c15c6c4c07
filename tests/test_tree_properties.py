"""Hypothesis properties for the generic tree machinery.

These invariants underpin the whole search: if path addressing or
functional replacement were wrong, every candidate program the searcher
builds would be wrong too.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.core.enumerator import wildcard_expr
from repro.miniml import parse_expr
from repro.miniml.ast_nodes import EConst, EVar
from repro.tree import (
    StructuralKeyer,
    get_at,
    node_depth,
    node_size,
    replace_at,
    structurally_equal,
    walk,
)

_idents = st.sampled_from(["x", "y", "f", "g"])


@st.composite
def expr_trees(draw, depth=0):
    from repro.miniml.ast_nodes import EApp, EBinop, EIf, EList, ETuple

    if depth >= 3:
        if draw(st.booleans()):
            return EConst(draw(st.integers(0, 9)), "int")
        return EVar(draw(_idents))
    choice = draw(st.integers(0, 5))
    sub = lambda: draw(expr_trees(depth=depth + 1))  # noqa: E731
    if choice == 0:
        return EConst(draw(st.integers(0, 9)), "int")
    if choice == 1:
        return EVar(draw(_idents))
    if choice == 2:
        return EBinop(draw(st.sampled_from(["+", "-", "*"])), sub(), sub())
    if choice == 3:
        return EApp(EVar(draw(_idents)), [sub() for _ in range(draw(st.integers(1, 3)))])
    if choice == 4:
        return EList([sub() for _ in range(draw(st.integers(0, 3)))])
    return EIf(sub(), sub(), sub())


class TestWalkProperties:
    @given(expr_trees())
    @settings(max_examples=200, deadline=None)
    def test_every_walked_path_addresses_its_node(self, tree):
        for path, node in walk(tree):
            assert get_at(tree, path) is node

    @given(expr_trees())
    @settings(max_examples=200, deadline=None)
    def test_node_size_equals_walk_length(self, tree):
        assert node_size(tree) == len(list(walk(tree)))

    @given(expr_trees())
    @settings(max_examples=100, deadline=None)
    def test_paths_are_unique(self, tree):
        paths = [p for p, _ in walk(tree)]
        assert len(paths) == len(set(paths))


class TestReplaceProperties:
    @given(expr_trees(), st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_replace_installs_exactly_at_path(self, tree, pick):
        nodes = list(walk(tree))
        path, _ = nodes[pick % len(nodes)]
        marker = EConst(424242, "int")
        replaced = replace_at(tree, path, marker)
        assert get_at(replaced, path) is marker

    @given(expr_trees(), st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_original_tree_unchanged(self, tree, pick):
        nodes = list(walk(tree))
        path, original_node = nodes[pick % len(nodes)]
        before = node_size(tree)
        replace_at(tree, path, wildcard_expr())
        assert get_at(tree, path) is original_node
        assert node_size(tree) == before

    @given(expr_trees(), st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_replace_with_same_subtree_is_structural_identity(self, tree, pick):
        nodes = list(walk(tree))
        path, node = nodes[pick % len(nodes)]
        replaced = replace_at(tree, path, node)
        assert structurally_equal(replaced, tree)

    @given(expr_trees(), st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_off_path_subtrees_shared_not_copied(self, tree, pick):
        nodes = list(walk(tree))
        path, _ = nodes[pick % len(nodes)]
        replaced = replace_at(tree, path, wildcard_expr())
        # Every node NOT on the replacement path is the same object.
        on_path_prefixes = {path[:i] for i in range(len(path) + 1)}
        for other_path, other_node in walk(tree):
            if other_path in on_path_prefixes:
                continue
            if other_path[: len(path)] == path:
                continue  # inside the replaced subtree
            try:
                assert get_at(replaced, other_path) is other_node
            except KeyError:
                pass  # path shape changed under the replacement


class TestStructuralEqualityProperties:
    @given(expr_trees())
    @settings(max_examples=150, deadline=None)
    def test_reflexive(self, tree):
        assert structurally_equal(tree, tree)

    @given(expr_trees())
    @settings(max_examples=100, deadline=None)
    def test_pretty_parse_preserves_structure(self, tree):
        from repro.miniml.pretty import pretty_expr

        assert structurally_equal(tree, parse_expr(pretty_expr(tree)))

    @given(expr_trees(), expr_trees())
    @settings(max_examples=100, deadline=None)
    def test_symmetric(self, a, b):
        assert structurally_equal(a, b) == structurally_equal(b, a)


class TestKeyDepthProperties:
    """The oracle's depth guard reads ``HCKey.depth``; it must be exact."""

    @given(expr_trees())
    @settings(max_examples=200, deadline=None)
    def test_key_depth_is_node_depth(self, tree):
        key = StructuralKeyer()(tree)
        assert key.depth == node_depth(tree)
        # Unpickling rebuilds the key from its parts and keeps the depth.
        assert pickle.loads(pickle.dumps(key)).depth == key.depth

    @given(expr_trees(), expr_trees(), st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_shared_subtree_keys_keep_depth_exact(self, tree, graft, pick):
        # A candidate keyed after its original reuses the original's
        # memoized and interned child keys.
        keyer = StructuralKeyer()
        keyer(tree)
        nodes = list(walk(tree))
        path, _ = nodes[pick % len(nodes)]
        candidate = replace_at(tree, path, graft)
        assert keyer(candidate).depth == node_depth(candidate)

    @given(expr_trees(), expr_trees(), st.integers(0, 10_000), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_measured_depth_is_node_depth(self, tree, graft, pick, graft_keyed):
        # StructuralKeyer.depth walks what the keyer has not keyed and
        # reads HCKey.depth for the rest; it interns nothing either way.
        nodes = list(walk(tree))
        path, _ = nodes[pick % len(nodes)]
        candidate = replace_at(tree, path, graft)
        cold = StructuralKeyer()
        assert cold.depth(candidate) == node_depth(candidate)
        assert cold.interned == 0
        warm = StructuralKeyer()
        warm(tree)
        if graft_keyed:
            warm(graft)
        interned = warm.interned
        assert warm.depth(candidate) == node_depth(candidate)
        assert warm.interned == interned
