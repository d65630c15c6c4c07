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
    DepthProbe,
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


def _measures(probe, tree):
    """Whether ``probe`` puts ``tree``'s height exactly at its node depth."""
    depth = node_depth(tree)
    return probe.exceeds(tree, depth - 1) and not probe.exceeds(tree, depth)


class TestDepthProbeProperties:
    """The oracle's depth guard reads memoized heights; it must be exact."""

    @given(expr_trees())
    @settings(max_examples=200, deadline=None)
    def test_probe_height_is_node_depth(self, tree):
        assert _measures(DepthProbe(), tree)
        # A pickled copy is all fresh objects: the memo of the original's
        # heights does not answer for it, and it measures the same.
        probe = DepthProbe()
        probe.exceeds(tree, 0)
        assert _measures(probe, pickle.loads(pickle.dumps(tree)))

    @given(expr_trees(), expr_trees(), st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_shared_subtree_heights_stay_exact(self, tree, graft, pick):
        # A candidate measured after its original reuses the original's
        # memoized heights.
        probe = DepthProbe()
        probe.exceeds(tree, 0)
        nodes = list(walk(tree))
        path, _ = nodes[pick % len(nodes)]
        candidate = replace_at(tree, path, graft)
        assert _measures(probe, candidate)

    @given(expr_trees(), expr_trees(), st.integers(0, 10_000), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_probe_walks_only_unmeasured_nodes(self, tree, graft, pick, graft_measured):
        # A cold probe walks the whole candidate; a warm one walks only its
        # rebuilt spine, plus the graft when it has not measured it.
        nodes = list(walk(tree))
        path, _ = nodes[pick % len(nodes)]
        candidate = replace_at(tree, path, graft)
        assert _measures(DepthProbe(), candidate)
        warm = DepthProbe()
        warm.exceeds(tree, 0)
        if graft_measured:
            warm.exceeds(graft, 0)
        before = len(warm._memo)
        assert _measures(warm, candidate)
        walked = len(path) + (0 if graft_measured else node_size(graft))
        assert len(warm._memo) - before == walked
