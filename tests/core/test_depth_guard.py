"""The oracle's depth guard against the exact walk.

:class:`~repro.tree.DepthProbe` walks only what its memo has not measured
and reads memoized heights for the rest, so it must agree with
:func:`~repro.tree.node_depth` on every candidate the search can build,
whether the base program was measured first or not.  The guard runs
before a verdict store keys anything: a tree too deep for it is rejected
before any keying or store traffic.
"""

import pytest

import repro.core.oracle as oracle_module
from repro.core import Oracle
from repro.core.enumerator import MiniMLEnumerator, wildcard_for
from repro.corpus.generator import generate_corpus
from repro.miniml import parse_program
from repro.store import VerdictStore
from repro.tree import DepthProbe, StructuralKeyer, node_depth, replace_at, walk
from tests.miniml.test_deep_nesting import PATHOLOGICAL, deep_app_chain

#: Fig. 7 study representatives, spread evenly over the corpus so every
#: assignment is covered.
N_REPRESENTATIVES = 20

#: Every candidate at every PATH_STRIDE-th node of a representative (in
#: walk order).  The full sweep, every node of all 20, builds about 24k
#: candidates and spends most of a minute in the reference walk.
PATH_STRIDE = 8


def _representatives():
    reps = generate_corpus(seed=2007, scale=0.3).representatives
    step = len(reps) / N_REPRESENTATIVES
    return [reps[int(i * step)].program for i in range(N_REPRESENTATIVES)]


def _candidates(base, enumerator):
    """The wildcard and every enumerator change at the sampled paths."""
    for i, (path, node) in enumerate(walk(base)):
        if i % PATH_STRIDE:
            continue
        wildcard = wildcard_for(node)
        if wildcard is not None:
            yield replace_at(base, path, wildcard)
        for change_node in enumerator.changes(node, path):
            change = change_node.change
            yield replace_at(base, change.path, change.replacement)


@pytest.fixture(scope="module")
def corpus_candidates():
    enumerator = MiniMLEnumerator()
    out = []
    for base in _representatives():
        candidates = list(_candidates(base, enumerator))
        out.append((base, [(c, node_depth(c)) for c in candidates]))
    return out


class TestAgainstNodeDepth:
    def test_cold_probe_measures_exactly(self, corpus_candidates):
        for _, candidates in corpus_candidates:
            for candidate, depth in candidates:
                assert DepthProbe().exceeds(candidate, depth - 1)
                assert not DepthProbe().exceeds(candidate, depth)

    def test_measured_base_leaves_only_the_spine_to_walk(self, corpus_candidates):
        total = 0
        for base, candidates in corpus_candidates:
            probe = DepthProbe()
            probe.exceeds(base, 0)
            for candidate, depth in candidates:
                unmeasured = {id(node) for _, node in walk(candidate)} - set(probe._memo)
                before = len(probe._memo)
                assert not probe.exceeds(candidate, depth)
                assert len(probe._memo) - before == len(unmeasured)
                total += 1
        assert total > 1000

    def test_exceeds_agrees_at_the_boundary(self, corpus_candidates):
        for base, candidates in corpus_candidates:
            probe = DepthProbe()
            probe.exceeds(base, 0)
            for candidate, depth in candidates:
                assert probe.exceeds(candidate, depth - 1)
                assert not probe.exceeds(candidate, depth)


class TestGuardBeforeStore:
    def test_unkeyable_candidate_is_rejected_before_the_store(self, tmp_path):
        with VerdictStore(tmp_path) as store:
            oracle = Oracle(store=store)
            result = oracle.check(deep_app_chain(PATHOLOGICAL))
        assert result.ok is False
        assert oracle.depth_rejections == 1
        assert oracle.crashes == 0
        assert oracle.calls == 0
        assert oracle.keyer.interned == 0
        assert oracle.store_writes == 0
        assert oracle.store_hits == 0
        assert oracle.store_misses == 0

    def test_guard_runs_before_the_store_keys(self, tmp_path, monkeypatch):
        order = []
        exceeds, key = DepthProbe.exceeds, StructuralKeyer.__call__

        def guard(self, root, limit):
            order.append("guard")
            return exceeds(self, root, limit)

        def keyer(self, root):
            order.append("key")
            return key(self, root)

        monkeypatch.setattr(DepthProbe, "exceeds", guard)
        monkeypatch.setattr(StructuralKeyer, "__call__", keyer)
        program = parse_program("let a = 1\nlet b = a + 1\nlet c = b ^ a")
        with VerdictStore(tmp_path) as store:
            oracle = Oracle(store=store)
            assert not oracle.check(program).ok
        assert order == ["guard", "key"]
        assert oracle.store_misses == 1

    def test_over_limit_candidate_with_store_touches_no_store(
        self, tmp_path, monkeypatch
    ):
        program = deep_app_chain(10)
        monkeypatch.setattr(
            oracle_module, "default_max_depth", lambda: node_depth(program) - 1
        )
        with VerdictStore(tmp_path) as store:
            oracle = Oracle(store=store)
            assert oracle.check(program).ok is False
        assert oracle.depth_rejections == 1
        assert oracle.calls == 0
        assert (oracle.store_hits, oracle.store_misses, oracle.store_writes) == (0, 0, 0)

    def test_over_limit_candidate_is_rejected_before_the_keyer_interns(
        self, tmp_path, monkeypatch
    ):
        program = deep_app_chain(10)
        monkeypatch.setattr(
            oracle_module, "default_max_depth", lambda: node_depth(program) - 1
        )
        with VerdictStore(tmp_path) as store:
            oracle = Oracle(store=store)
            assert oracle.check(program).ok is False
            assert oracle.keyer.interned == 0
            # Within the limit, the same program is keyed for the store.
            oracle.max_depth = node_depth(program)
            oracle.check(program)
            assert oracle.keyer.interned > 0
        assert oracle.depth_rejections == 1
