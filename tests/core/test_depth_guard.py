"""The oracle's depth guard against the exact walk.

:meth:`~repro.tree.StructuralKeyer.depth` walks only what the keyer has
not keyed and reads :attr:`~repro.tree.HCKey.depth` for the rest, so it
must equal :func:`~repro.tree.node_depth` on every candidate the search
can build, whether the base program is keyed or not, and must intern
nothing.  With a verdict store attached, the oracle keys the candidate
before the guard runs; a tree too deep to key is then rejected as too
deep, before any store traffic.
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
    def test_cold_keyer_measures_exactly(self, corpus_candidates):
        for _, candidates in corpus_candidates:
            for candidate, depth in candidates:
                keyer = StructuralKeyer()
                assert keyer.depth(candidate) == depth
                assert keyer.interned == 0

    def test_keyed_base_measures_exactly(self, corpus_candidates):
        total = 0
        for base, candidates in corpus_candidates:
            keyer = StructuralKeyer()
            keyer(base)
            interned = keyer.interned
            for candidate, depth in candidates:
                assert keyer.depth(candidate) == depth
                total += 1
            assert keyer.interned == interned
        assert total > 1000

    def test_exceeds_agrees_at_the_boundary(self, corpus_candidates):
        for base, candidates in corpus_candidates:
            keyer = StructuralKeyer()
            keyer(base)
            probe = DepthProbe(keyer)
            for candidate, depth in candidates:
                assert probe.exceeds(candidate, depth - 1)
                assert not probe.exceeds(candidate, depth)


class TestStoreFirstOrder:
    def test_unkeyable_candidate_is_rejected_before_the_store(self, tmp_path):
        with VerdictStore(tmp_path) as store:
            oracle = Oracle(store=store)
            result = oracle.check(deep_app_chain(PATHOLOGICAL))
        assert result.ok is False
        assert oracle.depth_rejections == 1
        assert oracle.crashes == 0
        assert oracle.calls == 0
        assert oracle.store_writes == 0
        assert oracle.store_hits == 0
        assert oracle.store_misses == 0

    def test_guard_reads_the_store_key_at_the_root(self, tmp_path, monkeypatch):
        # Keyed for the store first, the candidate's root is in the memo:
        # the guard's read descends no further.
        visits = []
        measure = StructuralKeyer._depth

        def counting(self, node):
            visits.append(node)
            return measure(self, node)

        monkeypatch.setattr(StructuralKeyer, "_depth", counting)
        program = parse_program("let a = 1\nlet b = a + 1\nlet c = b ^ a")
        with VerdictStore(tmp_path) as store:
            oracle = Oracle(store=store)
            assert not oracle.check(program).ok
        assert visits == [program]
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
