"""One structural keyer per search (interning shared across checks).

Candidate dedup, the oracle's depth guard and store keys, and the
declaration outcome table all key the same subtrees; each used to keep a
private memo and re-walk shared structure.  The searcher now owns a single
:class:`~repro.tree.StructuralKeyer` per search, adopts it into the
oracle, and reports how much it interned as ``search.keys.interned``.
"""

from repro.core import Oracle
from repro.core.searcher import SearchConfig, Searcher
from repro.miniml import parse_program
from repro.obs.metrics import MetricsRegistry
from repro.tree import StructuralKeyer

ILL_TYPED = "let a = 1\nlet b = a + 1\nlet c = b ^ a"


class TestSharedKeyer:
    def test_oracle_adopts_the_search_keyer(self):
        searcher = Searcher(config=SearchConfig())
        assert searcher.oracle._keyer is searcher._keyer
        assert searcher.oracle._depth_probe.keyer is searcher._keyer
        if searcher.config.dedup:
            assert searcher._dedup_keyer is searcher._keyer

    def test_adopted_keyer_backs_the_depth_guard(self):
        oracle = Oracle()
        keyer = StructuralKeyer()
        oracle.adopt_keyer(keyer)
        assert oracle._keyer is keyer
        assert oracle._depth_probe.keyer is keyer
        # No store is attached, so only the depth guard keys the program.
        assert not oracle.check(parse_program(ILL_TYPED)).ok
        assert keyer.interned > 0

    def test_interned_property_counts_memo_entries(self):
        keyer = StructuralKeyer()
        assert keyer.interned == 0
        program = parse_program(ILL_TYPED)
        keyer(program)
        assert keyer.interned > 0

    def test_search_emits_interned_metric(self):
        metrics = MetricsRegistry()
        searcher = Searcher(
            config=SearchConfig(), oracle=Oracle(metrics=metrics), metrics=metrics
        )
        searcher.search_program(parse_program(ILL_TYPED))
        assert metrics.value("search.keys.interned") > 0

    def test_keyer_resets_between_searches(self):
        searcher = Searcher(config=SearchConfig())
        searcher.search_program(parse_program(ILL_TYPED))
        grown = searcher._keyer.interned
        assert grown > 0
        searcher.search_program(parse_program("let solo = 1 + true"))
        # A fresh search starts from a cleared memo: the second (smaller)
        # program cannot still see the first one's interned entries.
        assert searcher._keyer.interned < grown
