"""The oracle's structural keyer is the only keyer in a search.

The oracle's depth guard, store keys and declaration outcome table all key
the same subtrees, so they share one
:class:`~repro.tree.StructuralKeyer`, which the oracle builds once and
clears in :meth:`~repro.core.oracle.Oracle.reset`.  The searcher builds
none of its own; it reports how much the oracle's keyer interned as
``search.keys.interned``.
"""

from repro.core import Oracle
from repro.core.searcher import SearchConfig, Searcher
from repro.miniml import parse_program
from repro.obs.metrics import MetricsRegistry
from repro.tree import StructuralKeyer

ILL_TYPED = "let a = 1\nlet b = a + 1\nlet c = b ^ a"


class TestOracleKeyer:
    def test_searcher_builds_no_keyer(self):
        searcher = Searcher(config=SearchConfig())
        assert not any(
            isinstance(value, StructuralKeyer) for value in vars(searcher).values()
        )
        assert isinstance(searcher.oracle.keyer, StructuralKeyer)

    def test_oracle_keyer_backs_the_depth_guard(self):
        oracle = Oracle()
        assert oracle._depth_probe.keyer is oracle.keyer
        # No store is attached, so only the depth guard keys the program.
        assert not oracle.check(parse_program(ILL_TYPED)).ok
        assert oracle.keyer.interned > 0

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
        interned = searcher.oracle.keyer.interned
        assert interned > 0
        assert metrics.value("search.keys.interned") == interned

    def test_keyer_resets_between_searches(self):
        searcher = Searcher(config=SearchConfig())
        keyer = searcher.oracle.keyer
        searcher.search_program(parse_program(ILL_TYPED))
        grown = keyer.interned
        assert grown > 0
        searcher.search_program(parse_program("let solo = 1 + true"))
        # The oracle keeps one keyer and clears it per search: the second
        # (smaller) program cannot still see the first one's entries.
        assert searcher.oracle.keyer is keyer
        assert keyer.interned < grown

    def test_reset_clears_the_keyer(self):
        oracle = Oracle()
        oracle.check(parse_program(ILL_TYPED))
        assert oracle.keyer.interned > 0
        oracle.reset()
        assert oracle.keyer.interned == 0
