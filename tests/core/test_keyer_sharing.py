"""The oracle's structural keyer is the only keyer in a search.

Store keys and the declaration outcome table key the same subtrees, so
they share one :class:`~repro.tree.StructuralKeyer`, which the oracle
builds once and clears in :meth:`~repro.core.oracle.Oracle.reset`.  The
depth guard reads depths off that keyer and keys nothing itself.  The
searcher builds no keyer of its own; it reports how much the oracle's
keyer interned as ``search.keys.interned``.
"""

from repro.core import Oracle
from repro.core.searcher import SearchConfig, Searcher
from repro.miniml import parse_program
from repro.obs.metrics import MetricsRegistry
from repro.store import VerdictStore
from repro.tree import StructuralKeyer, node_depth

ILL_TYPED = "let a = 1\nlet b = a + 1\nlet c = b ^ a"
FIRST_DECL_ILL_TYPED = "let a = (1 + 2) * (3 + true)\nlet b = a + 1"


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
        program = parse_program(ILL_TYPED)
        # No store and no decl table: the guard measures, keying nothing.
        assert not oracle.check(program).ok
        assert oracle.keyer.interned == 0
        # The decl table keys the declarations into the oracle's keyer...
        oracle.arm_decl_table(program)
        assert not oracle.check(program).ok
        interned = oracle.keyer.interned
        assert interned > 0
        # ...and the guard reads their depths without interning more.
        depth = node_depth(program)
        assert oracle._depth_probe.exceeds(program, depth - 1)
        assert not oracle._depth_probe.exceeds(program, depth)
        assert oracle.keyer.interned == interned

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
        # The failing first declaration leaves no prefix to snapshot, so
        # the decl table answers, and keys, every candidate.
        searcher.search_program(parse_program(FIRST_DECL_ILL_TYPED))
        grown = keyer.interned
        assert grown > 0
        small = parse_program("let solo = 1 + true")
        searcher.search_program(small)
        # The oracle keeps one keyer and clears it per search: the second
        # (smaller) program cannot still see the first one's entries.
        assert searcher.oracle.keyer is keyer
        assert keyer.interned < grown
        fresh = Searcher(config=SearchConfig())
        fresh.search_program(small)
        assert keyer.interned == fresh.oracle.keyer.interned

    def test_reset_clears_the_keyer(self, tmp_path):
        with VerdictStore(tmp_path) as store:
            oracle = Oracle(store=store)
            # The store keys every checked program into the oracle's keyer.
            oracle.check(parse_program(ILL_TYPED))
        assert oracle.keyer.interned > 0
        oracle.reset()
        assert oracle.keyer.interned == 0
