"""The oracle's structural keyer is the only keyer in a search.

Only the verdict store keys programs, through one
:class:`~repro.tree.StructuralKeyer` that the oracle builds once and
clears in :meth:`~repro.core.oracle.Oracle.reset`.  The declaration table
matches by identity and the depth guard keeps its own memo of heights, so
neither keys anything.  The searcher builds no keyer of its own; it
reports how much the oracle's keyer interned as ``search.keys.interned``.
"""

from repro.core import Oracle
from repro.core.searcher import SearchConfig, Searcher
from repro.miniml import parse_program
from repro.miniml.ast_nodes import Program
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

    def test_depth_guard_and_decl_table_key_nothing(self):
        oracle = Oracle()
        assert not hasattr(oracle._depth_probe, "keyer")
        program = parse_program(ILL_TYPED)
        # No store: the guard measures and the decl table records from
        # this first check, keying nothing...
        assert not oracle.check(program).ok
        assert oracle.keyer.interned == 0
        # ...and the table answers, keying nothing.
        assert not oracle.check(program).ok
        assert oracle.check(Program(program.decls[:2])).ok
        assert oracle.keyer.interned == 0
        depth = node_depth(program)
        assert oracle._depth_probe.exceeds(program, depth - 1)
        assert not oracle._depth_probe.exceeds(program, depth)
        assert oracle.keyer.interned == 0

    def test_interned_property_counts_memo_entries(self):
        keyer = StructuralKeyer()
        assert keyer.interned == 0
        program = parse_program(ILL_TYPED)
        keyer(program)
        assert keyer.interned > 0

    def test_search_emits_interned_metric(self, tmp_path):
        metrics = MetricsRegistry()
        with VerdictStore(tmp_path) as store:
            oracle = Oracle(metrics=metrics, store=store)
            searcher = Searcher(config=SearchConfig(), oracle=oracle, metrics=metrics)
            searcher.search_program(parse_program(ILL_TYPED))
        interned = searcher.oracle.keyer.interned
        assert interned > 0
        assert metrics.value("search.keys.interned") == interned
        # Without a store nothing is keyed, and the metric is absent.
        plain = MetricsRegistry()
        Searcher(
            config=SearchConfig(), oracle=Oracle(metrics=plain), metrics=plain
        ).search_program(parse_program(ILL_TYPED))
        assert "search.keys.interned" not in plain.counters("search.keys")

    def test_keyer_resets_between_searches(self, tmp_path):
        with VerdictStore(tmp_path / "a") as store, VerdictStore(tmp_path / "b") as other:
            searcher = Searcher(config=SearchConfig(), oracle=Oracle(store=store))
            keyer = searcher.oracle.keyer
            # The store keys every candidate the search checks.
            searcher.search_program(parse_program(FIRST_DECL_ILL_TYPED))
            grown = keyer.interned
            assert grown > 0
            small = parse_program("let solo = 1 + true")
            searcher.search_program(small)
            # The oracle keeps one keyer and clears it per search: the
            # second (smaller) program cannot still see the first one's
            # entries.
            assert searcher.oracle.keyer is keyer
            assert keyer.interned < grown
            fresh = Searcher(config=SearchConfig(), oracle=Oracle(store=other))
            fresh.search_program(small)
        assert keyer.interned == fresh.oracle.keyer.interned

    def test_reset_clears_the_keyer(self, tmp_path):
        with VerdictStore(tmp_path) as store:
            oracle = Oracle(store=store)
            # The store keys every checked program into the oracle's keyer.
            oracle.check(parse_program(ILL_TYPED))
        assert oracle.keyer.interned > 0
        assert oracle._depth_probe._memo
        oracle.reset()
        assert oracle.keyer.interned == 0
        assert not oracle._depth_probe._memo
