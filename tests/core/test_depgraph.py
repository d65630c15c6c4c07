"""Checker-agnostic dependency planning (`repro.core.depgraph`).

These tests drive :func:`plan_replay` with hand-built def/use summaries — no MiniML involved — so the propagation
rules (dirty seeding, shadow cuts, rename invalidation, weak cliques) are
each pinned in isolation.
"""

from repro.core.depgraph import (
    PLAN_CHECK,
    PLAN_REPLAY,
    DeclOutcome,
    DeclTable,
    plan_replay,
)

V = lambda n: ("value", n)  # noqa: E731


def _table(*entries):
    outs = []
    for i, (uses, defs, weak) in enumerate(entries):
        outs.append(
            DeclOutcome(
                skey=("k", i),
                uses=frozenset(uses),
                defs=frozenset(defs),
                weak_names=frozenset(weak),
            )
        )
    return DeclTable(entries=outs)


def _plan(table, changed_indices, use_defs=None):
    """Plan for a candidate that structurally changed ``changed_indices``."""
    n = len(table)
    skeys = [
        ("changed", i) if i in changed_indices else ("k", i)
        for i in range(n)
    ]
    if use_defs is None:
        use_defs = [(e.uses, e.defs) for e in table.entries]
    return plan_replay(table, skeys, use_defs)


class TestDependents:
    """Which later declarations a change to declaration 0 reaches."""

    def test_direct_dependent(self):
        table = _table(
            ([], [V("a")], []), ([V("a")], [V("b")], []), ([], [V("c")], [])
        )
        assert _plan(table, {0}) == [PLAN_CHECK, PLAN_CHECK, PLAN_REPLAY]

    def test_transitive_dependent(self):
        table = _table(
            ([], [V("a")], []),
            ([V("a")], [V("b")], []),
            ([V("b")], [V("c")], []),
        )
        assert _plan(table, {0}) == [PLAN_CHECK, PLAN_CHECK, PLAN_CHECK]

    def test_shadow_cuts_the_edge(self):
        # decl 1 re-defines `a` without using it: decl 2's use of `a`
        # resolves to decl 1, so changing decl 0 cannot reach decl 2.
        table = _table(
            ([], [V("a")], []),
            ([], [V("a")], []),
            ([V("a")], [], []),
        )
        assert _plan(table, {0}) == [PLAN_CHECK, PLAN_REPLAY, PLAN_REPLAY]

    def test_dependent_redefinition_stays_dirty(self):
        # decl 1 both uses and re-defines `a`: later users still observe
        # the change (through decl 1's re-inferred binding).
        table = _table(
            ([], [V("a")], []),
            ([V("a")], [V("a")], []),
            ([V("a")], [], []),
        )
        assert _plan(table, {0}) == [PLAN_CHECK, PLAN_CHECK, PLAN_CHECK]


class TestPlanReplay:
    def test_unchanged_candidate_is_all_replay(self):
        table = _table(([], [V("a")], []), ([V("a")], [V("b")], []))
        assert _plan(table, set()) == [PLAN_REPLAY, PLAN_REPLAY]

    def test_changed_decl_and_dependents_checked(self):
        table = _table(
            ([], [V("a")], []),
            ([V("a")], [V("b")], []),
            ([], [V("c")], []),
        )
        assert _plan(table, {0}) == [PLAN_CHECK, PLAN_CHECK, PLAN_REPLAY]

    def test_independent_suffix_replays(self):
        table = _table(
            ([], [V("a")], []),
            ([], [V("b")], []),
            ([V("a")], [V("c")], []),
        )
        # Mutating decl 1 leaves both the `a`-chain decls replayable.
        assert _plan(table, {1}) == [PLAN_REPLAY, PLAN_CHECK, PLAN_REPLAY]

    def test_later_rebinding_cuts_dependency(self):
        # ISSUE satellite: a later `let x` re-binding a mutated name must
        # cut the dependency edge for declarations after it.
        table = _table(
            ([], [V("x")], []),      # let x = ...   (mutated)
            ([], [V("x")], []),      # let x = ...   (shadow cut)
            ([V("x")], [V("y")], []),  # sees decl 1's x only
        )
        assert _plan(table, {0}) == [PLAN_CHECK, PLAN_REPLAY, PLAN_REPLAY]

    def test_rename_dirties_baseline_defs(self):
        # Candidate turns `let f` into something no longer defining f:
        # decl 1's recorded check resolved f at decl 0, so it must re-run.
        table = _table(
            ([], [V("f")], []),
            ([V("f")], [], []),
        )
        plan = plan_replay(
            table,
            [("changed", 0), ("k", 1)],
            [(frozenset(), frozenset({V("g")})), (frozenset({V("f")}), frozenset())],
        )
        assert plan == [PLAN_CHECK, PLAN_CHECK]

    def test_new_trailing_decl_is_checked(self):
        table = _table(([], [V("a")], []))
        plan = plan_replay(
            table,
            [("k", 0), ("new", 1)],
            [(frozenset(), frozenset({V("a")})), (frozenset(), frozenset({V("b")}))],
        )
        assert plan == [PLAN_REPLAY, PLAN_CHECK]

    def test_weak_clique_escalates(self):
        # decl 1 holds a weak (value-restriction) binding r; decl 3 uses
        # it.  Changing decl 2 — which also touches r — must re-check the
        # whole clique, including decl 1 *before* the change point.
        table = _table(
            ([], [V("a")], []),
            ([], [V("r")], ["r"]),
            ([V("r")], [], []),
            ([V("r")], [V("z")], []),
        )
        assert _plan(table, {2}) == [
            PLAN_REPLAY,
            PLAN_CHECK,
            PLAN_CHECK,
            PLAN_CHECK,
        ]

    def test_change_outside_weak_clique_stays_pruned(self):
        table = _table(
            ([], [V("a")], []),
            ([], [V("r")], ["r"]),
            ([V("a")], [V("b")], []),
        )
        # decl 0's change propagates to decl 2 but never touches r, so
        # the weak binding at decl 1 replays untouched.
        assert _plan(table, {0}) == [PLAN_CHECK, PLAN_REPLAY, PLAN_CHECK]
