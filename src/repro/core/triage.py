"""Triage: robust search under multiple independent type errors (Section 2.4).

When removing a whole subtree is the only suggestion regular search can make,
the subtree usually contains *several* independent errors: no single smaller
removal can fix the program.  Triage recovers precision by focusing on one
child at a time while wildcarding away some of its siblings (thereby deleting
their type constraints), then running regular search on the focused child in
that reduced context.

Sibling selection uses the paper's middle road between "remove all n-1
others" (under-constrained) and "minimal subsets" (exponential): cumulatively
remove the other children one at a time, and recurse with the first context
in which the focused child becomes fixable.  Per the paper's footnote, the
all-present context need not be tried (it is known to fail: no single removal
fixed the node) — we start from one sibling removed.

Expressions with *binding occurrences* (``match``/``function``) get the
three-phase treatment of Figure 4: scrutinee first (patterns and arms
removed), then patterns (arms removed), then arm bodies.

Prefix reuse: every context and candidate triage builds derives from the
searcher's root via :func:`repro.tree.replace_at` at paths *inside* the
failing declaration, so the top-level declarations before it are shared by
identity and the oracle's armed :class:`~repro.miniml.infer.SpeculativeState`
keeps matching — triage rounds ride the prefix snapshot route for free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.miniml.ast_nodes import (
    EFunction,
    EMatch,
    Expr,
    MatchCase,
    Pattern,
    Program,
)
from repro.tree import Node, Path, get_at, replace_at

from .changes import Suggestion
from .enumerator import wildcard_expr, wildcard_for, wildcard_pattern

if TYPE_CHECKING:  # pragma: no cover
    from .searcher import Searcher


def triage_node(searcher: "Searcher", root: Program, path: Path, depth: int) -> List[Suggestion]:
    """Triage the subtree at ``path``; returns triaged suggestions."""
    # Graceful degradation: past the soft wall-clock deadline triage (the
    # paper's own Figure 7 tail) is shed wholesale — the caller then keeps
    # the wholesale-removal suggestion instead of the isolated errors.
    if searcher._shed("triage"):
        return []
    node = get_at(root, path)
    searcher.metrics.incr("triage.rounds")
    searcher.metrics.observe("triage.depth", depth)
    if searcher.tracer.enabled:
        from repro.obs import format_path
        from repro.tree import node_size

        span = searcher.tracer.span(
            "triage",
            path=format_path(path),
            size=node_size(node),
            depth=depth,
            strategy=searcher.config.triage_strategy,
        )
    else:
        span = searcher.tracer.span("triage")
    with span as sp:
        calls_before = searcher.oracle.calls
        if isinstance(node, (EMatch, EFunction)):
            results = _triage_match(searcher, root, path, node, depth)
        else:
            results = _triage_siblings(searcher, root, path, depth)
        sp.set("suggestions", len(results))
        sp.set("oracle_calls", searcher.oracle.calls - calls_before)
        return results


# ---------------------------------------------------------------------------
# Generic sibling triage
# ---------------------------------------------------------------------------


def _triage_siblings(searcher: "Searcher", root: Program, path: Path, depth: int) -> List[Suggestion]:
    """Focus each expression child in turn, greedily removing other children."""
    siblings = [
        p
        for p in searcher._searchable_children(root, path)
        if isinstance(get_at(root, p), Expr)
    ]
    if len(siblings) < 2:
        return []
    results: List[Suggestion] = []
    for index, focus in enumerate(siblings):
        others = [p for i, p in enumerate(siblings) if i != index]
        found = _find_context(searcher, root, focus, others)
        if found is None:
            continue
        context_root, removed = found
        for suggestion in searcher._search(context_root, focus, depth):
            _mark(suggestion, removed)
            results.append(suggestion)
    return results


def _find_context(
    searcher: "Searcher",
    root: Program,
    focus: Path,
    others: List[Path],
) -> Optional[Tuple[Program, List[Path]]]:
    """Find a reduced context in which the focused child is the problem.

    Two oracle conditions gate every accepted context:

    * removing the focused child must *fix* the context (some fix exists —
      "at the very least, it can be removed", Section 2.4), and
    * keeping the focused child must still *fail* — otherwise the focused
      child is healthy and every error lives in the removed siblings, so
      focusing on it would generate junk suggestions for correct code.

    The sibling-removal strategy is configurable (A2 ablation):

    * ``greedy`` (paper, default): cumulatively wildcard the other children
      one at a time, last first, and take the first context that works;
    * ``remove-all``: wildcard all the other children at once (the paper's
      "may leave e1 less constrained than necessary" extreme);
    * ``exhaustive``: minimal subsets by size ("potentially exponential").
    """
    strategy = searcher.config.triage_strategy
    if strategy == "remove-all":
        return _context_remove_all(searcher, root, focus, others)
    if strategy == "exhaustive":
        return _context_exhaustive(searcher, root, focus, others)
    return _context_greedy(searcher, root, focus, others)


def _focus_wildcard(root: Program, focus: Path):
    return wildcard_for(get_at(root, focus))


def _accept(searcher, context: Program, focus: Path, focus_wildcard) -> bool:
    """The two gating oracle conditions (see :func:`_find_context`)."""
    searcher._tick("triage_tests")
    if not searcher._passes(replace_at(context, focus, focus_wildcard)):
        return False
    searcher._tick("triage_tests")
    return not searcher._passes(context)


def _context_greedy(searcher, root, focus, others):
    focus_wildcard = _focus_wildcard(root, focus)
    if focus_wildcard is None:
        return None
    context = root
    removed: List[Path] = []
    for other in reversed(others):
        wildcard = wildcard_for(get_at(root, other))
        if wildcard is None:
            continue
        context = replace_at(context, other, wildcard)
        removed.append(other)
        searcher._tick("triage_tests")
        if searcher._passes(replace_at(context, focus, focus_wildcard)):
            searcher._tick("triage_tests")
            if searcher._passes(context):
                return None  # the focused child is not one of the problems
            return context, removed
    return None


def _context_remove_all(searcher, root, focus, others):
    focus_wildcard = _focus_wildcard(root, focus)
    if focus_wildcard is None:
        return None
    context = root
    removed: List[Path] = []
    for other in others:
        wildcard = wildcard_for(get_at(root, other))
        if wildcard is None:
            continue
        context = replace_at(context, other, wildcard)
        removed.append(other)
    if not removed:
        return None
    if _accept(searcher, context, focus, focus_wildcard):
        return context, removed
    return None


def _context_exhaustive(searcher, root, focus, others, max_siblings: int = 8):
    from itertools import combinations

    focus_wildcard = _focus_wildcard(root, focus)
    if focus_wildcard is None:
        return None
    removable = [o for o in others if wildcard_for(get_at(root, o)) is not None]
    removable = removable[:max_siblings]
    for size in range(1, len(removable) + 1):
        for subset in combinations(removable, size):
            context = root
            for other in subset:
                context = replace_at(context, other, wildcard_for(get_at(root, other)))
            if _accept(searcher, context, focus, focus_wildcard):
                return context, list(subset)
    return None


def _mark(suggestion: Suggestion, removed: List[Path]) -> None:
    suggestion.triaged = True
    suggestion.removed_paths = removed + suggestion.removed_paths


# ---------------------------------------------------------------------------
# Binding-aware phases for match/function (Figure 4)
# ---------------------------------------------------------------------------


def _rebuild(node, cases: List[MatchCase]):
    if isinstance(node, EMatch):
        return EMatch(node.scrutinee, cases)
    return EFunction(cases)


def _triage_match(
    searcher: "Searcher", root: Program, path: Path, node, depth: int
) -> List[Suggestion]:
    results: List[Suggestion] = []
    has_scrutinee = isinstance(node, EMatch)

    # ---- Phase 1: the scrutinee alone --------------------------------
    if has_scrutinee:
        skeleton_cases = [MatchCase(wildcard_pattern(), wildcard_expr())]
        skeleton_root = replace_at(root, path, _rebuild(node, skeleton_cases))
        scrutinee_path = path + ("scrutinee",)
        searcher._tick("triage_tests")
        if not searcher._passes(skeleton_root):
            # The scrutinee itself is broken: search it in the reduced
            # context and do not proceed to later phases (Fig. 4).
            removable = replace_at(skeleton_root, scrutinee_path, wildcard_expr())
            searcher._tick("triage_tests")
            if searcher._passes(removable):
                removed = _case_paths(node, path)
                for suggestion in searcher._search(skeleton_root, scrutinee_path, depth):
                    _mark(suggestion, removed)
                    results.append(suggestion)
            return results

    # ---- Phase 2: scrutinee + patterns (arm bodies removed) -----------
    pattern_cases = [MatchCase(c.pattern, wildcard_expr()) for c in node.cases]
    phase2_root = replace_at(root, path, _rebuild(node, pattern_cases))
    pattern_paths = [
        path + (("cases", i), "pattern") for i in range(len(node.cases))
    ]
    searcher._tick("triage_tests")
    if not searcher._passes(phase2_root):
        # Patterns conflict with the scrutinee or one another: triage them.
        body_paths = _body_paths(node, path)
        for index, focus in enumerate(pattern_paths):
            others = [p for i, p in enumerate(pattern_paths) if i != index]
            found = _find_context(searcher, phase2_root, focus, others)
            if found is None:
                continue
            context_root, removed = found
            for suggestion in searcher._search(context_root, focus, depth):
                _mark(suggestion, removed + body_paths)
                results.append(suggestion)
        return results

    # ---- Phase 3: arm bodies ------------------------------------------
    body_paths = _body_paths(node, path)
    for index, focus in enumerate(body_paths):
        others = [p for i, p in enumerate(body_paths) if i != index]
        found = _find_context(searcher, root, focus, others)
        if found is None:
            continue
        context_root, removed = found
        for suggestion in searcher._search(context_root, focus, depth):
            _mark(suggestion, removed)
            results.append(suggestion)
    return results


def _case_paths(node, path: Path) -> List[Path]:
    return [path + (("cases", i),) for i in range(len(node.cases))]


def _body_paths(node, path: Path) -> List[Path]:
    return [path + (("cases", i), "body") for i in range(len(node.cases))]
