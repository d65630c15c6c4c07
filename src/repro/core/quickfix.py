"""Quick fixes: applying suggestions back to source text.

The paper's C++ prototype surfaced suggestions as Eclipse *quick fixes*
("a marker in the user interface that brings up a menu item, such as,
replace this expression by wrapping it in ptr_fun"), and its Section 6
future work asks for IDE integration.  This module is that layer for
MiniML: a suggestion knows the source span of the expression it rewrites,
so applying it is a textual splice that preserves all surrounding
formatting and comments.

:func:`apply_suggestion` splices one fix and *verifies* the result (it must
parse; for non-triaged suggestions it must also type-check) — falling back
to pretty-printing the whole fixed program if the splice cannot be
validated.  :func:`fix_all` iterates "apply the top suggestion, recompile"
until the program type-checks, which is exactly the workflow the paper
assumes programmers follow ("we expect programmers will often fix one error
and recompile").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.miniml.parser import ParseError, parse_program
from repro.miniml.pretty import pretty, pretty_program
from repro.miniml.infer import typecheck_source
from repro.tree import Node, walk

from .changes import KIND_ADAPT, Suggestion
from .seminal import ExplainResult, explain

#: The most fixes :func:`fix_all` applies before it stops.
MAX_ROUNDS = 10


def is_appliable(suggestion: Suggestion) -> bool:
    """Whether a suggestion denotes a concrete patch.

    Adaptations are advice ("change how the result is used"), not a
    rewrite — their replacement prints identically to the original — so
    they cannot be applied mechanically.
    """
    return suggestion.kind != KIND_ADAPT


def _source_text(node: Node) -> str:
    """Concrete syntax for splicing: synthetic wildcards print as the real
    ``raise Foo`` they are (the ``[[...]]`` display form is not code)."""
    flagged = [n for _, n in walk(node) if n.synthetic]
    for n in flagged:
        n.synthetic = False
    try:
        return pretty(node)
    finally:
        for n in flagged:
            n.synthetic = True


@dataclass
class AppliedFix:
    """Outcome of applying one suggestion to source text."""

    source: str
    #: True when the span splice worked; False when we had to fall back to
    #: re-printing the entire program (formatting is lost in that case).
    spliced: bool
    description: str


def apply_suggestion(source: str, suggestion: Suggestion) -> AppliedFix:
    """Apply ``suggestion`` to ``source``, returning the patched text.

    The splice targets the original expression's span.  The result is
    validated by re-parsing (and type-checking, unless the suggestion is
    triaged — triaged fixes intentionally leave other errors in place).
    """
    change = suggestion.change
    replacement_text = _source_text(change.replacement)
    description = f"replace `{pretty(change.original)}' with `{replacement_text}'"
    span = change.original.span
    if span is not None and 0 <= span.start_offset < span.end_offset <= len(source):
        # Try the plain splice, then a parenthesized one (the replacement
        # may bind looser than the slot the original occupied).
        for text in (replacement_text, f"({replacement_text})"):
            patched = source[: span.start_offset] + text + source[span.end_offset :]
            if _valid(patched, require_typecheck=not suggestion.triaged):
                return AppliedFix(patched, spliced=True, description=description)
    # Fallback: print the whole fixed program (loses comments/layout).
    fallback = _source_text(suggestion.program)
    if not fallback.endswith("\n"):
        fallback += "\n"
    return AppliedFix(fallback, spliced=False, description=description)


def _valid(source: str, require_typecheck: bool) -> bool:
    try:
        parse_program(source)
    except Exception:
        return False
    if not require_typecheck:
        return True
    return typecheck_source(source).ok


@dataclass
class FixAllResult:
    """Outcome of the iterative fix loop."""

    source: str
    ok: bool
    rounds: int
    applied: List[str] = field(default_factory=list)
    #: The final explain result (for inspection when not ``ok``).
    last: Optional[ExplainResult] = None


def fix_all(source: str, **explain_kwargs) -> FixAllResult:
    """Repeatedly apply the top-ranked suggestion until the program
    type-checks (or no progress can be made, or :data:`MAX_ROUNDS` fixes
    were applied).

    This models the fix-one-error-and-recompile loop; triage makes it
    converge on multi-error programs because each round repairs one
    isolated error.
    """
    current = source
    applied: List[str] = []
    last: Optional[ExplainResult] = None
    for round_index in range(MAX_ROUNDS):
        last = explain(current, **explain_kwargs)
        if last.ok:
            return FixAllResult(current, ok=True, rounds=round_index, applied=applied, last=last)
        progressed = False
        # Take the best *appliable* suggestion that makes textual progress
        # (adaptations are advice, not patches — skip them here).
        for suggestion in last.suggestions:
            if not is_appliable(suggestion):
                continue
            fix = apply_suggestion(current, suggestion)
            if fix.source != current:
                applied.append(fix.description)
                current = fix.source
                progressed = True
                break
        if not progressed:
            break  # no textual progress; avoid a livelock
    final = explain(current, **explain_kwargs)
    return FixAllResult(
        current, ok=final.ok, rounds=len(applied), applied=applied, last=final
    )
