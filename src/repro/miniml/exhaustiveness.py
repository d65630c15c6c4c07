"""Pattern-match exhaustiveness and redundancy warnings for MiniML.

OCaml's compiler emits warning 8 ("this pattern-matching is not exhaustive")
and warning 11 ("this match case is unused"); a Caml substrate is not
complete without them — and they matter to the reproduction because several
constructive changes (``drop-case``, triage's wildcarding of arms) interact
with match arms, and the corpus seeds should be warning-clean programs.

The analysis is the classic *usefulness* algorithm over pattern matrices
(Maranget, "Warnings for pattern matching", JFP 2007 — pleasingly, the same
year as the paper):

* a match is **non-exhaustive** iff a wildcard row is useful after all its
  arms;
* arm *i* is **redundant** iff its row is not useful after arms ``0..i-1``.

Constructor completeness uses the same tables the type-checker builds
(variant siblings, ``true``/``false``, ``()``, list ``[]``/``::``); integer
and string literals form infinite signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.tree import Node, Span, walk

from .ast_nodes import (
    EFunction,
    EMatch,
    ETry,
    MatchCase,
    Pattern,
    PConst,
    PCons,
    PConstructor,
    PList,
    PTuple,
    PVar,
    PWild,
    Program,
)
from .stdlib import TypeEnv, default_env

# ---------------------------------------------------------------------------
# Head constructors
# ---------------------------------------------------------------------------
#
# Each pattern head is abstracted as (tag, arity).  Tags:
#   ("tuple", n)        — the sole constructor of n-tuples
#   ("nil", 0)/("cons", 2) — lists
#   ("ctor", name)      — variant constructor
#   ("const", value)    — a literal (int/string/bool/unit)


@dataclass(frozen=True)
class Head:
    kind: str
    name: object
    arity: int


def _head_of(p: Pattern) -> Optional[Head]:
    """Head constructor of a pattern; None for wildcards/variables."""
    if isinstance(p, (PWild, PVar)):
        return None
    if isinstance(p, PTuple):
        return Head("tuple", len(p.items), len(p.items))
    if isinstance(p, PList):
        if not p.items:
            return Head("nil", None, 0)
        # [p1; p2] ==  p1 :: [p2]  — normalize during specialization.
        return Head("cons", None, 2)
    if isinstance(p, PCons):
        return Head("cons", None, 2)
    if isinstance(p, PConstructor):
        return Head("ctor", p.name, 0 if p.arg is None else 1)
    if isinstance(p, PConst):
        return Head("const", (p.kind, p.value), 0)
    raise TypeError(f"unknown pattern {type(p).__name__}")


def _sub_patterns(p: Pattern, head: Head) -> List[Pattern]:
    """Arguments of ``p`` under ``head`` (for specialized rows)."""
    if isinstance(p, PTuple):
        return list(p.items)
    if isinstance(p, PCons):
        return [p.head, p.tail]
    if isinstance(p, PList) and p.items:
        return [p.items[0], PList(p.items[1:])]
    if isinstance(p, PConstructor) and p.arg is not None:
        return [p.arg]
    return []


def _wildcards(n: int) -> List[Pattern]:
    return [PWild() for _ in range(n)]


class _Usefulness:
    def __init__(self, env: TypeEnv):
        self.env = env

    # -- signature completeness ------------------------------------------

    def _complete_signature(self, heads: Sequence[Head]) -> Optional[List[Head]]:
        """If the observed heads can form a complete signature, return the
        full signature; None when the signature is open (ints, strings)."""
        kinds = {h.kind for h in heads}
        if not heads:
            return None
        if kinds == {"tuple"}:
            return [heads[0]]  # tuples have a single constructor
        if kinds <= {"nil", "cons"}:
            return [Head("nil", None, 0), Head("cons", None, 2)]
        if kinds == {"ctor"}:
            info = self.env.lookup_ctor(str(heads[0].name))
            if info is None:
                return None
            type_name = getattr(info.result, "name", None)
            siblings = [
                Head("ctor", name, 0 if sibling.arg is None else 1)
                for name, sibling in self.env.constructors.items()
                if getattr(sibling.result, "name", None) == type_name
            ]
            return siblings or None
        if kinds == {"const"}:
            sample_kind = heads[0].name[0]  # type: ignore[index]
            if sample_kind == "bool":
                return [Head("const", ("bool", True), 0), Head("const", ("bool", False), 0)]
            if sample_kind == "unit":
                return [Head("const", ("unit", None), 0)]
            return None  # int/string/float literals: open signature
        return None  # mixed garbage (ill-typed match): treat as open

    # -- matrix operations -------------------------------------------------

    def _specialize(self, matrix: List[List[Pattern]], head: Head) -> List[List[Pattern]]:
        out = []
        for row in matrix:
            first, rest = row[0], row[1:]
            row_head = _head_of(first)
            if row_head is None:
                out.append(_wildcards(head.arity) + rest)
            elif row_head == head:
                out.append(_sub_patterns(first, head) + rest)
        return out

    def _default(self, matrix: List[List[Pattern]]) -> List[List[Pattern]]:
        return [row[1:] for row in matrix if _head_of(row[0]) is None]

    def useful(self, matrix: List[List[Pattern]], vector: List[Pattern]) -> bool:
        """Is there a value matching ``vector`` but no row of ``matrix``?"""
        if not vector:
            return not matrix
        head = _head_of(vector[0])
        if head is not None:
            return self.useful(
                self._specialize(matrix, head),
                _sub_patterns(vector[0], head) + vector[1:],
            )
        # Wildcard at the front: split on the observed signature.
        observed = [h for h in (_head_of(row[0]) for row in matrix) if h is not None]
        signature = self._complete_signature(observed)
        if signature is not None and observed:
            seen = {h for h in observed}
            for candidate in signature:
                sub = self._specialize(matrix, candidate)
                if self.useful(sub, _wildcards(candidate.arity) + vector[1:]):
                    return True
            return False
        return self.useful(self._default(matrix), vector[1:])


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class MatchWarning:
    """One warning: ``kind`` is ``non-exhaustive`` or ``unused-case``."""

    kind: str
    node: Node
    message: str

    @property
    def span(self) -> Optional[Span]:
        return self.node.span

    def render(self) -> str:
        location = ""
        if self.span is not None:
            location = f"Line {self.span.start_line}: "
        return f"{location}Warning: {self.message}"


def _declare_types(program: Program, env: TypeEnv) -> TypeEnv:
    """Register the program's variant/exception constructors (arity only —
    the analysis never needs full types)."""
    from .ast_nodes import DException, DType
    from .stdlib import CtorInfo
    from .types import EXN, TCon

    env = env.fork()
    for decl in program.decls:
        if isinstance(decl, DType) and decl.variants:
            result = TCon(decl.name, [])
            for v in decl.variants:
                env.constructors[v.name] = CtorInfo(
                    v.name, [], object() if v.arg is not None else None, result  # type: ignore[arg-type]
                )
        elif isinstance(decl, DException):
            env.constructors[decl.name] = CtorInfo(
                decl.name, [], object() if decl.arg is not None else None, EXN  # type: ignore[arg-type]
            )
    return env


def check_cases(cases: List[MatchCase], env: TypeEnv, node: Node,
                exhaustive_required: bool = True) -> List[MatchWarning]:
    """Warnings for one arm list."""
    checker = _Usefulness(env)
    warnings: List[MatchWarning] = []
    rows: List[List[Pattern]] = []
    for case in cases:
        if not checker.useful(rows, [case.pattern]):
            warnings.append(
                MatchWarning("unused-case", case, "this match case is unused")
            )
        rows.append([case.pattern])
    if exhaustive_required and checker.useful(rows, [PWild()]):
        warnings.append(
            MatchWarning("non-exhaustive", node, "this pattern-matching is not exhaustive")
        )
    return warnings


def match_warnings(program: Program) -> List[MatchWarning]:
    """All exhaustiveness/redundancy warnings in a program.

    ``try`` handlers are exempt from the exhaustiveness requirement (an
    unhandled exception re-raises; OCaml does not warn there either), but
    their arms can still be flagged unused.
    """
    env = _declare_types(program, default_env())
    warnings: List[MatchWarning] = []
    for _, node in walk(program):
        if isinstance(node, (EMatch, EFunction)):
            warnings.extend(check_cases(list(node.cases), env, node))
        elif isinstance(node, ETry):
            warnings.extend(
                check_cases(list(node.cases), env, node, exhaustive_required=False)
            )
    return warnings


def match_warnings_source(source: str) -> List[MatchWarning]:
    from .parser import parse_program

    return match_warnings(parse_program(source))
