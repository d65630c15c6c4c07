"""Per-declaration def/use extraction for dependency-pruned re-checking.

SEMINAL's search tests thousands of near-copies of one program, and full
Hindley-Milner inference re-checks every declaration of every copy.  The
declaration dependency engine (:mod:`repro.core.depgraph`) needs to know,
for each top-level declaration, *which names it provides* and *which names
it consumes* — so that a candidate mutating declaration ``i`` only
re-infers ``i`` and the declarations that can observe the change.

Names live in four independent namespaces, mirroring how
:class:`repro.miniml.stdlib.TypeEnv` resolves them:

``value``
    let-bound values (``env.values`` chain lookups).
``ctor``
    variant constructors and exception constructors (``env.constructors``).
``field``
    record field labels (``env.fields``).
``type``
    type constructor names and their arities (``env.type_arities``).

A *use* or *def* is a ``(namespace, name)`` pair, so the consumer can run
one dirty-name propagation over all four namespaces at once.  Extraction is
shadowing-aware: a name bound locally (a ``fun`` parameter, a ``let`` in an
expression, a match-case pattern) is not a use of the global binding, and
``let rec`` removes the recursive names from their own defining
expressions' uses.  Binary/unary operators are deliberately *not* uses:
their schemes come from :data:`repro.miniml.stdlib.OPERATOR_SCHEMES`, which
no declaration can shadow, so they can never carry a dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Set, Tuple

from . import ast_nodes as A

#: Namespace tags for the (namespace, name) pairs below.
NS_VALUE = "value"
NS_CTOR = "ctor"
NS_FIELD = "field"
NS_TYPE = "type"

Name = Tuple[str, str]


@dataclass(frozen=True)
class DeclUseDef:
    """What one top-level declaration consumes and provides.

    ``uses`` are resolved against the environment the declaration is
    checked in; ``defs`` are the bindings it introduces for every later
    declaration.  Both are sets of ``(namespace, name)`` pairs.
    """

    uses: FrozenSet[Name] = field(default_factory=frozenset)
    defs: FrozenSet[Name] = field(default_factory=frozenset)


def pattern_names(pattern: A.Pattern) -> List[str]:
    """Value names bound by a pattern, in binding order."""
    names: List[str] = []
    _collect_pattern_names(pattern, names)
    return names


def _collect_pattern_names(pattern: A.Pattern, out: List[str]) -> None:
    if isinstance(pattern, A.PVar):
        out.append(pattern.name)
    elif isinstance(pattern, A.PTuple):
        for item in pattern.items:
            _collect_pattern_names(item, out)
    elif isinstance(pattern, A.PCons):
        _collect_pattern_names(pattern.head, out)
        _collect_pattern_names(pattern.tail, out)
    elif isinstance(pattern, A.PList):
        for item in pattern.items:
            _collect_pattern_names(item, out)
    elif isinstance(pattern, A.PConstructor):
        if pattern.arg is not None:
            _collect_pattern_names(pattern.arg, out)
    # PWild / PConst bind nothing.


def _pattern_uses(pattern: A.Pattern, uses: Set[Name]) -> None:
    """Constructor uses inside a pattern (``Some x`` consumes ctor Some)."""
    if isinstance(pattern, A.PConstructor):
        uses.add((NS_CTOR, pattern.name))
        if pattern.arg is not None:
            _pattern_uses(pattern.arg, uses)
    elif isinstance(pattern, A.PTuple):
        for item in pattern.items:
            _pattern_uses(item, uses)
    elif isinstance(pattern, A.PCons):
        _pattern_uses(pattern.head, uses)
        _pattern_uses(pattern.tail, uses)
    elif isinstance(pattern, A.PList):
        for item in pattern.items:
            _pattern_uses(item, uses)


def _type_expr_uses(texpr: A.TypeExpr, uses: Set[Name]) -> None:
    """Type-constructor names referenced by a type expression."""
    if isinstance(texpr, A.TEName):
        uses.add((NS_TYPE, texpr.name))
        for arg in texpr.args:
            _type_expr_uses(arg, uses)
    elif isinstance(texpr, A.TEArrow):
        _type_expr_uses(texpr.param, uses)
        _type_expr_uses(texpr.result, uses)
    elif isinstance(texpr, A.TETuple):
        for item in texpr.items:
            _type_expr_uses(item, uses)
    # TEVar is a type *variable* — never a dependency on a declaration.


def _expr_uses(expr: A.Expr, bound: FrozenSet[str], uses: Set[Name]) -> None:
    """Free value/ctor/field/type references of ``expr``.

    ``bound`` is the set of locally bound value names in scope; a
    reference to a bound name is not a use of the top-level binding.
    """
    if isinstance(expr, A.EVar):
        if expr.name not in bound:
            uses.add((NS_VALUE, expr.name))
    elif isinstance(expr, A.EConstructor):
        uses.add((NS_CTOR, expr.name))
        if expr.arg is not None:
            _expr_uses(expr.arg, bound, uses)
    elif isinstance(expr, A.EConst):
        pass
    elif isinstance(expr, A.ETuple):
        for item in expr.items:
            _expr_uses(item, bound, uses)
    elif isinstance(expr, A.EList):
        for item in expr.items:
            _expr_uses(item, bound, uses)
    elif isinstance(expr, A.ECons):
        _expr_uses(expr.head, bound, uses)
        _expr_uses(expr.tail, bound, uses)
    elif isinstance(expr, A.EApp):
        _expr_uses(expr.func, bound, uses)
        for arg in expr.args:
            _expr_uses(arg, bound, uses)
    elif isinstance(expr, A.EFun):
        param_names: List[str] = []
        for param in expr.params:
            _collect_pattern_names(param, param_names)
            _pattern_uses(param, uses)
        _expr_uses(expr.body, bound.union(param_names), uses)
    elif isinstance(expr, A.EFunction):
        _case_uses(expr.cases, bound, uses)
    elif isinstance(expr, A.ELet):
        let_names: List[str] = []
        for binding in expr.bindings:
            let_names.extend(pattern_names(binding.pattern))
        body_bound = bound.union(let_names)
        expr_bound = body_bound if expr.rec else bound
        for binding in expr.bindings:
            _pattern_uses(binding.pattern, uses)
            _expr_uses(binding.expr, expr_bound, uses)
        _expr_uses(expr.body, body_bound, uses)
    elif isinstance(expr, A.EIf):
        _expr_uses(expr.cond, bound, uses)
        _expr_uses(expr.then_branch, bound, uses)
        if expr.else_branch is not None:
            _expr_uses(expr.else_branch, bound, uses)
    elif isinstance(expr, A.EMatch):
        _expr_uses(expr.scrutinee, bound, uses)
        _case_uses(expr.cases, bound, uses)
    elif isinstance(expr, A.EBinop):
        # Operator schemes live in OPERATOR_SCHEMES, not the env chain —
        # no declaration can shadow them, so the op itself is not a use.
        _expr_uses(expr.left, bound, uses)
        _expr_uses(expr.right, bound, uses)
    elif isinstance(expr, A.EUnop):
        _expr_uses(expr.operand, bound, uses)
    elif isinstance(expr, A.ESeq):
        _expr_uses(expr.first, bound, uses)
        _expr_uses(expr.second, bound, uses)
    elif isinstance(expr, A.ERaise):
        _expr_uses(expr.exn, bound, uses)
    elif isinstance(expr, A.ETry):
        _expr_uses(expr.body, bound, uses)
        _case_uses(expr.cases, bound, uses)
    elif isinstance(expr, A.EAnnot):
        _expr_uses(expr.expr, bound, uses)
        _type_expr_uses(expr.type_expr, uses)
    elif isinstance(expr, A.ERecord):
        for f in expr.fields:
            uses.add((NS_FIELD, f.name))
            _expr_uses(f.expr, bound, uses)
    elif isinstance(expr, A.EFieldGet):
        uses.add((NS_FIELD, expr.field_name))
        _expr_uses(expr.record, bound, uses)
    elif isinstance(expr, A.EFieldSet):
        uses.add((NS_FIELD, expr.field_name))
        _expr_uses(expr.record, bound, uses)
        _expr_uses(expr.value, bound, uses)


def _case_uses(
    cases: Iterable[A.MatchCase], bound: FrozenSet[str], uses: Set[Name]
) -> None:
    for case in cases:
        _pattern_uses(case.pattern, uses)
        inner = bound.union(pattern_names(case.pattern))
        _expr_uses(case.body, inner, uses)


def decl_use_def(decl: A.Decl) -> DeclUseDef:
    """The def/use summary of one top-level declaration."""
    uses: Set[Name] = set()
    defs: Set[Name] = set()
    if isinstance(decl, A.DLet):
        names: List[str] = []
        for binding in decl.bindings:
            names.extend(pattern_names(binding.pattern))
        expr_bound = frozenset(names) if decl.rec else frozenset()
        for binding in decl.bindings:
            _pattern_uses(binding.pattern, uses)
            _expr_uses(binding.expr, expr_bound, uses)
        defs.update((NS_VALUE, name) for name in names)
    elif isinstance(decl, A.DType):
        defs.add((NS_TYPE, decl.name))
        own = {decl.name}
        for variant in decl.variants:
            defs.add((NS_CTOR, variant.name))
            if variant.arg is not None:
                _type_expr_uses(variant.arg, uses)
        for fdecl in decl.record_fields:
            defs.add((NS_FIELD, fdecl.name))
            _type_expr_uses(fdecl.type_expr, uses)
        # Recursive references to the declared type are not dependencies.
        uses = {u for u in uses if not (u[0] == NS_TYPE and u[1] in own)}
    elif isinstance(decl, A.DException):
        defs.add((NS_CTOR, decl.name))
        if decl.arg is not None:
            _type_expr_uses(decl.arg, uses)
    elif isinstance(decl, A.DExpr):
        _expr_uses(decl.expr, frozenset(), uses)
    return DeclUseDef(uses=frozenset(uses), defs=frozenset(defs))
