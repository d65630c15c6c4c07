"""The enumerator: per-node-kind catalogs of candidate changes.

Section 2.2 ("Modular Implementation") splits the changer into a *searcher*
(which owns the worklist and calls the oracle) and an *enumerator* — "a giant
case expression that matches on the sort of node it is given and produces a
list of modifications".  Adding a new constructive change is a few lines in
one table here and never touches the search procedure.

The catalog reproduces every change in the paper's Figure 3:

=====================================  =======================================
Paper                                  Rule tag
=====================================  =======================================
``f a1 a2 a3 -> f a1 a3``              ``drop-arg``
``f a1 a2 a3 -> f a1 [[...]] a2 a3``   ``insert-arg``
``f a1 a2 a3 -> f a3 a2 a1``           ``permute-args`` (probe-gated)
``f a1 a2 a3 -> f (a1 a2 a3)``         ``nest-call``
``f a1 a2 a3 -> f (a1,a2,a3)``         ``tuple-args``
``f (a1, a2, a3) -> f a1 a2 a3``       ``untuple-args``
``e1.fld := e2 -> e1.fld <- e2``       ``refupdate-to-fieldset``
``[e1, e2, e3] -> [e1; e2; e3]``       ``list-of-tuple-to-list``
``let f x = e1 -> let rec f x = e1``   ``make-rec``
=====================================  =======================================

plus curry/tuple conversions on functions (the Fig. 2 fix), operator
substitutions, pattern changes, match-arm surgery, and the nested-match
reparenthesizing change the paper singles out in Figure 7 as its one
performance bug.

Changes gated on probes use lazy thunks so neither syntax nor oracle calls
are spent unless the probe outcome warrants them.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence

from repro.miniml.ast_nodes import (
    Binding,
    DLet,
    EAnnot,
    ETry,
    EApp,
    EBinop,
    ECons,
    EConstructor,
    EFieldGet,
    EFieldSet,
    EFun,
    EFunction,
    EIf,
    EList,
    ELet,
    EMatch,
    ERaise,
    ETuple,
    EVar,
    Expr,
    MatchCase,
    Pattern,
    PCons,
    PList,
    PTuple,
    PVar,
    PWild,
)
from repro.miniml.pretty import ADAPT_NAME, pretty_expr, pretty_pattern
from repro.tree import Node, Path, mark_synthetic

from .changes import (
    KIND_CONSTRUCTIVE,
    Change,
    ChangeNode,
    flat,
)

# ---------------------------------------------------------------------------
# Wildcard and adaptation builders (Sections 2.1 and 2.3)
# ---------------------------------------------------------------------------


def wildcard_expr() -> Expr:
    """The expression wildcard: ``raise Foo``, legal at any type.

    The ``synthetic`` flag only affects pretty-printing (``[[...]]``); the
    type-checker sees a perfectly ordinary raise expression.
    """
    exn = EConstructor("Foo")
    exn.synthetic = True
    return mark_synthetic(ERaise(exn))


def wildcard_pattern() -> Pattern:
    """The pattern wildcard ``_``."""
    return mark_synthetic(PWild())


def adapt_expr(e: Expr) -> Expr:
    """Wrap ``e`` as ``adapt e`` where ``adapt : 'a -> 'b`` (Section 2.3).

    Type-checks exactly when ``e`` is well-typed ignoring the type its
    context demands.
    """
    fn = EVar(ADAPT_NAME)
    fn.synthetic = True
    wrapped = EApp(fn, [e])
    wrapped.synthetic = False  # prints as its argument, not as [[...]]
    return wrapped


def wildcard_for(node: Node) -> Optional[Node]:
    """The removal replacement for a node, or None if not removable."""
    if isinstance(node, Expr):
        return wildcard_expr()
    if isinstance(node, Pattern):
        return wildcard_pattern()
    return None


def is_searchable(node: Node) -> bool:
    """Nodes the searcher recurses on (expressions and patterns)."""
    return isinstance(node, (Expr, Pattern))


# ---------------------------------------------------------------------------
# Change-construction helpers
# ---------------------------------------------------------------------------


def constructive_change(
    path: Path,
    original: Node,
    replacement: Node,
    rule: str,
    description: str,
    is_probe: bool = False,
) -> Change:
    """Public constructor for custom constructive changes (pass rules via
    ``explain(custom_rules=...)`` or :attr:`SearchConfig.custom_rules`)."""
    return _change(path, original, replacement, rule, description, is_probe)


def _change(path: Path, original: Node, replacement: Node, rule: str, description: str,
            is_probe: bool = False) -> Change:
    return Change(
        path=path,
        original=original,
        replacement=replacement,
        kind=KIND_CONSTRUCTIVE,
        description=description,
        is_probe=is_probe,
        rule=rule,
    )


_OPERATOR_ALTERNATIVES = {
    "=": ["==", ":="],
    "==": ["="],
    "!=": ["<>"],
    "<>": ["!="],
    ":=": ["="],
    "+": ["+.", "^", "@"],
    "-": ["-."],
    "*": ["*."],
    "/": ["/."],
    "+.": ["+"],
    "-.": ["-"],
    "*.": ["*"],
    "/.": ["/"],
    "^": ["+", "@"],
    "@": ["^", "+"],
}

_PRINT_FAMILY = ("print_string", "print_int", "print_endline")

#: Stdlib modules whose functions students call unqualified by mistake
#: (``map`` for ``List.map``).  Pure language knowledge, no type knowledge.
_QUALIFYING_MODULES = ("List", "String")


class MiniMLEnumerator:
    """Constructive-change catalog for MiniML.

    ``disabled_rules`` supports the ablation benchmarks: e.g. disabling
    ``reparen-match`` reproduces the paper's Figure 7 middle curve.
    """

    def __init__(
        self,
        disabled_rules: Sequence[str] = (),
        eager: bool = False,
        custom_rules: Sequence[Callable[[Node, Path], List[ChangeNode]]] = (),
        metrics=None,
    ):
        from repro.obs import NULL_METRICS

        #: Telemetry sink: ``enum.generated.<rule>`` counts every candidate
        #: this catalog hands to the searcher (lazily expanded follow-ups
        #: are counted by the searcher as it unfolds them).
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.disabled_rules = frozenset(disabled_rules)
        #: Eager mode flattens every probe-gated collection up front —
        #: the "large flat list of changes" strawman of Section 2.2, kept
        #: for the A1 ablation benchmark (oracle-call counts).
        self.eager = eager
        #: User-registered change generators — the paper's Section 6 "open
        #: framework where programmers could describe new ... constructive
        #: changes", safe because a bad change can never threaten compiler
        #: correctness (the oracle rejects anything that does not check).
        self.custom_rules: List[Callable[[Node, Path], List[ChangeNode]]] = list(custom_rules)

    # -- public API ------------------------------------------------------

    def changes(self, node: Node, path: Path) -> List[ChangeNode]:
        """All candidate changes for ``node`` (lazy followups included)."""
        out = self._changes(node, path)
        if self.eager:
            out = self._flatten(out)
        if self.metrics.enabled:
            for cn in out:
                self.metrics.incr(f"enum.generated.{cn.change.rule or 'unknown'}")
        return out

    def _flatten(self, nodes: List[ChangeNode]) -> List[ChangeNode]:
        flat_list: List[ChangeNode] = []
        for cn in nodes:
            if cn.change.is_probe:
                if cn.on_success is not None:
                    flat_list.extend(self._flatten(cn.on_success()))
            else:
                flat_list.append(ChangeNode(cn.change))
                if cn.on_success is not None:
                    flat_list.extend(self._flatten(cn.on_success()))
                if cn.on_failure is not None:
                    flat_list.extend(self._flatten(cn.on_failure()))
        return flat_list

    def _changes(self, node: Node, path: Path) -> List[ChangeNode]:
        out: List[ChangeNode] = []
        if isinstance(node, EApp):
            out.extend(self._app_changes(node, path))
        if isinstance(node, EFun):
            out.extend(self._fun_changes(node, path))
        if isinstance(node, EBinop):
            out.extend(self._binop_changes(node, path))
        if isinstance(node, EFieldSet):
            out.extend(self._fieldset_changes(node, path))
        if isinstance(node, EList):
            out.extend(self._list_changes(node, path))
        if isinstance(node, ETuple):
            out.extend(self._tuple_changes(node, path))
        if isinstance(node, ECons):
            out.extend(self._cons_changes(node, path))
        if isinstance(node, EIf):
            out.extend(self._if_changes(node, path))
        if isinstance(node, (EMatch, EFunction)):
            out.extend(self._match_changes(node, path))
        if isinstance(node, ETry):
            out.extend(self._try_changes(node, path))
        if isinstance(node, EAnnot):
            out.extend(self._annot_changes(node, path))
        if isinstance(node, ELet):
            out.extend(self._let_changes(node, path))
        if isinstance(node, DLet):
            out.extend(self._dlet_changes(node, path))
        if isinstance(node, EVar):
            out.extend(self._var_changes(node, path))
        if isinstance(node, PTuple):
            out.extend(self._ptuple_changes(node, path))
        if isinstance(node, PList):
            out.extend(self._plist_changes(node, path))
        if isinstance(node, PCons):
            out.extend(self._pcons_changes(node, path))
        for rule in self.custom_rules:
            out.extend(rule(node, path))
        return [cn for cn in out if cn.change.rule not in self.disabled_rules]

    # -- function applications -------------------------------------------

    def _app_changes(self, node: EApp, path: Path) -> List[ChangeNode]:
        out: List[ChangeNode] = []
        n = len(node.args)
        # Remove an argument.
        for i in range(n):
            rest = node.args[:i] + node.args[i + 1 :]
            replacement: Expr = EApp(node.func, rest) if rest else node.func
            out.extend(
                flat([_change(path, node, replacement, "drop-arg",
                              f"remove argument {i + 1} ({pretty_expr(node.args[i])})")])
            )
        # Add a wildcard argument at each position.
        for i in range(n + 1):
            args = list(node.args)
            args.insert(i, wildcard_expr())
            out.extend(
                flat([_change(path, node, EApp(node.func, args), "insert-arg",
                              f"add an argument in position {i + 1}")])
            )
        # Swap two arguments directly (cheap); permutations probe-gated.
        if n == 2:
            swapped = EApp(node.func, [node.args[1], node.args[0]])
            out.extend(flat([_change(path, node, swapped, "permute-args",
                                     "swap the two arguments")]))
        elif 3 <= n <= 4:
            out.append(self._permutation_probe(node, path))
        # Reassociate into a nested call: f a1 a2 a3 -> f (a1 a2 a3).
        if n >= 2:
            nested = EApp(node.func, [EApp(node.args[0], node.args[1:])])
            out.extend(flat([_change(path, node, nested, "nest-call",
                                     "apply the first argument to the rest")]))
            tupled = EApp(node.func, [ETuple(list(node.args))])
            out.extend(flat([_change(path, node, tupled, "tuple-args",
                                     "pass the arguments as one tuple")]))
        # print_string/print_int/print_endline confusion (ad hoc, common).
        if isinstance(node.func, EVar) and node.func.name in _PRINT_FAMILY:
            for alt in _PRINT_FAMILY:
                if alt != node.func.name:
                    out.extend(flat([_change(path, node, EApp(EVar(alt), list(node.args)),
                                             "swap-print-fn", f"use {alt} instead")]))
        # f (a1, a2) -> f a1 a2.
        if n == 1 and isinstance(node.args[0], ETuple):
            curried = EApp(node.func, list(node.args[0].items))
            out.extend(flat([_change(path, node, curried, "untuple-args",
                                     "pass the tuple components as separate arguments")]))
        return out

    def _permutation_probe(self, node: EApp, path: Path) -> ChangeNode:
        """Try all-wildcard arguments first; permute only if that fits.

        This is the paper's flagship lazy collection: permutations are
        exponential, so we pay for them only when some same-arity call
        could type-check here at all.
        """
        n = len(node.args)
        probe = _change(
            path, node, EApp(node.func, [wildcard_expr() for _ in range(n)]),
            "permute-args", f"probe: any {n}-argument call", is_probe=True,
        )

        def followups() -> List[ChangeNode]:
            changes = []
            for perm in itertools.permutations(range(n)):
                if perm == tuple(range(n)):
                    continue
                permuted = EApp(node.func, [node.args[i] for i in perm])
                changes.append(_change(path, node, permuted, "permute-args",
                                       "reorder the arguments"))
            return flat(changes)

        return ChangeNode(probe, on_success=followups)

    # -- functions ---------------------------------------------------------

    def _fun_changes(self, node: EFun, path: Path) -> List[ChangeNode]:
        out: List[Change] = []
        # fun (x, y) -> e   =>   fun x y -> e       (the Fig. 2 fix)
        if len(node.params) == 1 and isinstance(node.params[0], PTuple):
            out.append(_change(path, node, EFun(list(node.params[0].items), node.body),
                               "curry-params", "take curried arguments instead of a tuple"))
        # fun x y -> e      =>   fun (x, y) -> e
        if len(node.params) >= 2:
            out.append(_change(path, node, EFun([PTuple(list(node.params))], node.body),
                               "tuple-params", "take one tuple argument instead of curried ones"))
        # Add a parameter (front and back).
        out.append(_change(path, node, EFun(list(node.params) + [wildcard_pattern()], node.body),
                           "add-param", "accept an extra argument"))
        out.append(_change(path, node, EFun([wildcard_pattern()] + list(node.params), node.body),
                           "add-param", "accept an extra leading argument"))
        # Drop a parameter.
        if len(node.params) >= 2:
            for i in range(len(node.params)):
                params = node.params[:i] + node.params[i + 1 :]
                out.append(_change(path, node, EFun(params, node.body), "drop-param",
                                   f"remove parameter {pretty_pattern(node.params[i])}"))
        return flat(out)

    # -- operators -----------------------------------------------------------

    def _binop_changes(self, node: EBinop, path: Path) -> List[ChangeNode]:
        out: List[Change] = []
        for alt in _OPERATOR_ALTERNATIVES.get(node.op, []):
            out.append(_change(path, node, EBinop(alt, node.left, node.right),
                               "swap-operator", f"use {alt} instead of {node.op}"))
        out.append(_change(path, node, EBinop(node.op, node.right, node.left),
                           "swap-operands", "swap the operands"))
        # "1 + x" inside string concatenation (or vice versa): try inserting
        # the standard conversion.  Pure language knowledge — "special cases
        # are encouraged rather than discouraged" (Section 2.2).
        if node.op == "^":
            for attr in ("left", "right"):
                side = getattr(node, attr)
                for conv in ("string_of_int", "string_of_float", "string_of_bool"):
                    wrapped = EApp(EVar(conv), [side])
                    replacement = (
                        EBinop(node.op, wrapped, node.right)
                        if attr == "left"
                        else EBinop(node.op, node.left, wrapped)
                    )
                    out.append(_change(path, node, replacement, "wrap-conversion",
                                       f"convert the {attr} operand with {conv}"))
        if node.op in ("+", "-", "*", "/"):
            for attr in ("left", "right"):
                side = getattr(node, attr)
                wrapped = EApp(EVar("int_of_string"), [side])
                replacement = (
                    EBinop(node.op, wrapped, node.right)
                    if attr == "left"
                    else EBinop(node.op, node.left, wrapped)
                )
                out.append(_change(path, node, replacement, "wrap-conversion",
                                   f"parse the {attr} operand with int_of_string"))
        # e1.fld := e2  =>  e1.fld <- e2    (Fig. 3: ref-update vs field-update)
        if node.op in (":=", "=") and isinstance(node.left, EFieldGet):
            replacement = EFieldSet(node.left.record, node.left.field_name, node.right)
            out.append(_change(path, node, replacement, "refupdate-to-fieldset",
                               f"update the record field with <- instead of {node.op}"))
        return flat(out)

    def _fieldset_changes(self, node: EFieldSet, path: Path) -> List[ChangeNode]:
        # e1.fld <- e2  =>  e1.fld := e2   (the field held a ref all along)
        getter = EFieldGet(node.record, node.field_name)
        return flat([
            _change(path, node, EBinop(":=", getter, node.value), "fieldset-to-refupdate",
                    "assign through a ref field with := instead of <-"),
        ])

    # -- data literals ---------------------------------------------------

    def _list_changes(self, node: EList, path: Path) -> List[ChangeNode]:
        out: List[Change] = []
        # [e1, e2, e3] (a 1-element list of a tuple) => [e1; e2; e3]
        if len(node.items) == 1 and isinstance(node.items[0], ETuple):
            out.append(_change(path, node, EList(list(node.items[0].items)),
                               "list-of-tuple-to-list",
                               "separate the list elements with ';' instead of ','"))
        if len(node.items) >= 2:
            out.append(_change(path, node, ETuple(list(node.items)), "list-to-tuple",
                               "use a tuple instead of a list"))
        return flat(out)

    def _tuple_changes(self, node: ETuple, path: Path) -> List[ChangeNode]:
        out: List[ChangeNode] = []
        items = node.items
        out.extend(flat([_change(path, node, EList(list(items)), "tuple-to-list",
                                 "use a list instead of a tuple")]))
        # Arity fixes.
        for i in range(len(items)):
            rest = items[:i] + items[i + 1 :]
            replacement: Expr = ETuple(rest) if len(rest) >= 2 else rest[0]
            out.extend(flat([_change(path, node, replacement, "drop-tuple-item",
                                     f"drop component {i + 1}")]))
        widened = ETuple(list(items) + [wildcard_expr()])
        out.extend(flat([_change(path, node, widened, "add-tuple-item",
                                 "add a component")]))
        if len(items) == 2:
            out.extend(flat([_change(path, node, ETuple([items[1], items[0]]),
                                     "permute-tuple", "swap the components")]))
        elif len(items) in (3, 4):
            out.append(self._tuple_permutation_probe(node, path))
        return out

    def _tuple_permutation_probe(self, node: ETuple, path: Path) -> ChangeNode:
        n = len(node.items)
        probe = _change(path, node, ETuple([wildcard_expr() for _ in range(n)]),
                        "permute-tuple", f"probe: any {n}-tuple", is_probe=True)

        def followups() -> List[ChangeNode]:
            changes = []
            for perm in itertools.permutations(range(n)):
                if perm == tuple(range(n)):
                    continue
                changes.append(_change(path, node, ETuple([node.items[i] for i in perm]),
                                       "permute-tuple", "reorder the components"))
            return flat(changes)

        return ChangeNode(probe, on_success=followups)

    def _cons_changes(self, node: ECons, path: Path) -> List[ChangeNode]:
        return flat([
            _change(path, node, ECons(node.tail, node.head), "swap-cons",
                    "swap the sides of ::"),
            _change(path, node, EBinop("@", node.head, node.tail), "cons-to-append",
                    "append with @ instead of consing"),
        ])

    # -- control -----------------------------------------------------------

    def _if_changes(self, node: EIf, path: Path) -> List[ChangeNode]:
        out: List[Change] = []
        if node.else_branch is None:
            out.append(_change(path, node, EIf(node.cond, node.then_branch, wildcard_expr()),
                               "add-else", "add an else branch"))
        else:
            out.append(_change(path, node, EIf(node.cond, node.then_branch, None),
                               "drop-else", "drop the else branch"))
        return flat(out)

    def _match_changes(self, node, path: Path) -> List[ChangeNode]:
        out: List[Change] = []
        cases = node.cases

        def rebuild(new_cases):
            if isinstance(node, EMatch):
                return EMatch(node.scrutinee, new_cases)
            return EFunction(new_cases)

        # Drop one arm.
        if len(cases) >= 2:
            for i in range(len(cases)):
                out.append(_change(path, node, rebuild(cases[:i] + cases[i + 1 :]),
                                   "drop-case",
                                   f"remove the {pretty_pattern(cases[i].pattern)} case"))
        # The converse of try-to-match: the arms were meant as exception
        # handlers (only sensible when the node has a scrutinee to protect).
        if isinstance(node, EMatch):
            out.append(_change(path, node, ETry(node.scrutinee, list(cases)),
                               "match-to-try",
                               "handle exceptions with try instead of matching"))
        # Reparenthesize nested matches (the paper's Fig. 7 performance bug):
        # trailing arms that lexically belong to an inner match (or vice
        # versa) due to the dangling-| ambiguity.
        for i, case in enumerate(cases):
            inner = case.body
            if isinstance(inner, (EMatch, EFunction)) and len(inner.cases) >= 2:
                if i < len(cases) - 1:
                    # Absorb the following outer arms into the inner match.
                    absorbed_inner = (
                        EMatch(inner.scrutinee, list(inner.cases) + list(cases[i + 1 :]))
                        if isinstance(inner, EMatch)
                        else EFunction(list(inner.cases) + list(cases[i + 1 :]))
                    )
                    new_case = MatchCase(case.pattern, absorbed_inner)
                    out.append(_change(path, node, rebuild(cases[:i] + [new_case]),
                                       "reparen-match",
                                       "move the following arms into the nested match"))
                # Lift the inner match's trailing arms out to this match.
                for k in range(1, len(inner.cases)):
                    kept_inner = (
                        EMatch(inner.scrutinee, list(inner.cases[:k]))
                        if isinstance(inner, EMatch)
                        else EFunction(list(inner.cases[:k]))
                    )
                    lifted = list(inner.cases[k:])
                    new_case = MatchCase(case.pattern, kept_inner)
                    out.append(_change(
                        path, node,
                        rebuild(cases[:i] + [new_case] + lifted + list(cases[i + 1 :])),
                        "reparen-match",
                        "move trailing arms of the nested match out to this match",
                    ))
        return flat(out)

    def _try_changes(self, node: ETry, path: Path) -> List[ChangeNode]:
        out: List[Change] = [
            # The handler is the problem: keep only the protected body.
            _change(path, node, node.body, "drop-handler",
                    "drop the exception handler"),
            # The student wrote ``try`` where a value match was meant.
            _change(path, node, EMatch(node.body, list(node.cases)), "try-to-match",
                    "match on the result instead of handling exceptions"),
        ]
        return flat(out)

    def _annot_changes(self, node: EAnnot, path: Path) -> List[ChangeNode]:
        # A stale/wrong annotation: drop it and let inference decide.
        return flat([
            _change(path, node, node.expr, "drop-annot",
                    "remove the (possibly stale) type annotation"),
        ])

    def _let_changes(self, node: ELet, path: Path) -> List[ChangeNode]:
        out: List[Change] = []
        if not node.rec and any(b.fun_name for b in node.bindings):
            out.append(_change(path, node, ELet(True, node.bindings, node.body),
                               "make-rec", "make the function recursive"))
        if node.rec:
            out.append(_change(path, node, ELet(False, node.bindings, node.body),
                               "drop-rec", "make the binding non-recursive"))
        return flat(out)

    def _dlet_changes(self, node: DLet, path: Path) -> List[ChangeNode]:
        out: List[Change] = []
        if not node.rec and any(b.fun_name for b in node.bindings):
            out.append(_change(path, node, DLet(True, node.bindings),
                               "make-rec", "make the function recursive"))
        if node.rec:
            out.append(_change(path, node, DLet(False, node.bindings),
                               "drop-rec", "make the binding non-recursive"))
        return flat(out)

    # -- variables ---------------------------------------------------------

    def _var_changes(self, node: EVar, path: Path) -> List[ChangeNode]:
        if "." in node.name:
            return []
        out = [
            _change(path, node, EVar(f"{module}.{node.name}"), "qualify-name",
                    f"qualify as {module}.{node.name}")
            for module in _QUALIFYING_MODULES
        ]
        return flat(out)

    # -- patterns ------------------------------------------------------------

    def _ptuple_changes(self, node: PTuple, path: Path) -> List[ChangeNode]:
        out: List[Change] = []
        items = node.items
        if len(items) == 2:
            out.append(_change(path, node, PTuple([items[1], items[0]]),
                               "permute-pattern", "swap the tuple components"))
        for i in range(len(items)):
            rest = items[:i] + items[i + 1 :]
            replacement: Pattern = PTuple(rest) if len(rest) >= 2 else rest[0]
            out.append(_change(path, node, replacement, "drop-pattern-item",
                               f"drop component {i + 1}"))
        out.append(_change(path, node, PTuple(list(items) + [wildcard_pattern()]),
                           "add-pattern-item", "match an extra component"))
        return flat(out)

    def _plist_changes(self, node: PList, path: Path) -> List[ChangeNode]:
        out: List[Change] = []
        if len(node.items) == 1 and isinstance(node.items[0], PTuple):
            out.append(_change(path, node, PList(list(node.items[0].items)),
                               "list-of-tuple-to-list",
                               "separate the pattern elements with ';' instead of ','"))
        return flat(out)

    def _pcons_changes(self, node: PCons, path: Path) -> List[ChangeNode]:
        return flat([
            _change(path, node, PCons(node.tail, node.head), "swap-cons",
                    "swap the sides of ::"),
        ])
