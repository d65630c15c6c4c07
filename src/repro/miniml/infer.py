"""Hindley–Milner type inference for MiniML with OCaml-style error reporting.

This module is the *oracle substrate*: the paper uses Caml's mature
type-checker unchanged; we rebuild the relevant behaviour from scratch.
Two properties matter for the reproduction:

1. **Boolean oracle** — ``typecheck_program`` says yes/no for whole programs;
   the SEMINAL searcher never looks deeper than that.
2. **Conventional-message baseline** — when a program is ill-typed the first
   error must *look and point like OCaml's*: unification-driven, reported at
   the expression where constraint solving failed, which is often far from
   the actual mistake.  We reproduce that via bidirectional expected-type
   propagation (the analogue of OCaml's ``type_expect``): structural
   expressions are checked against the type their context demands, so a deep
   mismatch (Fig. 2's ``x + y``) is reported at the deep position.

The checker knows nothing about SEMINAL: the search wildcard is a plain
``raise Foo`` expression and adaptation is a stdlib function of type
``'a -> 'b``, exactly as in the paper (Sections 2.1 and 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .ast_nodes import (
    Binding,
    EAnnot,
    ETry,
    DException,
    DExpr,
    DLet,
    DType,
    EApp,
    EBinop,
    ECons,
    EConst,
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
    ERecord,
    ESeq,
    ETuple,
    EUnop,
    EVar,
    Expr,
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
    TEArrow,
    TEName,
    TETuple,
    TEVar,
    TypeExpr,
)
from .errors import (
    ConstructorArityError,
    DuplicateBindingError,
    MiniMLTypeError,
    NestingTooDeepError,
    NotAFunctionError,
    QUOTE_NODE,
    PatternMismatchError,
    RecordFieldError,
    RecursionError_,
    TypeMismatchError,
    UnboundConstructorError,
    UnboundFieldError,
    UnboundVariableError,
    UnknownTypeError,
)

from .stdlib import CtorInfo, FieldInfo, TypeEnv, default_env, operator_scheme
from .types import (
    BOOL,
    EXN,
    FLOAT,
    INT,
    STRING,
    UNIT,
    Scheme,
    TArrow,
    TCon,
    TTuple,
    TVar,
    Trail,
    Type,
    generalize,
    instantiate,
    monotype,
    resolve,
    set_trail,
    t_list,
    t_ref,
    trail_map_set,
)
from .unify import UnifyError, unify

_CONST_TYPES = {"int": INT, "float": FLOAT, "string": STRING, "bool": BOOL, "unit": UNIT}

_BASE_ENV: Optional[TypeEnv] = None


def _default_base() -> TypeEnv:
    """Shared immutable base environment (schemes are never mutated by
    instantiation, and each pass forks the mutable tables)."""
    global _BASE_ENV
    if _BASE_ENV is None:
        _BASE_ENV = default_env()
    return _BASE_ENV


@dataclass
class CheckResult:
    """Outcome of typechecking a whole program."""

    ok: bool
    error: Optional[MiniMLTypeError] = None
    #: Schemes of the top-level value bindings this check inferred (only
    #: when ``ok``).  A from-scratch check fills in every binding; a
    #: snapshot answer (:meth:`SpeculativeState.check`) only those its
    #: suffix bound, not the prefix's; a decl-table answer
    #: (:func:`replay_decl_table`) infers nothing and leaves it empty.
    top_level: Dict[str, Scheme] = field(default_factory=dict)
    #: ``id(expr) -> Type`` when the pass ran with ``record_types``.
    node_types: Dict[int, object] = field(default_factory=dict)
    #: Declaration accounting for the oracle's reuse telemetry: how many
    #: top-level declarations this pass really inferred, how many it
    #: answered from the recorded decl table, and how many it skipped via
    #: a prefix snapshot.
    decls_checked: int = 0
    decls_replayed: int = 0
    decls_skipped: int = 0
    #: Trail entries undone after a check against shared live state (the
    #: ``oracle.trail.rolled_back`` telemetry; see :func:`_trailed`).
    rolled_back: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def type_str_of(self, node) -> Optional[str]:
        """Rendered type of ``node`` if the pass recorded one."""
        from .types import type_to_string

        t = self.node_types.get(id(node))
        return type_to_string(t) if t is not None else None


def is_syntactic_value(e: Expr) -> bool:
    """OCaml's value restriction: only generalize non-expansive expressions."""
    if isinstance(e, (EConst, EVar, EFun, EFunction)):
        return True
    if isinstance(e, ETuple):
        return all(is_syntactic_value(i) for i in e.items)
    if isinstance(e, EList):
        return all(is_syntactic_value(i) for i in e.items)
    if isinstance(e, ECons):
        return is_syntactic_value(e.head) and is_syntactic_value(e.tail)
    if isinstance(e, EConstructor):
        return e.arg is None or is_syntactic_value(e.arg)
    if isinstance(e, EAnnot):
        return is_syntactic_value(e.expr)
    return False


class Inferencer:
    """One complete inference pass over one program.

    A fresh instance per :func:`typecheck_program` call keeps unification
    state disposable — important because the searcher makes thousands of
    independent oracle calls.
    """

    def __init__(self, record_types: bool = False):
        self.root_env = _default_base().fork()
        self.level = 0
        #: When ``record_types`` is set, maps ``id(expr)`` to its inferred
        #: type — the analogue of OCaml's ``-annot`` output.  Message
        #: rendering uses this; type-*checking* never reads it, so the
        #: oracle's behaviour is unchanged.
        self.record_types = record_types
        self.node_types: Dict[int, Type] = {}
        #: Top-level declarations actually inferred by this pass (the
        #: ``oracle.decl.checked`` telemetry).
        self.decls_checked = 0

    # ------------------------------------------------------------------
    # Fresh variables and scoping
    # ------------------------------------------------------------------

    def fresh(self) -> TVar:
        return TVar(self.level)

    # ------------------------------------------------------------------
    # Programs and declarations
    # ------------------------------------------------------------------

    def check_decl(self, env: TypeEnv, decl, top_level: Dict[str, Scheme]) -> None:
        """Check one top-level declaration, extending ``env``/``top_level``."""
        self.decls_checked += 1
        if isinstance(decl, DType):
            self._declare_type(decl)
        elif isinstance(decl, DException):
            self._declare_exception(decl)
        elif isinstance(decl, DLet):
            top_level.update(self._check_bindings(env, decl.rec, decl.bindings))
        elif isinstance(decl, DExpr):
            self.infer_expr(env, decl.expr)
        else:  # pragma: no cover - parser produces nothing else
            raise TypeError(f"unknown declaration {type(decl).__name__}")

    def _declare_type(self, decl: DType) -> None:
        params = {name: TVar(level=1) for name in decl.params}
        # Register arity first so recursive types (Fig. 9's ``move``) work.
        # Table writes go through ``trail_map_set``: under the speculative
        # fast path the tables are shared across checks and must be undone.
        trail_map_set(self.root_env.type_arities, decl.name, len(decl.params))
        result = TCon(decl.name, [params[p] for p in decl.params])
        vars = list(params.values())
        if decl.record_fields:
            names = [f.name for f in decl.record_fields]
            if len(set(names)) != len(names):
                raise RecordFieldError(decl, f"Two fields are named identically in type {decl.name}")
            for f in decl.record_fields:
                ftype = self._eval_type_expr(f.type_expr, params)
                trail_map_set(
                    self.root_env.fields,
                    f.name,
                    FieldInfo(f.name, decl.name, vars, ftype, result, f.mutable, names),
                )
        else:
            for v in decl.variants:
                arg = self._eval_type_expr(v.arg, params) if v.arg is not None else None
                trail_map_set(
                    self.root_env.constructors, v.name, CtorInfo(v.name, vars, arg, result)
                )

    def _declare_exception(self, decl: DException) -> None:
        arg = self._eval_type_expr(decl.arg, {}) if decl.arg is not None else None
        trail_map_set(self.root_env.constructors, decl.name, CtorInfo(decl.name, [], arg, EXN))

    def _eval_type_expr(self, te: TypeExpr, params: Dict[str, TVar]) -> Type:
        if isinstance(te, TEVar):
            if te.name not in params:
                raise UnknownTypeError(te, f"Unbound type parameter '{te.name}")
            return params[te.name]
        if isinstance(te, TEName):
            arity = self.root_env.type_arities.get(te.name)
            if arity is None:
                raise UnknownTypeError(te, f"Unbound type constructor {te.name}")
            if arity != len(te.args):
                raise UnknownTypeError(
                    te,
                    f"The type constructor {te.name} expects {arity} argument(s), "
                    f"but is here applied to {len(te.args)} argument(s)",
                )
            return TCon(te.name, [self._eval_type_expr(a, params) for a in te.args])
        if isinstance(te, TEArrow):
            return TArrow(
                self._eval_type_expr(te.param, params), self._eval_type_expr(te.result, params)
            )
        if isinstance(te, TETuple):
            return TTuple([self._eval_type_expr(i, params) for i in te.items])
        raise TypeError(f"unknown type expression {type(te).__name__}")

    # ------------------------------------------------------------------
    # Let bindings
    # ------------------------------------------------------------------

    def _check_bindings(self, env: TypeEnv, rec: bool, bindings: List[Binding]) -> Dict[str, Scheme]:
        """Check a binding group, bind names into ``env``, return the schemes."""
        bound: Dict[str, Scheme] = {}
        if rec:
            # Pre-bind each name to a fresh monomorphic variable.
            self.level += 1
            try:
                pre: List[TVar] = []
                for b in bindings:
                    if not isinstance(b.pattern, PVar):
                        raise RecursionError_(
                            b.pattern, "Only variables are allowed as left-hand side of let rec"
                        )
                    var = self.fresh()
                    pre.append(var)
                    env.bind(b.pattern.name, monotype(var))
                for b, var in zip(bindings, pre):
                    # Check (not infer-then-unify) against the pre-bound
                    # variable: this shares the recursive occurrence's type
                    # with the parameter types, matching OCaml.  It is what
                    # makes Fig. 9 report at the recursive call argument.
                    self.check_expr(env, b.expr, var)
            finally:
                self.level -= 1
            for b, var in zip(bindings, pre):
                name = b.pattern.name  # type: ignore[union-attr]
                scheme = (
                    generalize(var, self.level)
                    if is_syntactic_value(b.expr)
                    else monotype(var)
                )
                env.bind(name, scheme)
                bound[name] = scheme
            return bound

        for b in bindings:
            self.level += 1
            try:
                rhs_type = self.infer_expr(env, b.expr)
            finally:
                self.level -= 1
            names: Dict[str, Type] = {}
            self._check_pattern(b.pattern, rhs_type, names)
            generalizable = is_syntactic_value(b.expr)
            for name, t in names.items():
                scheme = generalize(t, self.level) if generalizable else monotype(t)
                env.bind(name, scheme)
                bound[name] = scheme
        return bound

    # ------------------------------------------------------------------
    # Patterns
    # ------------------------------------------------------------------

    def _check_pattern(self, p: Pattern, expected: Type, names: Dict[str, Type]) -> None:
        """Match pattern ``p`` against ``expected``, collecting bindings."""
        if isinstance(p, PWild):
            return
        if isinstance(p, PVar):
            if p.name in names:
                raise DuplicateBindingError(p, p.name)
            names[p.name] = expected
            return
        if isinstance(p, PConst):
            self._unify_pattern(p, _CONST_TYPES[p.kind], expected)
            return
        if isinstance(p, PTuple):
            expected_r = resolve(expected)
            if isinstance(expected_r, TTuple) and len(expected_r.items) == len(p.items):
                item_types = expected_r.items
            else:
                item_types = [self.fresh() for _ in p.items]
                self._unify_pattern(p, TTuple(list(item_types)), expected)
            for item, t in zip(p.items, item_types):
                self._check_pattern(item, t, names)
            return
        if isinstance(p, PCons):
            elem = self.fresh()
            self._unify_pattern(p, t_list(elem), expected)
            self._check_pattern(p.head, elem, names)
            self._check_pattern(p.tail, t_list(elem), names)
            return
        if isinstance(p, PList):
            elem = self.fresh()
            self._unify_pattern(p, t_list(elem), expected)
            for item in p.items:
                self._check_pattern(item, elem, names)
            return
        if isinstance(p, PConstructor):
            info = self.root_env.lookup_ctor(p.name)
            if info is None:
                raise UnboundConstructorError(p, p.name)
            arg_t, result_t = self._instantiate_ctor(info)
            self._unify_pattern(p, result_t, expected)
            if info.arg is None and p.arg is not None:
                raise ConstructorArityError(p, p.name, 0, 1)
            if info.arg is not None and p.arg is None:
                raise ConstructorArityError(p, p.name, 1, 0)
            if p.arg is not None and arg_t is not None:
                self._check_pattern(p.arg, arg_t, names)
            return
        raise TypeError(f"unknown pattern {type(p).__name__}")

    def _unify_pattern(self, p: Pattern, actual: Type, expected: Type) -> None:
        try:
            unify(actual, expected)
        except UnifyError as err:
            raise PatternMismatchError(p, err.t1, err.t2) from err

    def _instantiate_ctor(self, info: CtorInfo) -> tuple[Optional[Type], Type]:
        scheme_body = TTuple([info.arg or UNIT, info.result])
        inst = instantiate(Scheme(info.vars, scheme_body), self.level)
        assert isinstance(inst, TTuple)
        arg = inst.items[0] if info.arg is not None else None
        return arg, inst.items[1]

    # ------------------------------------------------------------------
    # Expressions: inference (synthesis) mode
    # ------------------------------------------------------------------

    def infer_expr(self, env: TypeEnv, e: Expr) -> Type:
        t = self._infer_expr(env, e)
        if self.record_types:
            self.node_types[id(e)] = t
        return t

    def _infer_expr(self, env: TypeEnv, e: Expr) -> Type:
        if isinstance(e, EConst):
            return _CONST_TYPES[e.kind]
        if isinstance(e, EVar):
            scheme = env.lookup(e.name)
            if scheme is None:
                raise UnboundVariableError(e, e.name)
            return instantiate(scheme, self.level)
        if isinstance(e, EConstructor):
            return self._infer_constructor(env, e)
        if isinstance(e, ETuple):
            return TTuple([self.infer_expr(env, item) for item in e.items])
        if isinstance(e, EList):
            elem: Type = self.fresh()
            for item in e.items:
                self.check_expr(env, item, elem)
            return t_list(elem)
        if isinstance(e, ECons):
            elem = self.infer_expr(env, e.head)
            self.check_expr(env, e.tail, t_list(elem))
            return t_list(elem)
        if isinstance(e, EApp):
            return self._infer_app(env, e)
        if isinstance(e, EFun):
            child = env.child()
            param_types = []
            for p in e.params:
                pt = self.fresh()
                names: Dict[str, Type] = {}
                self._check_pattern(p, pt, names)
                for name, t in names.items():
                    child.bind(name, monotype(t))
                param_types.append(pt)
            result = self.infer_expr(child, e.body)
            for pt in reversed(param_types):
                result = TArrow(pt, result)
            return result
        if isinstance(e, EFunction):
            param = self.fresh()
            result = self._infer_cases(env, e.cases, param, expected=None)
            return TArrow(param, result)
        if isinstance(e, ELet):
            child = env.child()
            self._check_bindings(child, e.rec, e.bindings)
            return self.infer_expr(child, e.body)
        if isinstance(e, EIf):
            self.check_expr(env, e.cond, BOOL)
            if e.else_branch is None:
                self.check_expr(env, e.then_branch, UNIT)
                return UNIT
            then_t = self.infer_expr(env, e.then_branch)
            self.check_expr(env, e.else_branch, then_t)
            return then_t
        if isinstance(e, EMatch):
            scrutinee_t = self.infer_expr(env, e.scrutinee)
            return self._infer_cases(env, e.cases, scrutinee_t, expected=None)
        if isinstance(e, EBinop):
            return self._infer_binop(env, e)
        if isinstance(e, EUnop):
            if e.op == "!":
                elem = self.fresh()
                self.check_expr(env, e.operand, t_ref(elem))
                return elem
            self.check_expr(env, e.operand, INT)
            return INT
        if isinstance(e, ESeq):
            self.infer_expr(env, e.first)
            return self.infer_expr(env, e.second)
        if isinstance(e, ERaise):
            self.check_expr(env, e.exn, EXN)
            return self.fresh()
        if isinstance(e, ERecord):
            return self._infer_record(env, e)
        if isinstance(e, EFieldGet):
            info = self.root_env.lookup_field(e.field_name)
            if info is None:
                raise UnboundFieldError(e, e.field_name)
            record_t, field_t, _mutable = self._instantiate_field(info)
            self.check_expr(env, e.record, record_t)
            return field_t
        if isinstance(e, EFieldSet):
            info = self.root_env.lookup_field(e.field_name)
            if info is None:
                raise UnboundFieldError(e, e.field_name)
            record_t, field_t, mutable = self._instantiate_field(info)
            if not mutable:
                raise RecordFieldError(e, f"The record field {e.field_name} is not mutable")
            self.check_expr(env, e.record, record_t)
            self.check_expr(env, e.value, field_t)
            return UNIT
        if isinstance(e, ETry):
            body_t = self.infer_expr(env, e.body)
            self._infer_cases(env, e.cases, EXN, expected=body_t)
            return body_t
        if isinstance(e, EAnnot):
            declared = self._eval_annot_type(e.type_expr)
            self.check_expr(env, e.expr, declared)
            return declared
        raise TypeError(f"unknown expression {type(e).__name__}")

    def _eval_annot_type(self, te: TypeExpr) -> Type:
        """Evaluate an annotation's type; unseen type variables become
        fresh unification variables scoped to the annotation (OCaml-like)."""

        class _AutoVars(dict):
            def __init__(self, inferencer):
                super().__init__()
                self._inferencer = inferencer

            def __contains__(self, key):
                return True

            def __getitem__(self, key):
                if key not in self.keys():
                    super().__setitem__(key, self._inferencer.fresh())
                return super().get(key)

        return self._eval_type_expr(te, _AutoVars(self))

    def _instantiate_field(self, info: FieldInfo) -> tuple[Type, Type, bool]:
        inst = instantiate(Scheme(info.vars, TTuple([info.record_type, info.field_type])), self.level)
        assert isinstance(inst, TTuple)
        return inst.items[0], inst.items[1], info.mutable

    def _infer_constructor(self, env: TypeEnv, e: EConstructor) -> Type:
        info = self.root_env.lookup_ctor(e.name)
        if info is None:
            raise UnboundConstructorError(e, e.name)
        arg_t, result_t = self._instantiate_ctor(info)
        if info.arg is None and e.arg is not None:
            raise ConstructorArityError(e, e.name, 0, 1)
        if info.arg is not None and e.arg is None:
            raise ConstructorArityError(e, e.name, 1, 0)
        if e.arg is not None and arg_t is not None:
            self.check_expr(env, e.arg, arg_t)
        return result_t

    def _infer_record(self, env: TypeEnv, e: ERecord) -> Type:
        if not e.fields:
            raise RecordFieldError(e, "Empty record literal")
        first = self.root_env.lookup_field(e.fields[0].name)
        if first is None:
            raise UnboundFieldError(e.fields[0], e.fields[0].name)
        record_t, _ft, _m = self._instantiate_field(first)
        given = [f.name for f in e.fields]
        if len(set(given)) != len(given):
            raise RecordFieldError(e, "A record field is defined several times")
        missing = [n for n in first.all_fields if n not in given]
        if missing:
            raise RecordFieldError(e, f"Some record fields are undefined: {' '.join(missing)}")
        for f in e.fields:
            info = self.root_env.lookup_field(f.name)
            if info is None or info.record_name != first.record_name:
                raise UnboundFieldError(
                    f, f.name if info is None else f"{f.name} (belongs to type {info.record_name})"
                )
            # Re-instantiate sharing the same record instance: unify record types.
            f_record_t, f_field_t, _ = self._instantiate_field(info)
            unify(f_record_t, record_t)
            self.check_expr(env, f.expr, f_field_t)
        return record_t

    def _infer_app(self, env: TypeEnv, e: EApp) -> Type:
        func_t = self.infer_expr(env, e.func)
        result = func_t
        for i, arg in enumerate(e.args):
            result = resolve(result)
            if isinstance(result, TArrow):
                self.check_expr(env, arg, result.param)
                result = result.result
            elif isinstance(result, TVar):
                param, ret = self.fresh(), self.fresh()
                unify(result, TArrow(param, ret))
                self.check_expr(env, arg, param)
                result = ret
            else:
                # Over-application / applying a non-function.  OCaml reports
                # this at the function expression with its full type.
                raise NotAFunctionError(e.func, func_t, QUOTE_NODE)
        return result

    def _infer_binop(self, env: TypeEnv, e: EBinop) -> Type:
        scheme = operator_scheme(e.op)
        if scheme is None:
            raise UnboundVariableError(e, f"( {e.op} )")
        op_t = resolve(instantiate(scheme, self.level))
        assert isinstance(op_t, TArrow)
        rest = resolve(op_t.result)
        assert isinstance(rest, TArrow)
        self.check_expr(env, e.left, op_t.param)
        self.check_expr(env, e.right, rest.param)
        return rest.result

    def _infer_cases(
        self,
        env: TypeEnv,
        cases: List[MatchCase],
        scrutinee_t: Type,
        expected: Optional[Type],
    ) -> Type:
        """Check match arms; bodies unify with ``expected`` (or the first arm)."""
        result: Optional[Type] = expected
        for case in cases:
            names: Dict[str, Type] = {}
            self._check_pattern(case.pattern, scrutinee_t, names)
            child = env.child()
            for name, t in names.items():
                child.bind(name, monotype(t))
            if result is None:
                result = self.infer_expr(child, case.body)
            else:
                self.check_expr(child, case.body, result)
        assert result is not None
        return result

    # ------------------------------------------------------------------
    # Expressions: checking (analysis) mode — OCaml's ``type_expect``
    # ------------------------------------------------------------------

    def check_expr(self, env: TypeEnv, e: Expr, expected: Type) -> None:
        """Check ``e`` against ``expected``, descending structurally so that
        mismatches are reported at the deepest responsible expression."""
        self._check_expr(env, e, expected)
        if self.record_types:
            self.node_types[id(e)] = expected

    def _check_expr(self, env: TypeEnv, e: Expr, expected: Type) -> None:
        if isinstance(e, EFun):
            self._check_fun(env, e, expected)
            return
        if isinstance(e, EFunction):
            expected_r = resolve(expected)
            if isinstance(expected_r, TVar):
                param, result = self.fresh(), self.fresh()
                unify(expected_r, TArrow(param, result))
                self._infer_cases(env, e.cases, param, expected=result)
                return
            if isinstance(expected_r, TArrow):
                self._infer_cases(env, e.cases, expected_r.param, expected=expected_r.result)
                return
            self._fail_mismatch(e, TArrow(self.fresh(), self.fresh()), expected_r)
        if isinstance(e, EIf):
            self.check_expr(env, e.cond, BOOL)
            if e.else_branch is None:
                self._unify_expr(e, UNIT, expected)
                self.check_expr(env, e.then_branch, UNIT)
                return
            self.check_expr(env, e.then_branch, expected)
            self.check_expr(env, e.else_branch, expected)
            return
        if isinstance(e, EMatch):
            scrutinee_t = self.infer_expr(env, e.scrutinee)
            self._infer_cases(env, e.cases, scrutinee_t, expected=expected)
            return
        if isinstance(e, ETry):
            self.check_expr(env, e.body, expected)
            self._infer_cases(env, e.cases, EXN, expected=expected)
            return
        if isinstance(e, EAnnot):
            declared = self._eval_annot_type(e.type_expr)
            self._unify_expr(e, declared, expected)
            self.check_expr(env, e.expr, declared)
            return
        if isinstance(e, ELet):
            child = env.child()
            self._check_bindings(child, e.rec, e.bindings)
            self.check_expr(child, e.body, expected)
            return
        if isinstance(e, ESeq):
            self.infer_expr(env, e.first)
            self.check_expr(env, e.second, expected)
            return
        if isinstance(e, ERaise):
            self.check_expr(env, e.exn, EXN)
            return  # raise fits any context
        if isinstance(e, ETuple):
            expected_r = resolve(expected)
            if isinstance(expected_r, TTuple) and len(expected_r.items) == len(e.items):
                for item, t in zip(e.items, expected_r.items):
                    self.check_expr(env, item, t)
                return
            if isinstance(expected_r, TVar):
                items = [self.fresh() for _ in e.items]
                unify(expected_r, TTuple(list(items)))
                for item, t in zip(e.items, items):
                    self.check_expr(env, item, t)
                return
            # Arity mismatch or non-tuple context: report at the tuple.
            actual = TTuple([self.infer_expr(env, item) for item in e.items])
            self._unify_expr(e, actual, expected_r)
            return
        if isinstance(e, EList):
            expected_r = resolve(expected)
            elem: Type
            if isinstance(expected_r, TCon) and expected_r.name == "list":
                elem = expected_r.args[0]
            elif isinstance(expected_r, TVar):
                elem = self.fresh()
                unify(expected_r, t_list(elem))
            else:
                actual = self.infer_expr(env, e)
                self._unify_expr(e, actual, expected_r)
                return
            for item in e.items:
                self.check_expr(env, item, elem)
            return
        if isinstance(e, ECons):
            expected_r = resolve(expected)
            if isinstance(expected_r, TCon) and expected_r.name == "list":
                elem = expected_r.args[0]
                self.check_expr(env, e.head, elem)
                self.check_expr(env, e.tail, t_list(elem))
                return
            actual = self.infer_expr(env, e)
            self._unify_expr(e, actual, expected)
            return
        # Default: synthesize then unify; the error points at ``e``.
        actual = self.infer_expr(env, e)
        self._unify_expr(e, actual, expected)

    def _check_fun(self, env: TypeEnv, e: EFun, expected: Type) -> None:
        child = env.child()
        remaining = expected
        for index, p in enumerate(e.params):
            remaining = resolve(remaining)
            if isinstance(remaining, TVar):
                param, result = self.fresh(), self.fresh()
                unify(remaining, TArrow(param, result))
                remaining = TArrow(param, result)
            if isinstance(remaining, TArrow):
                names: Dict[str, Type] = {}
                self._check_pattern(p, remaining.param, names)
                for name, t in names.items():
                    child.bind(name, monotype(t))
                remaining = remaining.result
            else:
                # The context supplies fewer arrows than the function has
                # parameters; report the leftover function shape vs context.
                leftover = self.fresh()
                actual: Type = leftover
                for _ in e.params[index:]:
                    actual = TArrow(self.fresh(), actual)
                self._fail_mismatch(e, actual, remaining)
        self.check_expr(child, e.body, remaining)

    # ------------------------------------------------------------------
    # Error helpers
    # ------------------------------------------------------------------

    def _unify_expr(self, e: Expr, actual: Type, expected: Type) -> None:
        try:
            unify(actual, expected)
        except UnifyError as err:
            raise TypeMismatchError(e, err.t1, err.t2, quoted=QUOTE_NODE) from err

    def _fail_mismatch(self, e: Expr, actual: Type, expected: Type) -> None:
        raise TypeMismatchError(e, actual, expected, quoted=QUOTE_NODE)


def _check_decls(
    inferencer: Inferencer,
    env: TypeEnv,
    decls,
    top_level: Dict[str, Scheme],
    skipped: int = 0,
) -> CheckResult:
    """Check ``decls`` in order on ``env``; never raises.

    A program nested past the interpreter's recursion headroom is reported
    as ill-typed (with a dedicated error) instead of crashing the caller
    mid-inference.
    """
    try:
        for decl in decls:
            inferencer.check_decl(env, decl, top_level)
    except MiniMLTypeError as err:
        # The error outlives the check as a value: drop its traceback and
        # chained ``UnifyError``, whose frames would pin the caller (the
        # oracle, its searcher and every candidate tree) for as long as
        # the result is kept.
        err.__traceback__ = err.__cause__ = err.__context__ = None
        return CheckResult(
            ok=False,
            error=err,
            node_types=inferencer.node_types,
            decls_checked=inferencer.decls_checked,
            decls_skipped=skipped,
        )
    except RecursionError:
        return CheckResult(
            ok=False,
            error=NestingTooDeepError(),
            decls_checked=inferencer.decls_checked,
            decls_skipped=skipped,
        )
    return CheckResult(
        ok=True,
        top_level=top_level,
        node_types=inferencer.node_types,
        decls_checked=inferencer.decls_checked,
        decls_skipped=skipped,
    )


class TrailIntegrityError(RuntimeError):
    """The speculative undo could not restore the armed state exactly.

    Raised when rolling the trail back fails (or the trail was tampered
    with mid-check).  The armed :class:`SpeculativeState` must be
    considered corrupt: the oracle discards it and answers the check
    another way.
    """


def _undo(trail: Trail, mark: int) -> int:
    try:
        return trail.undo(mark)
    except BaseException as undo_err:
        raise TrailIntegrityError(
            "speculative rollback failed; armed state corrupt"
        ) from undo_err


def _trailed(
    trail: Trail, run: Callable[[], CheckResult], freeze_errors: bool
) -> CheckResult:
    """Run one check with ``trail`` installed, then undo every write it made.

    The SMT push/pop discipline: the check unifies against shared, live
    typing state, and the rollback leaves that state bit-identical for the
    next check.  The result's ``rolled_back`` counts the entries undone.
    When ``freeze_errors`` is set, a failing result's message is rendered
    *before* rollback, since the types it renders from are about to be
    un-unified.

    Raises :class:`TrailIntegrityError` when the state could not be
    restored; any other exception escapes *after* a successful rollback,
    so the state stays reusable.
    """
    mark = trail.mark()
    previous = set_trail(trail)
    try:
        result = run()
        if freeze_errors and result.error is not None:
            result.error.freeze()
    except BaseException:
        # Not a type error: chaos injection, a checker bug, a poisoned
        # state.  Restore the armed state before letting it escape.
        set_trail(previous)
        _undo(trail, mark)
        raise
    set_trail(previous)
    if trail.mark() < mark:
        raise TrailIntegrityError(
            "trail shrank below the pre-check mark; armed state corrupt"
        )
    result.rolled_back = _undo(trail, mark)
    return result


def _speculative_inferencer(root: TypeEnv) -> Inferencer:
    """A per-check :class:`Inferencer` over an existing root environment.

    Bypasses ``__init__`` so the armed tables are *not* re-copied — that
    copy is exactly the constant factor the armed state removes.
    """
    inferencer = Inferencer.__new__(Inferencer)
    inferencer.root_env = root
    inferencer.level = 0
    inferencer.record_types = False
    inferencer.node_types = {}
    inferencer.decls_checked = 0
    return inferencer


class SpeculativeState:
    """The live typing state after the first ``n_decls`` declarations.

    The SEMINAL searcher, once it has localized the first failing top-level
    declaration, only ever mutates *that* declaration: every candidate it
    tests shares the passing prefix ``decls[:k]`` by object identity (the
    functional :func:`repro.tree.replace_at` rebuilds only the spine).  The
    typing environment those declarations produce is therefore identical
    across thousands of oracle calls, and re-inferring it each time is pure
    waste.  :func:`snapshot_prefix` infers it once; :meth:`check` then
    infers only ``decls[k:]`` on top of it.

    Soundness relies on two properties:

    * **Identity matching** — :meth:`matches` accepts a program only when
      its first ``n_decls`` declarations *are* (``is``) the snapshotted
      ones, so a candidate that edits the prefix can never be checked
      against a stale environment.
    * **Trail rollback** — a suffix check runs against the *live* state,
      and the value restriction can leave un-generalized unification
      variables in its schemes (``let r = ref []`` gives
      ``r : '_a list ref``).  Every link a check applies to them, and
      every table write of a suffix ``type``/``exception`` declaration,
      is recorded on a :class:`~repro.miniml.types.Trail` and rolled back
      afterwards, SMT push/pop style, so nothing leaks into the next
      oracle call — exactly what re-inferring the prefix from scratch
      would produce.
    """

    __slots__ = ("decls", "root", "values_env", "trail")

    def __init__(self, decls, root: TypeEnv, values_env: TypeEnv):
        self.decls = tuple(decls)
        #: The private root environment (its tables are this state's own).
        self.root = root
        #: The prefix's value bindings, bound *live* (no instantiation).
        self.values_env = values_env
        self.trail = Trail()

    @property
    def n_decls(self) -> int:
        return len(self.decls)

    def matches(self, program: Program) -> bool:
        """Whether ``program`` starts with exactly the snapshotted prefix
        (by object identity — the searcher shares unchanged declarations)."""
        decls = program.decls
        if len(decls) < len(self.decls):
            return False
        for mine, theirs in zip(self.decls, decls):
            if mine is not theirs:
                return False
        return True

    def check(self, program: Program, freeze_errors: bool = True) -> CheckResult:
        """Check ``program``'s suffix against the live armed state.

        The caller must have verified :meth:`matches`.  ``freeze_errors``
        renders a failing result's message before rollback (see
        :func:`_trailed`); the oracle turns it off when the error dies with
        the check.  The answer's ``top_level`` holds only the suffix's
        bindings.  Raises :class:`TrailIntegrityError` when the armed
        state could not be restored.
        """
        skipped = self.n_decls
        return _trailed(
            self.trail,
            lambda: _check_decls(
                _speculative_inferencer(self.root),
                self.values_env.child(),
                program.decls[skipped:],
                {},
                skipped,
            ),
            freeze_errors,
        )


def snapshot_prefix(program: Program, upto: int) -> Optional[SpeculativeState]:
    """Type-check ``program.decls[:upto]`` and arm the resulting state.

    Returns ``None`` when the prefix is ill-typed (a snapshot of a failing
    prefix would be meaningless) or empty.  The returned state checks
    candidate programs that share the prefix without re-inferring it.
    """
    if upto <= 0:
        return None
    inferencer = Inferencer()
    values_env = inferencer.root_env.child()
    try:
        for decl in program.decls[:upto]:
            inferencer.check_decl(values_env, decl, {})
    except (MiniMLTypeError, RecursionError):
        return None
    return SpeculativeState(program.decls[:upto], inferencer.root_env, values_env)


def typecheck_program(program: Program, record_types: bool = False) -> CheckResult:
    """Type-check a whole program; never raises, returns a :class:`CheckResult`.

    This is the function the SEMINAL oracle wraps, and the from-scratch
    reference every reuse route must agree with.  A fresh environment is
    built per call (cheap relative to inference) so repeated oracle calls
    on mutated ASTs cannot interfere through shared unification state.
    """
    inferencer = Inferencer(record_types=record_types)
    return _check_decls(
        inferencer, inferencer.root_env.child(), program.decls, {}
    )


# ---------------------------------------------------------------------------
# The declaration table behind the oracle's table route: one recorded
# from-scratch pass, answering the baseline's unchanged prefixes.
# ---------------------------------------------------------------------------


def record_decl_table(program: Program):
    """Type-check ``program`` once, recording what its prefixes need.

    Returns ``(table, result)``: ``result`` is :func:`typecheck_program`'s
    answer (a complete check — the caller should use it instead of running
    a second pass), and ``table`` holds the two values
    :func:`replay_decl_table` answers from: the baseline's declarations up
    to and including the first failing one, and that failure's error
    (``None`` when the baseline passed).  ``table`` is ``None`` when the
    pass blew the recursion guard (:class:`NestingTooDeepError`).
    """
    result = typecheck_program(program)
    if isinstance(result.error, NestingTooDeepError):
        return None, result
    return (tuple(program.decls[: result.decls_checked]), result.error), result


def replay_decl_table(program: Program, table) -> Optional[CheckResult]:
    """Answer ``program`` from a recorded table, or return ``None``.

    The table answers a program whose declarations *are* (``is``) the
    baseline's up to the program's end or the baseline's first failing
    declaration, whichever comes first — every prefix of the baseline
    (localization's prefix scan) and the baseline itself.  The searcher
    shares unchanged declarations by identity, as the prefix snapshot's
    :meth:`SpeculativeState.matches` relies on, and inference is
    sequential, so such a program reaches the verdict the recorded pass
    reached there.  Nothing is inferred, so the answer's ``top_level`` is
    empty.  Any other program gets ``None``, and the caller checks it
    another way.
    """
    recorded, error = table
    decls = program.decls
    for mine, theirs in zip(recorded, decls):
        if mine is not theirs:
            return None
    covered = min(len(decls), len(recorded))
    if error is not None and covered == len(recorded):
        return CheckResult(ok=False, error=error, decls_replayed=covered)
    if len(decls) > len(recorded):
        return None
    return CheckResult(ok=True, decls_replayed=covered)


def typecheck_source(source: str) -> CheckResult:
    """Parse then type-check MiniML source text."""
    from .parser import parse_program

    return typecheck_program(parse_program(source))
