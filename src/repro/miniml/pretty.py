"""Precedence-aware pretty-printer for MiniML.

Error messages in this system quote *programs*, not line numbers (see the
paper's Figures 2, 8, 9), so round-tripping ASTs back to readable concrete
syntax is core functionality rather than a debugging nicety.

Two special cases support the search engine:

* nodes flagged ``synthetic`` print as the paper's wildcard ``[[...]]``
  (regardless of their real shape, which is ``raise Foo``), and
* applications of the internal ``__seminal_adapt`` function print their
  argument only (the adaptation is described in the message text instead).
"""

from __future__ import annotations

from typing import List

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

WILDCARD_TEXT = "[[...]]"
ADAPT_NAME = "__seminal_adapt"

# Precedence levels, loosest (0) to tightest; parenthesize a child whenever
# its level is strictly lower than the context demands.
_LEVEL_SEQ = 0
_LEVEL_CONTROL = 1
_LEVEL_TUPLE = 2
_LEVEL_ASSIGN = 3
_LEVEL_OR = 4
_LEVEL_AND = 5
_LEVEL_CMP = 6
_LEVEL_CONCAT = 7
_LEVEL_CONS = 8
_LEVEL_ADD = 9
_LEVEL_MUL = 10
_LEVEL_UNARY = 11
_LEVEL_APP = 12
_LEVEL_ATOM = 13

_BINOP_LEVEL = {
    ":=": _LEVEL_ASSIGN,
    "||": _LEVEL_OR,
    "&&": _LEVEL_AND,
    "=": _LEVEL_CMP,
    "==": _LEVEL_CMP,
    "!=": _LEVEL_CMP,
    "<>": _LEVEL_CMP,
    "<": _LEVEL_CMP,
    ">": _LEVEL_CMP,
    "<=": _LEVEL_CMP,
    ">=": _LEVEL_CMP,
    "@": _LEVEL_CONCAT,
    "^": _LEVEL_CONCAT,
    "+": _LEVEL_ADD,
    "-": _LEVEL_ADD,
    "+.": _LEVEL_ADD,
    "-.": _LEVEL_ADD,
    "*": _LEVEL_MUL,
    "/": _LEVEL_MUL,
    "*.": _LEVEL_MUL,
    "/.": _LEVEL_MUL,
    "mod": _LEVEL_MUL,
}

# Right-associative operator families print their right child at own level.
_RIGHT_ASSOC = {":=", "||", "&&", "@", "^"}


def _escape_string(value: str) -> str:
    out = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def pretty_expr(expr: Expr, level: int = _LEVEL_SEQ) -> str:
    """Render an expression, parenthesizing as needed for context ``level``."""
    text, own = _expr(expr)
    if own < level:
        return f"({text})"
    return text


def _expr(e: Expr) -> tuple[str, int]:
    """Return (text, precedence level of the produced syntax)."""
    if e.synthetic:
        return WILDCARD_TEXT, _LEVEL_ATOM
    if isinstance(e, EConst):
        if e.kind == "unit":
            return "()", _LEVEL_ATOM
        if e.kind == "string":
            return _escape_string(str(e.value)), _LEVEL_ATOM
        if e.kind == "bool":
            return ("true" if e.value else "false"), _LEVEL_ATOM
        if e.kind == "float":
            text = repr(float(e.value))
            if "." not in text and "e" not in text:
                text += "."
            return text, _LEVEL_ATOM if float(e.value) >= 0 else _LEVEL_UNARY
        return str(e.value), _LEVEL_ATOM if int(e.value) >= 0 else _LEVEL_UNARY
    if isinstance(e, EVar):
        return e.name, _LEVEL_ATOM
    if isinstance(e, EConstructor):
        if e.arg is None:
            return e.name, _LEVEL_ATOM
        return f"{e.name} {pretty_expr(e.arg, _LEVEL_ATOM)}", _LEVEL_APP
    if isinstance(e, ETuple):
        inner = ", ".join(pretty_expr(item, _LEVEL_ASSIGN) for item in e.items)
        return inner, _LEVEL_TUPLE
    if isinstance(e, EList):
        inner = "; ".join(pretty_expr(item, _LEVEL_TUPLE) for item in e.items)
        return f"[{inner}]", _LEVEL_ATOM
    if isinstance(e, ECons):
        head = pretty_expr(e.head, _LEVEL_ADD)
        tail = pretty_expr(e.tail, _LEVEL_CONS)
        return f"{head} :: {tail}", _LEVEL_CONS
    if isinstance(e, EApp):
        if isinstance(e.func, EVar) and e.func.name == ADAPT_NAME and len(e.args) == 1:
            return _expr(e.args[0])
        func = pretty_expr(e.func, _LEVEL_APP)
        args = " ".join(pretty_expr(a, _LEVEL_ATOM) for a in e.args)
        return f"{func} {args}", _LEVEL_APP
    if isinstance(e, EFun):
        params = " ".join(pretty_pattern(p, atom=True) for p in e.params)
        return f"fun {params} -> {pretty_expr(e.body, _LEVEL_CONTROL)}", _LEVEL_CONTROL
    if isinstance(e, EFunction):
        return f"function {_cases(e.cases)}", _LEVEL_CONTROL
    if isinstance(e, ELet):
        kw = "let rec" if e.rec else "let"
        binds = " and ".join(_binding(b) for b in e.bindings)
        return f"{kw} {binds} in {pretty_expr(e.body, _LEVEL_CONTROL)}", _LEVEL_CONTROL
    if isinstance(e, EIf):
        cond = pretty_expr(e.cond, _LEVEL_TUPLE)
        then_branch = pretty_expr(e.then_branch, _LEVEL_CONTROL)
        if e.else_branch is None:
            return f"if {cond} then {then_branch}", _LEVEL_CONTROL
        else_branch = pretty_expr(e.else_branch, _LEVEL_CONTROL)
        return f"if {cond} then {then_branch} else {else_branch}", _LEVEL_CONTROL
    if isinstance(e, EMatch):
        scrutinee = pretty_expr(e.scrutinee, _LEVEL_TUPLE)
        return f"match {scrutinee} with {_cases(e.cases)}", _LEVEL_CONTROL
    if isinstance(e, EBinop):
        own = _BINOP_LEVEL.get(e.op, _LEVEL_CMP)
        if e.op in _RIGHT_ASSOC:
            left = pretty_expr(e.left, own + 1)
            right = pretty_expr(e.right, own)
        else:
            left = pretty_expr(e.left, own)
            right = pretty_expr(e.right, own + 1)
        return f"{left} {e.op} {right}", own
    if isinstance(e, EUnop):
        if e.op == "!":
            return f"!{pretty_expr(e.operand, _LEVEL_ATOM)}", _LEVEL_UNARY
        return f"-{pretty_expr(e.operand, _LEVEL_UNARY)}", _LEVEL_UNARY
    if isinstance(e, ESeq):
        first = pretty_expr(e.first, _LEVEL_CONTROL)
        second = pretty_expr(e.second, _LEVEL_SEQ)
        return f"{first}; {second}", _LEVEL_SEQ
    if isinstance(e, ERaise):
        return f"raise {pretty_expr(e.exn, _LEVEL_ATOM)}", _LEVEL_CONTROL
    if isinstance(e, ETry):
        body = pretty_expr(e.body, _LEVEL_TUPLE)
        return f"try {body} with {_cases(e.cases)}", _LEVEL_CONTROL
    if isinstance(e, EAnnot):
        return f"({pretty_expr(e.expr, _LEVEL_TUPLE)} : {pretty_type_expr(e.type_expr)})", _LEVEL_ATOM
    if isinstance(e, ERecord):
        inner = "; ".join(f"{f.name} = {pretty_expr(f.expr, _LEVEL_TUPLE)}" for f in e.fields)
        return f"{{{inner}}}", _LEVEL_ATOM
    if isinstance(e, EFieldGet):
        return f"{pretty_expr(e.record, _LEVEL_ATOM)}.{e.field_name}", _LEVEL_ATOM
    if isinstance(e, EFieldSet):
        record = pretty_expr(e.record, _LEVEL_ATOM)
        value = pretty_expr(e.value, _LEVEL_ASSIGN)
        return f"{record}.{e.field_name} <- {value}", _LEVEL_ASSIGN
    raise TypeError(f"unknown expression node: {type(e).__name__}")


def _cases(cases: List[MatchCase]) -> str:
    return " | ".join(
        f"{pretty_pattern(c.pattern)} -> {pretty_expr(c.body, _LEVEL_CONTROL)}" for c in cases
    )


def _binding(b: Binding) -> str:
    if b.fun_name is not None and isinstance(b.expr, EFun) and not b.expr.synthetic:
        fun = b.expr
        if len(fun.params) >= b.n_sugar_params > 0:
            params = " ".join(pretty_pattern(p, atom=True) for p in fun.params)
            return f"{b.fun_name} {params} = {pretty_expr(fun.body, _LEVEL_CONTROL)}"
    return f"{pretty_pattern(b.pattern, atom=True)} = {pretty_expr(b.expr, _LEVEL_CONTROL)}"


def pretty_pattern(p: Pattern, atom: bool = False) -> str:
    """Render a pattern; ``atom=True`` parenthesizes anything compound."""
    if p.synthetic:
        return "_"
    if isinstance(p, PWild):
        return "_"
    if isinstance(p, PVar):
        return p.name
    if isinstance(p, PConst):
        if p.kind == "unit":
            return "()"
        if p.kind == "string":
            return _escape_string(str(p.value))
        if p.kind == "bool":
            return "true" if p.value else "false"
        return str(p.value)
    if isinstance(p, PTuple):
        inner = ", ".join(pretty_pattern(i, atom=True) for i in p.items)
        return f"({inner})" if atom else inner
    if isinstance(p, PCons):
        text = f"{pretty_pattern(p.head, atom=True)} :: {pretty_pattern(p.tail)}"
        return f"({text})" if atom else text
    if isinstance(p, PList):
        inner = "; ".join(pretty_pattern(i) for i in p.items)
        return f"[{inner}]"
    if isinstance(p, PConstructor):
        if p.arg is None:
            return p.name
        text = f"{p.name} {pretty_pattern(p.arg, atom=True)}"
        return f"({text})" if atom else text
    raise TypeError(f"unknown pattern node: {type(p).__name__}")


def pretty_type_expr(t: TypeExpr, atom: bool = False) -> str:
    """Render a surface type expression."""
    if isinstance(t, TEVar):
        return f"'{t.name}"
    if isinstance(t, TEName):
        if not t.args:
            return t.name
        if len(t.args) == 1:
            return f"{pretty_type_expr(t.args[0], atom=True)} {t.name}"
        inner = ", ".join(pretty_type_expr(a) for a in t.args)
        return f"({inner}) {t.name}"
    if isinstance(t, TEArrow):
        text = f"{pretty_type_expr(t.param, atom=True)} -> {pretty_type_expr(t.result)}"
        return f"({text})" if atom else text
    if isinstance(t, TETuple):
        text = " * ".join(pretty_type_expr(i, atom=True) for i in t.items)
        return f"({text})" if atom else text
    raise TypeError(f"unknown type expression: {type(t).__name__}")


def pretty_decl(d) -> str:
    """Render a top-level declaration."""
    if isinstance(d, DLet):
        kw = "let rec" if d.rec else "let"
        return f"{kw} " + " and ".join(_binding(b) for b in d.bindings)
    if isinstance(d, DType):
        if d.params:
            if len(d.params) == 1:
                header = f"type '{d.params[0]} {d.name}"
            else:
                params = ", ".join(f"'{p}" for p in d.params)
                header = f"type ({params}) {d.name}"
        else:
            header = f"type {d.name}"
        if d.record_fields:
            fields = "; ".join(
                ("mutable " if f.mutable else "") + f"{f.name} : {pretty_type_expr(f.type_expr)}"
                for f in d.record_fields
            )
            return f"{header} = {{{fields}}}"
        variants = " | ".join(
            v.name + (f" of {pretty_type_expr(v.arg)}" if v.arg is not None else "")
            for v in d.variants
        )
        return f"{header} = {variants}"
    if isinstance(d, DException):
        suffix = f" of {pretty_type_expr(d.arg)}" if d.arg is not None else ""
        return f"exception {d.name}{suffix}"
    if isinstance(d, DExpr):
        return pretty_expr(d.expr)
    raise TypeError(f"unknown declaration node: {type(d).__name__}")


def pretty_program(program: Program) -> str:
    """Render a full program, one declaration per line."""
    return "\n".join(pretty_decl(d) for d in program.decls) + ("\n" if program.decls else "")


def pretty(node) -> str:
    """Render any MiniML AST node (dispatch helper for messages/tests)."""
    if isinstance(node, Program):
        return pretty_program(node)
    if isinstance(node, Expr):
        return pretty_expr(node)
    if isinstance(node, Pattern):
        return pretty_pattern(node)
    if isinstance(node, TypeExpr):
        return pretty_type_expr(node)
    if isinstance(node, Binding):
        return _binding(node)
    if isinstance(node, MatchCase):
        return f"{pretty_pattern(node.pattern)} -> {pretty_expr(node.body, _LEVEL_CONTROL)}"
    return pretty_decl(node)
