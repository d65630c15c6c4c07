"""Recursive-descent parser for MiniML, precedence climbing for infix operators.

The grammar is the Caml fragment the paper's programs use.  Operator
precedence (loosest to tightest) follows OCaml closely enough that every
example in the paper parses with the intended shape:

``;`` < ``let/fun/function/match/if/raise`` < ``,`` < ``:=``/``<-`` <
``||`` < ``&&`` < comparisons < ``@``/``^`` < ``::`` < additive <
multiplicative < unary < application < field access < atoms.

The infix levels from ``:=`` to multiplicative are one loop over the
table :data:`_BINARY` rather than a function per level, so an operand
costs a few frames however many levels sit above it.

Curried applications are flattened into one :class:`EApp` node (``f a b c``
has three argument children), which is the shape the triage algorithm of
Section 2.4 iterates over.
"""

from __future__ import annotations

from typing import List, Optional

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
    FieldDecl,
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
    RecordField,
    TEArrow,
    TEName,
    TETuple,
    TEVar,
    TypeExpr,
    VariantCase,
)
from .lexer import scan
from .tokens import Token, TokenKind


class ParseError(Exception):
    """Raised when the token stream does not match the grammar."""

    def __init__(self, message: str, token: Token):
        span = token.span
        super().__init__(f"{span.start_line}:{span.start_col}: {message} (at {token.text!r})")
        self.message = message
        self.token = token


_EOF = TokenKind.EOF
_CHAR = TokenKind.CHAR
_INT = TokenKind.INT
_FLOAT = TokenKind.FLOAT
_STRING = TokenKind.STRING
_LIDENT = TokenKind.LIDENT
_UIDENT = TokenKind.UIDENT

#: Infix operators, loosest level first: text -> (level, right-associative).
_BINARY = {
    text: (level, right)
    for level, (texts, right) in enumerate(
        [
            ((":=", "<-"), True),
            (("||",), True),
            (("&&",), True),
            (("=", "==", "!=", "<>", "<", ">", "<=", ">="), False),
            (("@", "^"), True),
            (("::",), True),
            (("+", "-", "+.", "-."), False),
            (("*", "/", "*.", "/.", "mod"), False),
        ]
    )
    for text in texts
}

# The operators and keywords that begin an atomic expression (which is how
# an application's next argument is found) or an atomic pattern.  Every
# literal and identifier begins both.
_ATOM_WORDS = frozenset({"(", "[", "{", "!", "true", "false", "begin"})
_PATTERN_ATOM_WORDS = frozenset({"(", "[", "_", "true", "false"})


def _starts_pattern_atom(tag) -> bool:
    if tag.__class__ is str:
        return tag in _PATTERN_ATOM_WORDS
    return tag is not _EOF and tag is not _CHAR


class Parser:
    """One-token-lookahead recursive-descent parser.

    It reads the columns of a :class:`~repro.miniml.lexer.TokenStream`:
    ``tok`` is the current token's tag, an operator's or keyword's text or
    another token's kind, so most decisions are one comparison.  Token
    positions are token indices; a :class:`Token` is built only for a
    :class:`ParseError`.
    """

    def __init__(self, source: str):
        self.stream = scan(source)
        self.tags = self.stream.tags
        self.texts = self.stream.texts
        self.index = 0
        #: The current token's tag, ``tags[index]``; only :meth:`_next` moves it.
        self.tok = self.tags[0]

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------

    def token(self, index: Optional[int] = None) -> Token:
        """The token at ``index``, by default the current one."""
        return self.stream.token(self.index if index is None else index)

    def _next(self) -> int:
        """Consume the current token; return its index."""
        index = self.index
        if self.tok is not _EOF:
            self.index = index + 1
            self.tok = self.tags[index + 1]
        return index

    def _expect_op(self, text: str) -> int:
        if self.tok != text:
            raise ParseError(f"expected {text!r}", self.token())
        return self._next()

    def _expect_kw(self, text: str) -> int:
        if self.tok != text:
            raise ParseError(f"expected keyword {text!r}", self.token())
        return self._next()

    def _eat(self, text: str) -> bool:
        """Consume the current token if it is the operator or keyword ``text``."""
        if self.tok == text:
            self._next()
            return True
        return False

    def _name(self) -> str:
        """Consume the current token; return its text."""
        return self.texts[self._next()]

    def _finish(self, node, start: int):
        """Give ``node`` the span from the token at ``start`` to the end of
        the last consumed token."""
        node.span = self.stream.span(start, self.index - 1)
        return node

    def _leaf(self, node):
        """Consume the current token as the whole of ``node``."""
        index = self.index
        node.span = self.stream.span(index, index)
        self.index = index + 1
        self.tok = self.tags[index + 1]
        return node

    # ------------------------------------------------------------------
    # Programs and declarations
    # ------------------------------------------------------------------

    def parse_program(self) -> Program:
        start = self.index
        decls = []
        while self.tok is not _EOF:
            while self._eat(";;"):
                pass
            if self.tok is _EOF:
                break
            decls.append(self.parse_decl())
        return self._finish(Program(decls), start)

    def parse_decl(self):
        start = self.index
        tok = self.tok
        if tok == "let":
            self._next()
            rec = self._eat("rec")
            bindings = self._parse_bindings()
            if self._eat("in"):
                # A top-level ``let ... in e`` is an expression statement.
                body = self.parse_expr()
                let_expr = self._finish(ELet(rec, bindings, body), start)
                return self._finish(DExpr(let_expr), start)
            return self._finish(DLet(rec, bindings), start)
        if tok == "type":
            return self._parse_type_decl()
        if tok == "exception":
            self._next()
            if self.tok is not _UIDENT:
                raise ParseError("expected exception name", self.token())
            name = self._name()
            arg = self.parse_type_expr() if self._eat("of") else None
            return self._finish(DException(name, arg), start)
        expr = self.parse_expr()
        return self._finish(DExpr(expr), start)

    def _parse_type_decl(self) -> DType:
        start = self._expect_kw("type")
        params: List[str] = []
        if self.tok is _CHAR:  # a type variable like 'a
            params.append(self._name().lstrip("'"))
        elif self._eat("("):
            while True:
                if self.tok is not _CHAR:
                    raise ParseError("expected type variable", self.token())
                params.append(self._name().lstrip("'"))
                if not self._eat(","):
                    break
            self._expect_op(")")
        if self.tok is not _LIDENT:
            raise ParseError("expected type name", self.token())
        name = self._name()
        self._expect_op("=")
        if self.tok == "{":
            return self._finish(DType(name, params, record_fields=self._parse_record_decl()), start)
        variants = self._parse_variants()
        return self._finish(DType(name, params, variants=variants), start)

    def _parse_record_decl(self) -> List[FieldDecl]:
        self._expect_op("{")
        fields = []
        while True:
            fstart = self.index
            mutable = self._eat("mutable")
            if self.tok is not _LIDENT:
                raise ParseError("expected field name", self.token())
            fname = self._name()
            self._expect_op(":")
            ftype = self.parse_type_expr()
            fields.append(self._finish(FieldDecl(fname, ftype, mutable), fstart))
            if not self._eat(";"):
                break
            if self.tok == "}":
                break
        self._expect_op("}")
        return fields

    def _parse_variants(self) -> List[VariantCase]:
        self._eat("|")
        variants = []
        while True:
            vstart = self.index
            if self.tok is not _UIDENT:
                raise ParseError("expected constructor name", self.token())
            cname = self._name()
            arg = self.parse_type_expr() if self._eat("of") else None
            variants.append(self._finish(VariantCase(cname, arg), vstart))
            if not self._eat("|"):
                break
        return variants

    def _parse_bindings(self) -> List[Binding]:
        bindings = [self._parse_binding()]
        while self._eat("and"):
            bindings.append(self._parse_binding())
        return bindings

    def _parse_binding(self) -> Binding:
        start = self.index
        # Collect pattern atoms until '='.  One atom: plain binding.
        # Several atoms whose first is a variable: function-definition sugar.
        atoms = [self.parse_pattern_atom()]
        while _starts_pattern_atom(self.tok):
            atoms.append(self.parse_pattern_atom())
        self._expect_op("=")
        expr = self.parse_expr()
        if len(atoms) == 1:
            # ``let (x, y) = e`` or ``let x = e``; allow full tuple patterns.
            return self._finish(Binding(atoms[0], expr), start)
        head = atoms[0]
        if not isinstance(head, PVar):
            raise ParseError("function definition must be named by a variable", self.token(start))
        fun = EFun(atoms[1:], expr)
        fun.span = expr.span
        return self._finish(
            Binding(head, fun, fun_name=head.name, n_sugar_params=len(atoms) - 1), start
        )

    # ------------------------------------------------------------------
    # Expressions (loosest first)
    # ------------------------------------------------------------------

    def parse_expr(self) -> Expr:
        start = self.index
        expr = self._parse_control()
        if self.tok == ";":
            self._next()
            rest = self.parse_expr()  # right-associative, like OCaml
            return self._finish(ESeq(expr, rest), start)
        return expr

    def _parse_control(self) -> Expr:
        tok = self.tok
        if tok == "let":
            return self._parse_let_expr()
        if tok == "fun":
            return self._parse_fun()
        if tok == "function":
            return self._parse_function()
        if tok == "match":
            return self._parse_match()
        if tok == "try":
            return self._parse_try()
        if tok == "if":
            return self._parse_if()
        return self._parse_tuple_level()

    def _parse_let_expr(self) -> ELet:
        start = self._expect_kw("let")
        rec = self._eat("rec")
        bindings = self._parse_bindings()
        self._expect_kw("in")
        body = self.parse_expr()
        return self._finish(ELet(rec, bindings, body), start)

    def _parse_fun(self) -> EFun:
        start = self._expect_kw("fun")
        params = [self.parse_pattern_atom()]
        while _starts_pattern_atom(self.tok):
            params.append(self.parse_pattern_atom())
        self._expect_op("->")
        body = self.parse_expr()
        return self._finish(EFun(params, body), start)

    def _parse_function(self) -> EFunction:
        start = self._expect_kw("function")
        return self._finish(EFunction(self._parse_cases()), start)

    def _parse_match(self) -> EMatch:
        start = self._expect_kw("match")
        scrutinee = self.parse_expr()
        self._expect_kw("with")
        return self._finish(EMatch(scrutinee, self._parse_cases()), start)

    def _parse_try(self) -> ETry:
        start = self._expect_kw("try")
        body = self.parse_expr()
        self._expect_kw("with")
        return self._finish(ETry(body, self._parse_cases()), start)

    def _parse_cases(self) -> List[MatchCase]:
        self._eat("|")
        cases = []
        while True:
            cstart = self.index
            pattern = self.parse_pattern()
            if self.tok == "when":
                raise ParseError("pattern guards ('when') are not supported in MiniML", self.token())
            self._expect_op("->")
            body = self.parse_expr()
            cases.append(self._finish(MatchCase(pattern, body), cstart))
            if not self._eat("|"):
                break
        return cases

    def _parse_if(self) -> EIf:
        start = self._expect_kw("if")
        cond = self.parse_expr()
        self._expect_kw("then")
        then_branch = self._parse_control()
        else_branch = self._parse_control() if self._eat("else") else None
        return self._finish(EIf(cond, then_branch, else_branch), start)

    def _parse_tuple_level(self) -> Expr:
        start = self.index
        first = self._parse_binary(0)
        if self.tok != ",":
            return first
        items = [first]
        while self._eat(","):
            items.append(self._parse_binary(0))
        return self._finish(ETuple(items), start)

    def _parse_binary(self, min_level: int) -> Expr:
        """An operand, then every infix operator of level ``min_level`` or
        tighter.  A right-associative operator's right side takes its own
        level, a left-associative one's only the tighter levels."""
        start = self.index
        left = self._parse_unary() if self.tok == "-" else self._parse_app()
        while True:
            entry = _BINARY.get(self.tok)
            if entry is None or entry[0] < min_level:
                return left
            level, right_assoc = entry
            op = self.texts[self._next()]
            right = self._parse_binary(level if right_assoc else level + 1)
            if op == "::":
                node = ECons(left, right)
            elif op == "<-":
                if not isinstance(left, EFieldGet):
                    raise ParseError("'<-' requires a record field on the left", self.token(start))
                node = EFieldSet(left.record, left.field_name, right)
            else:
                node = EBinop(op, left, right)
            left = self._finish(node, start)

    def _parse_unary(self) -> Expr:
        if self.tok == "-":
            start = self._next()
            operand = self._parse_unary()
            # Fold negation into integer/float literals for natural printing.
            if isinstance(operand, EConst) and operand.kind in ("int", "float"):
                node = EConst(-operand.value, operand.kind)  # type: ignore[operator]
                return self._finish(node, start)
            return self._finish(EUnop("-", operand), start)
        return self._parse_app()

    def _parse_app(self) -> Expr:
        start = self.index
        func = self._parse_atom()
        args: List[Expr] = []
        while True:
            tok = self.tok
            if tok.__class__ is str:
                if tok not in _ATOM_WORDS:
                    break
            elif tok is _EOF or tok is _CHAR:
                break
            args.append(self._parse_atom())
        if not args:
            return func
        if isinstance(func, EConstructor) and func.arg is None and len(args) == 1:
            # Constructor application: ``Some x`` / ``For (a, b)``.
            return self._finish(EConstructor(func.name, args[0]), start)
        return self._finish(EApp(func, args), start)

    def _parse_atom(self) -> Expr:
        """An atom and the field accesses that follow it (``r.f.g``)."""
        start = self.index
        tok = self.tok
        if tok is _LIDENT:
            expr = self._leaf(EVar(self.texts[start]))
        elif tok is _INT:
            expr = self._leaf(EConst(int(self.texts[start]), "int"))
        elif tok == "(":
            self._next()
            if self._eat(")"):
                expr = self._finish(EConst(None, "unit"), start)
            else:
                expr = self.parse_expr()
                if self._eat(":"):
                    annot_type = self.parse_type_expr()
                    self._expect_op(")")
                    expr = self._finish(EAnnot(expr, annot_type), start)
                else:
                    self._expect_op(")")
                    self._finish(expr, start)
        elif tok is _UIDENT:
            expr = self._leaf(EConstructor(self.texts[start]))
        elif tok is _STRING:
            expr = self._leaf(EConst(self.texts[start], "string"))
        elif tok is _FLOAT:
            expr = self._leaf(EConst(float(self.texts[start]), "float"))
        elif tok == "true" or tok == "false":
            expr = self._leaf(EConst(tok == "true", "bool"))
        elif tok == "[":
            expr = self._parse_list()
        elif tok == "raise":
            # ``raise`` behaves like the ordinary function exn -> 'a it is in
            # OCaml, so it must be usable inside operator expressions
            # (``1 + raise Foo``) — the search wildcard depends on this.
            self._next()
            exn = self._parse_app()
            expr = self._finish(ERaise(exn), start)
        elif tok == "!":
            self._next()
            operand = self._parse_atom()
            expr = self._finish(EUnop("!", operand), start)
        elif tok == "{":
            expr = self._parse_record()
        elif tok == "begin":
            self._next()
            expr = self.parse_expr()
            self._expect_kw("end")
        else:
            raise ParseError("expected an expression", self.token())
        while self.tok == "." and self.tags[self.index + 1] is _LIDENT:
            self._next()
            expr = self._finish(EFieldGet(expr, self._name()), start)
        return expr

    def _parse_list(self) -> EList:
        start = self._expect_op("[")
        if self._eat("]"):
            return self._finish(EList([]), start)
        items = [self._parse_tuple_level()]
        while self._eat(";"):
            if self.tok == "]":
                break
            items.append(self._parse_tuple_level())
        self._expect_op("]")
        return self._finish(EList(items), start)

    def _parse_record(self) -> ERecord:
        start = self._expect_op("{")
        fields = []
        while True:
            fstart = self.index
            if self.tok is not _LIDENT:
                raise ParseError("expected record field name", self.token())
            fname = self._name()
            self._expect_op("=")
            fexpr = self._parse_tuple_level()
            fields.append(self._finish(RecordField(fname, fexpr), fstart))
            if not self._eat(";"):
                break
            if self.tok == "}":
                break
        self._expect_op("}")
        return self._finish(ERecord(fields), start)

    # ------------------------------------------------------------------
    # Patterns
    # ------------------------------------------------------------------

    def parse_pattern(self) -> Pattern:
        start = self.index
        first = self._parse_pattern_cons()
        if self.tok != ",":
            return first
        items = [first]
        while self._eat(","):
            items.append(self._parse_pattern_cons())
        return self._finish(PTuple(items), start)

    def _parse_pattern_cons(self) -> Pattern:
        start = self.index
        if self.tok is _UIDENT:
            name = self._name()
            arg = self.parse_pattern_atom() if _starts_pattern_atom(self.tok) else None
            head = self._finish(PConstructor(name, arg), start)
        else:
            head = self.parse_pattern_atom()
        if self.tok == "::":
            self._next()
            tail = self._parse_pattern_cons()
            return self._finish(PCons(head, tail), start)
        return head

    def parse_pattern_atom(self) -> Pattern:
        start = self.index
        tok = self.tok
        if tok is _LIDENT:
            return self._leaf(PVar(self.texts[start]))
        if tok == "_":
            return self._leaf(PWild())
        if tok == "(":
            self._next()
            if self._eat(")"):
                return self._finish(PConst(None, "unit"), start)
            inner = self.parse_pattern()
            self._expect_op(")")
            self._finish(inner, start)
            return inner
        if tok is _INT:
            return self._leaf(PConst(int(self.texts[start]), "int"))
        if tok is _UIDENT:
            return self._leaf(PConstructor(self.texts[start]))
        if tok is _STRING:
            return self._leaf(PConst(self.texts[start], "string"))
        if tok is _FLOAT:
            return self._leaf(PConst(float(self.texts[start]), "float"))
        if tok == "true" or tok == "false":
            return self._leaf(PConst(tok == "true", "bool"))
        if tok == "-" and self.tags[start + 1] in (_INT, _FLOAT):
            self._next()
            num = self._next()
            if self.tags[num] is _INT:
                return self._finish(PConst(-int(self.texts[num]), "int"), start)
            return self._finish(PConst(-float(self.texts[num]), "float"), start)
        if tok == "[":
            self._next()
            if self._eat("]"):
                return self._finish(PList([]), start)
            items = [self.parse_pattern()]
            while self._eat(";"):
                if self.tok == "]":
                    break
                items.append(self.parse_pattern())
            self._expect_op("]")
            return self._finish(PList(items), start)
        raise ParseError("expected a pattern", self.token())

    # ------------------------------------------------------------------
    # Type expressions
    # ------------------------------------------------------------------

    def parse_type_expr(self) -> TypeExpr:
        start = self.index
        left = self._parse_type_tuple()
        if self._eat("->"):
            right = self.parse_type_expr()
            return self._finish(TEArrow(left, right), start)
        return left

    def _parse_type_tuple(self) -> TypeExpr:
        start = self.index
        first = self._parse_type_app()
        if self.tok != "*":
            return first
        items = [first]
        while self._eat("*"):
            items.append(self._parse_type_app())
        return self._finish(TETuple(items), start)

    def _parse_type_app(self) -> TypeExpr:
        start = self.index
        base = self._parse_type_atom()
        # Postfix constructors: ``int list``, ``move list list`` ...
        while self.tok is _LIDENT:
            base = self._finish(TEName(self._name(), [base]), start)
        return base

    def _parse_type_atom(self) -> TypeExpr:
        start = self.index
        tok = self.tok
        if tok is _CHAR:  # a 'a-style type variable
            return self._leaf(TEVar(self.texts[start].lstrip("'")))
        if tok is _LIDENT:
            return self._leaf(TEName(self.texts[start], []))
        if tok == "(":
            self._next()
            first = self.parse_type_expr()
            if self.tok == ",":
                args = [first]
                while self._eat(","):
                    args.append(self.parse_type_expr())
                self._expect_op(")")
                if self.tok is not _LIDENT:
                    raise ParseError("expected type constructor after argument list", self.token())
                return self._finish(TEName(self._name(), args), start)
            self._expect_op(")")
            # Allow ``(move list) list`` style postfix application.
            while self.tok is _LIDENT:
                first = self._finish(TEName(self._name(), [first]), start)
            return first
        raise ParseError("expected a type", self.token())


def parse_program(source: str) -> Program:
    """Parse a whole MiniML source file into a :class:`Program`.

    Programs nested deeper than the parser's stack headroom are rejected
    with a :class:`ParseError` rather than leaking the interpreter's
    :class:`RecursionError`.
    """
    parser = Parser(source)
    try:
        return parser.parse_program()
    except RecursionError:
        raise ParseError(
            "program is nested too deeply to parse", parser.token()
        ) from None


def parse_expr(source: str) -> Expr:
    """Parse a single MiniML expression (convenience for tests/examples)."""
    parser = Parser(source)
    expr = parser.parse_expr()
    if parser.tok is not _EOF:
        raise ParseError("trailing input after expression", parser.token())
    return expr
