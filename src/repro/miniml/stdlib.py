"""The MiniML standard environment.

Covers every library value the paper's examples and the synthetic student
corpus use: ``List`` combinators (``List.map``, ``List.combine``,
``List.filter``, ``List.mem``, ``List.nth`` ...), string/int conversions,
printing, references, options, and the built-in exceptions (including the
paper's ``Foo``, which the searcher uses as its always-well-typed wildcard
``raise Foo``).

Operators live here too: to the type-checker ``:=`` or ``+`` is just another
function looked up by name — exactly the property Section 2.2 exploits
("to the type-checker, ``:=`` is just another function ... but it can be
misused in ways worthy of special cases").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

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
    Type,
    arrows,
    monotype,
    t_list,
    t_option,
    t_ref,
)


class CtorInfo:
    """Everything the checker needs about one variant/exception constructor."""

    __slots__ = ("name", "vars", "arg", "result")

    def __init__(self, name: str, vars: List[TVar], arg: Optional[Type], result: Type):
        self.name = name
        self.vars = vars
        self.arg = arg
        self.result = result


class FieldInfo:
    """Everything the checker needs about one record field."""

    __slots__ = ("name", "record_name", "vars", "field_type", "record_type", "mutable", "all_fields")

    def __init__(
        self,
        name: str,
        record_name: str,
        vars: List[TVar],
        field_type: Type,
        record_type: Type,
        mutable: bool,
        all_fields: List[str],
    ):
        self.name = name
        self.record_name = record_name
        self.vars = vars
        self.field_type = field_type
        self.record_type = record_type
        self.mutable = mutable
        self.all_fields = all_fields


class TypeEnv:
    """Immutable-by-convention environment; ``child()`` makes cheap extensions."""

    def __init__(
        self,
        values: Optional[Dict[str, Scheme]] = None,
        parent: Optional["TypeEnv"] = None,
    ):
        self.values: Dict[str, Scheme] = values if values is not None else {}
        self.parent = parent
        # Constructor/field/type tables are only ever extended at top level,
        # so they live on the root environment and are shared via the chain.
        if parent is None:
            self.constructors: Dict[str, CtorInfo] = {}
            self.fields: Dict[str, FieldInfo] = {}
            self.type_arities: Dict[str, int] = {}
        else:
            self.constructors = parent.constructors
            self.fields = parent.fields
            self.type_arities = parent.type_arities

    def child(self) -> "TypeEnv":
        return TypeEnv({}, parent=self)

    def fork(self) -> "TypeEnv":
        """A child whose constructor/field/type tables are *copies*.

        Each inference pass forks the shared base environment so that
        ``type``/``exception`` declarations in one oracle call can never
        leak into the next — the searcher makes thousands of independent
        calls on mutated copies of one program.
        """
        env = TypeEnv({}, parent=self)
        env.constructors = dict(self.constructors)
        env.fields = dict(self.fields)
        env.type_arities = dict(self.type_arities)
        return env

    def bind(self, name: str, scheme: Scheme) -> None:
        self.values[name] = scheme

    def lookup(self, name: str) -> Optional[Scheme]:
        scope: Optional[TypeEnv] = self
        while scope is not None:
            scheme = scope.values.get(name)
            if scheme is not None:
                return scheme
            scope = scope.parent
        return None

    def lookup_ctor(self, name: str) -> Optional[CtorInfo]:
        return self.constructors.get(name)

    def lookup_field(self, name: str) -> Optional[FieldInfo]:
        return self.fields.get(name)


def _forall(n: int, build: Callable[..., Tuple[Optional[Type], Type]]) -> Scheme:
    """Helper for polymorphic signatures: ``_forall(2, lambda a, b: ...)``."""
    vars = [TVar(level=1) for _ in range(n)]
    body = build(*vars)
    return Scheme(vars, body)


def _poly(n: int, build: Callable[..., Type]) -> Scheme:
    vars = [TVar(level=1) for _ in range(n)]
    return Scheme(vars, build(*vars))


def _ctor(name: str, n_vars: int, build: Callable[..., Tuple[Optional[Type], Type]]) -> CtorInfo:
    vars = [TVar(level=1) for _ in range(n_vars)]
    arg, result = build(*vars)
    return CtorInfo(name, vars, arg, result)


#: Operator signatures.  ``=``/comparisons are polymorphic like OCaml's
#: structural operators; arithmetic is monomorphic on int (with ``+.`` etc.
#: on float), which is precisely what produces the paper's Figure 2 message.
OPERATOR_SCHEMES: Dict[str, Callable[[], Scheme]] = {
    "+": lambda: monotype(arrows(INT, INT, INT)),
    "-": lambda: monotype(arrows(INT, INT, INT)),
    "*": lambda: monotype(arrows(INT, INT, INT)),
    "/": lambda: monotype(arrows(INT, INT, INT)),
    "mod": lambda: monotype(arrows(INT, INT, INT)),
    "+.": lambda: monotype(arrows(FLOAT, FLOAT, FLOAT)),
    "-.": lambda: monotype(arrows(FLOAT, FLOAT, FLOAT)),
    "*.": lambda: monotype(arrows(FLOAT, FLOAT, FLOAT)),
    "/.": lambda: monotype(arrows(FLOAT, FLOAT, FLOAT)),
    "^": lambda: monotype(arrows(STRING, STRING, STRING)),
    "@": lambda: _poly(1, lambda a: arrows(t_list(a), t_list(a), t_list(a))),
    "=": lambda: _poly(1, lambda a: arrows(a, a, BOOL)),
    "==": lambda: _poly(1, lambda a: arrows(a, a, BOOL)),
    "!=": lambda: _poly(1, lambda a: arrows(a, a, BOOL)),
    "<>": lambda: _poly(1, lambda a: arrows(a, a, BOOL)),
    "<": lambda: _poly(1, lambda a: arrows(a, a, BOOL)),
    ">": lambda: _poly(1, lambda a: arrows(a, a, BOOL)),
    "<=": lambda: _poly(1, lambda a: arrows(a, a, BOOL)),
    ">=": lambda: _poly(1, lambda a: arrows(a, a, BOOL)),
    "&&": lambda: monotype(arrows(BOOL, BOOL, BOOL)),
    "||": lambda: monotype(arrows(BOOL, BOOL, BOOL)),
    ":=": lambda: _poly(1, lambda a: arrows(t_ref(a), a, UNIT)),
}


def operator_scheme(op: str) -> Optional[Scheme]:
    """A *fresh* scheme for an infix operator (fresh so instantiation of
    polymorphic operators never shares variables across uses)."""
    build = OPERATOR_SCHEMES.get(op)
    return build() if build is not None else None


def default_env() -> TypeEnv:
    """Build the standard top-level environment (fresh tables each call)."""
    env = TypeEnv()
    bind = env.bind

    # -- core values ------------------------------------------------------
    bind("not", monotype(arrows(BOOL, BOOL)))
    bind("abs", monotype(arrows(INT, INT)))
    bind("succ", monotype(arrows(INT, INT)))
    bind("pred", monotype(arrows(INT, INT)))
    bind("max", _poly(1, lambda a: arrows(a, a, a)))
    bind("min", _poly(1, lambda a: arrows(a, a, a)))
    bind("fst", _poly(2, lambda a, b: arrows(TTuple([a, b]), a)))
    bind("snd", _poly(2, lambda a, b: arrows(TTuple([a, b]), b)))
    bind("ignore", _poly(1, lambda a: arrows(a, UNIT)))
    bind("ref", _poly(1, lambda a: arrows(a, t_ref(a))))
    bind("incr", monotype(arrows(t_ref(INT), UNIT)))
    bind("decr", monotype(arrows(t_ref(INT), UNIT)))
    bind("float_of_int", monotype(arrows(INT, FLOAT)))
    bind("int_of_float", monotype(arrows(FLOAT, INT)))
    bind("string_of_int", monotype(arrows(INT, STRING)))
    bind("int_of_string", monotype(arrows(STRING, INT)))
    bind("string_of_float", monotype(arrows(FLOAT, STRING)))
    bind("string_of_bool", monotype(arrows(BOOL, STRING)))
    bind("print_string", monotype(arrows(STRING, UNIT)))
    bind("print_int", monotype(arrows(INT, UNIT)))
    bind("print_endline", monotype(arrows(STRING, UNIT)))
    bind("print_newline", monotype(arrows(UNIT, UNIT)))
    bind("failwith", _poly(1, lambda a: arrows(STRING, a)))
    bind("invalid_arg", _poly(1, lambda a: arrows(STRING, a)))
    bind("compare", _poly(1, lambda a: arrows(a, a, INT)))
    bind("exit", _poly(1, lambda a: arrows(INT, a)))

    # -- List -------------------------------------------------------------
    bind("List.length", _poly(1, lambda a: arrows(t_list(a), INT)))
    bind("List.hd", _poly(1, lambda a: arrows(t_list(a), a)))
    bind("List.tl", _poly(1, lambda a: arrows(t_list(a), t_list(a))))
    bind("List.nth", _poly(1, lambda a: arrows(t_list(a), INT, a)))
    bind("List.rev", _poly(1, lambda a: arrows(t_list(a), t_list(a))))
    bind("List.append", _poly(1, lambda a: arrows(t_list(a), t_list(a), t_list(a))))
    bind("List.concat", _poly(1, lambda a: arrows(t_list(t_list(a)), t_list(a))))
    bind("List.flatten", _poly(1, lambda a: arrows(t_list(t_list(a)), t_list(a))))
    bind("List.map", _poly(2, lambda a, b: arrows(TArrow(a, b), t_list(a), t_list(b))))
    bind("List.mapi", _poly(2, lambda a, b: arrows(arrows(INT, a, b), t_list(a), t_list(b))))
    bind("List.iter", _poly(1, lambda a: arrows(TArrow(a, UNIT), t_list(a), UNIT)))
    bind(
        "List.fold_left",
        _poly(2, lambda a, b: arrows(arrows(a, b, a), a, t_list(b), a)),
    )
    bind(
        "List.fold_right",
        _poly(2, lambda a, b: arrows(arrows(a, b, b), t_list(a), b, b)),
    )
    bind("List.mem", _poly(1, lambda a: arrows(a, t_list(a), BOOL)))
    bind("List.filter", _poly(1, lambda a: arrows(TArrow(a, BOOL), t_list(a), t_list(a))))
    bind("List.exists", _poly(1, lambda a: arrows(TArrow(a, BOOL), t_list(a), BOOL)))
    bind("List.for_all", _poly(1, lambda a: arrows(TArrow(a, BOOL), t_list(a), BOOL)))
    bind("List.find", _poly(1, lambda a: arrows(TArrow(a, BOOL), t_list(a), a)))
    bind(
        "List.combine",
        _poly(2, lambda a, b: arrows(t_list(a), t_list(b), t_list(TTuple([a, b])))),
    )
    bind(
        "List.split",
        _poly(2, lambda a, b: arrows(t_list(TTuple([a, b])), TTuple([t_list(a), t_list(b)]))),
    )
    bind("List.assoc", _poly(2, lambda a, b: arrows(a, t_list(TTuple([a, b])), b)))
    bind("List.mem_assoc", _poly(2, lambda a, b: arrows(a, t_list(TTuple([a, b])), BOOL)))
    bind("List.sort", _poly(1, lambda a: arrows(arrows(a, a, INT), t_list(a), t_list(a))))
    bind("List.rev_append", _poly(1, lambda a: arrows(t_list(a), t_list(a), t_list(a))))
    bind("List.init", _poly(1, lambda a: arrows(INT, TArrow(INT, a), t_list(a))))
    bind("List.partition", _poly(1, lambda a: arrows(TArrow(a, BOOL), t_list(a), TTuple([t_list(a), t_list(a)]))))

    # -- String -------------------------------------------------------------
    bind("String.length", monotype(arrows(STRING, INT)))
    bind("String.sub", monotype(arrows(STRING, INT, INT, STRING)))
    bind("String.concat", monotype(arrows(STRING, t_list(STRING), STRING)))
    bind("String.uppercase", monotype(arrows(STRING, STRING)))
    bind("String.lowercase", monotype(arrows(STRING, STRING)))
    bind("String.make", monotype(arrows(INT, STRING, STRING)))

    # -- Hashtbl (small slice, enough for corpus realism) -------------------
    bind("Hashtbl.create", _poly(2, lambda a, b: arrows(INT, TCon("hashtbl", [a, b]))))
    bind(
        "Hashtbl.add",
        _poly(2, lambda a, b: arrows(TCon("hashtbl", [a, b]), a, b, UNIT)),
    )
    bind(
        "Hashtbl.find",
        _poly(2, lambda a, b: arrows(TCon("hashtbl", [a, b]), a, b)),
    )
    bind(
        "Hashtbl.mem",
        _poly(2, lambda a, b: arrows(TCon("hashtbl", [a, b]), a, BOOL)),
    )

    # -- the searcher's adaptation helper (Section 2.3) --------------------
    # ``let adapt x = raise Foo`` has type 'a -> 'b; registering it in the
    # stdlib (under a name no student program uses) lets the searcher wrap
    # expressions without touching the checker.
    bind("__seminal_adapt", _poly(2, lambda a, b: arrows(a, b)))

    # -- constructors -------------------------------------------------------
    env.constructors["None"] = _ctor("None", 1, lambda a: (None, t_option(a)))
    env.constructors["Some"] = _ctor("Some", 1, lambda a: (a, t_option(a)))
    env.constructors["Foo"] = CtorInfo("Foo", [], None, EXN)
    env.constructors["Not_found"] = CtorInfo("Not_found", [], None, EXN)
    env.constructors["Exit"] = CtorInfo("Exit", [], None, EXN)
    env.constructors["Failure"] = CtorInfo("Failure", [], STRING, EXN)
    env.constructors["Invalid_argument"] = CtorInfo("Invalid_argument", [], STRING, EXN)

    # -- builtin type arities (for validating type declarations) ------------
    env.type_arities.update(
        {
            "int": 0,
            "float": 0,
            "bool": 0,
            "string": 0,
            "unit": 0,
            "exn": 0,
            "list": 1,
            "option": 1,
            "ref": 1,
            "hashtbl": 2,
        }
    )
    return env
