"""Token definitions for the MiniML lexer.

MiniML is the Caml subset used throughout the paper's examples: core ML with
let-polymorphism, curried functions, tuples, lists, variants, records,
references, and pattern matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Any

from repro.tree import Span


class TokenKind(Enum):
    INT = auto()
    FLOAT = auto()
    STRING = auto()
    CHAR = auto()
    LIDENT = auto()  # lowercase identifier, possibly with module path: List.map
    UIDENT = auto()  # capitalized identifier (constructors, modules)
    KEYWORD = auto()
    OP = auto()  # operators and punctuation
    EOF = auto()


KEYWORDS = frozenset(
    {
        "let",
        "rec",
        "in",
        "fun",
        "function",
        "match",
        "with",
        "if",
        "then",
        "else",
        "true",
        "false",
        "type",
        "of",
        "mutable",
        "raise",
        "begin",
        "end",
        "and",
        "exception",
        "mod",
        "when",
        "try",
    }
)

# Multi-character operators, longest first so the lexer can use greedy match.
OPERATORS = [
    "->",
    "<-",
    ":=",
    "::",
    ";;",
    "==",
    "!=",
    "<>",
    "<=",
    ">=",
    "&&",
    "||",
    "+.",
    "-.",
    "*.",
    "/.",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ";",
    ":",
    "|",
    "_",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "^",
    "@",
    "!",
    ".",
    "'",
]


@dataclass(eq=False)
class Token:
    """One lexical token with its source span."""

    kind: TokenKind
    text: str
    value: Any
    span: Span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r})"
