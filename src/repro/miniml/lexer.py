"""Master-regex lexer for MiniML.

Produces a flat token list with accurate spans; supports nested ``(* ... *)``
comments, string escapes, int/float literals, type variables (``'a``), and
module-qualified lowercase identifiers (``List.map`` lexes as one LIDENT so
the parser treats stdlib functions as atomic names, matching how the paper's
examples read).

One compiled pattern, :data:`_TOKEN`, matches a token together with the
blanks before it, so most tokens cost one ``match`` call.
Only nested comments and string bodies are scanned past by hand.  Lines
are counted at newlines, comments and strings; a column is the offset from
the start of its line, in code points.

:func:`scan` returns the tokens as columns of plain values (a
:class:`TokenStream`), which is what the parser reads; :func:`tokenize`
builds a :class:`Token` per token from them.

The pattern's classes are chosen to agree exactly with the ``str``
predicates that define the token classes: ``\\w`` is ``isalnum()`` or
``_`` and ``\\d`` is ``isdecimal()``.  An identifier's first character
must be ``isalpha()``, which no regex class expresses (``[^\\W\\d_]``
also takes ``²`` and ``½``), so that one is checked in Python.
"""

from __future__ import annotations

import re
from typing import List

from repro.tree import Span

from .tokens import KEYWORDS, OPERATORS, Token, TokenKind


class LexError(Exception):
    """Raised on malformed input (unterminated string/comment, bad char)."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


#: ``OPERATORS`` longest first (as the list is), the one-character ones
#: as a class: the first operator of the list that the source starts with.
_OPERATOR = "|".join(
    [re.escape(op) for op in sorted(OPERATORS, key=len, reverse=True) if len(op) > 1]
    + ["[" + "".join(re.escape(op) for op in OPERATORS if len(op) == 1) + "]"]
)
#: Blanks, then one token.  Alternatives are tried in order: ``_x`` before
#: the ``_`` operator, ``(*`` before ``(``, and a quote before the ``'``
#: operator, which therefore never matches.  ``other`` takes any character
#: no token starts with, so that every character but a blank starts a match.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<lower>[a-z][\w']*|_\w[\w']*)"
    r"|(?P<comment>\(\*)"
    r"|(?P<quote>'\w*)"
    r"|(?P<op>" + _OPERATOR + r")"
    r"|(?P<number>\d+(?:\.\d*)?)"
    r"|(?P<newline>\n[ \t\r\n]*)"
    r"|(?P<upper>[A-Z][\w']*)"
    r"|(?P<string>\")"
    r"|(?P<word>[^\W\d_][\w']*)"
    r"|(?P<other>[^ \t\r])"
    r")"
)
_IDENT_TAIL = re.compile(r"[\w']*")
_COMMENT_DELIMITER = re.compile(r"\(\*|\*\)")
_STRING_STOP = re.compile(r'["\\]')
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "r": "\r"}

_INT = TokenKind.INT
_FLOAT = TokenKind.FLOAT
_STRING = TokenKind.STRING
_CHAR = TokenKind.CHAR
_LIDENT = TokenKind.LIDENT
_UIDENT = TokenKind.UIDENT
_EOF = TokenKind.EOF


class TokenStream:
    """The tokens of one source, column by column.

    Token ``i`` is ``tags[i]``, ``texts[i]`` and the six fields of its
    :class:`Span`, in order, at ``spans[6 * i : 6 * i + 6]`` (read them
    through :meth:`span`).  A tag is the
    token's text for an operator or a keyword and its :class:`TokenKind`
    otherwise: what a grammar branches on.  Plain values rather than a
    :class:`Token` and a :class:`Span` per token keep the tokens of a long
    file from being thousands of live objects that the garbage collector
    traces while the file is parsed.
    """

    __slots__ = ("tags", "texts", "spans")

    def __init__(self) -> None:
        self.tags: list = []
        self.texts: List[str] = []
        self.spans: List[int] = []

    def __len__(self) -> int:
        return len(self.tags)

    def span(self, first: int, last: int) -> Span:
        """From the start of token ``first`` to the end of token ``last``."""
        spans = self.spans
        s = 6 * first
        e = 6 * last
        return Span(spans[s], spans[s + 1], spans[e + 2], spans[e + 3], spans[s + 4], spans[e + 5])

    def token(self, i: int) -> Token:
        """Token ``i`` as a :class:`Token`."""
        tag = self.tags[i]
        text = self.texts[i]
        value = text
        if tag.__class__ is str:
            kind = TokenKind.KEYWORD if tag in KEYWORDS else TokenKind.OP
        else:
            kind = tag
            if tag is _INT:
                value = int(text)
            elif tag is _FLOAT:
                value = float(text)
            elif tag is _EOF:
                value = None
        return Token(kind, text, value, self.span(i, i))


def _position(source: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset``."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def _capitalized(source: str, text: str, end: int) -> tuple[TokenKind, str, int]:
    """A capitalized identifier ending at ``end``: a UIDENT, or a
    module-qualified LIDENT such as ``List.map`` when a dot and a
    lowercase letter or ``_`` follow it."""
    after = source[end + 1 : end + 2]
    if source.startswith(".", end) and (after.islower() or after == "_"):
        tail = _IDENT_TAIL.match(source, end + 1).end()
        return _LIDENT, text + "." + source[end + 1 : tail], tail
    return _UIDENT, text, end


def _comment_end(source: str, start: int) -> int:
    """The offset just past the comment that opens at ``start``."""
    depth = 0
    pos = start
    while True:
        m = _COMMENT_DELIMITER.search(source, pos)
        if m is None:
            raise LexError("unterminated comment", *_position(source, start))
        pos = m.end()
        if m.group() == "(*":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return pos


def _string_end(source: str, start: int) -> tuple[str, int]:
    """The value of the string literal that opens at ``start`` and the
    offset just past its closing quote."""
    chars: List[str] = []
    pos = start + 1
    while True:
        m = _STRING_STOP.search(source, pos)
        if m is None:
            raise LexError("unterminated string literal", *_position(source, start))
        stop = m.start()
        chars.append(source[pos:stop])
        if source[stop] == '"':
            return "".join(chars), stop + 1
        esc = source[stop + 1 : stop + 2]
        if esc not in _ESCAPES:
            raise LexError(f"bad escape \\{esc}", *_position(source, stop + 1))
        chars.append(_ESCAPES[esc])
        pos = stop + 2


def scan(source: str) -> TokenStream:
    """Lex ``source`` into a :class:`TokenStream` ending with an EOF token."""
    stream = TokenStream()
    add_tag = stream.tags.append
    add_text = stream.texts.append
    add_span = stream.spans.extend
    match = _TOKEN.match
    line = 1
    line_start = 0
    pos = 0
    # Every character but a blank starts a match, so there is none only
    # where nothing but blanks is left.
    while True:
        m = match(source, pos)
        if m is None:
            break
        group = m.lastgroup
        text = m.group(group)
        pos = m.end()
        start = pos - len(text)
        col = start - line_start + 1
        if group == "lower":
            add_tag(text if text in KEYWORDS else _LIDENT)
        elif group == "op":
            add_tag(text)
        elif group == "newline":
            line += text.count("\n")
            line_start = source.rfind("\n", start, pos) + 1
            continue
        elif group == "number":
            if "." not in text:
                add_tag(_INT)
            elif text[-1] == "." and source[pos : pos + 1].isalpha():
                # ``1.x``: the dot is not part of the number.
                pos -= 1
                text = text[:-1]
                add_tag(_INT)
            else:
                add_tag(_FLOAT)
        elif group == "upper":
            kind, text, pos = _capitalized(source, text, pos)
            add_tag(kind)
        elif group == "comment":
            pos = _comment_end(source, start)
            newlines = source.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", start, pos) + 1
            continue
        elif group == "string":
            text, pos = _string_end(source, start)
            add_tag(_STRING)
            add_text(text)
            start_line = line
            newlines = source.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", start, pos) + 1
            add_span((start_line, col, line, pos - line_start + 1, start, pos))
            continue
        elif group == "quote":
            # 'a style type variables (we do not support char literals to
            # keep the grammar unambiguous; none of the paper's examples
            # use them).  CHAR kind reused for tyvars.
            if not text[1:2].isalpha():
                raise LexError("stray quote", line, col)
            add_tag(_CHAR)
        elif group == "word" and text[0].isalpha():  # starts outside ASCII
            if text[0].isupper():
                kind, text, pos = _capitalized(source, text, pos)
            else:
                kind = _LIDENT
            add_tag(kind)
        else:
            raise LexError(f"unexpected character {text[0]!r}", line, col)
        add_text(text)
        add_span((line, col, line, col + pos - start, start, pos))
    pos = len(source)
    col = pos - line_start + 1
    add_tag(_EOF)
    add_text("")
    add_span((line, col, line, col, pos, pos))
    return stream


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into a token list ending with an EOF token."""
    stream = scan(source)
    return [stream.token(i) for i in range(len(stream))]
