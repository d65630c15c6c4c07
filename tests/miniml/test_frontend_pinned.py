"""The MiniML front end's output, pinned.

``PINNED`` holds SHA-256 digests of the token streams (kind, text, value
and every span field) and of the AST dumps (node type, dataclass fields
and span) for the example programs, the study's assignment sources and
the sources of ``generate_corpus(seed=2007)``.  Spans reach every message
the search renders, so a faster lexer or parser must reproduce them byte
for byte.  After an intended change of output, print the new digests
with::

    PYTHONPATH=src python -m tests.miniml.test_frontend_pinned

The property tests lex and parse pretty-printed expressions with noise
between the tokens (tabs, ``\\r\\n``, nested comments) and string literals
holding newlines and escapes, and check every token's position against
line starts computed separately.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus import ASSIGNMENTS, generate_corpus
from repro.miniml.lexer import LexError, tokenize
from repro.miniml.parser import ParseError, parse_expr, parse_program
from repro.miniml.pretty import pretty_expr, pretty_program
from repro.miniml.tokens import TokenKind
from repro.tree import Node, structurally_equal

from tests.miniml.test_pretty import exprs

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

PINNED = {
    "examples": {
        "tokens": "4a2baac579148a9ba4f6dd09f61b3305fae3e2351f7b2b964c85dce2d2c8b6e0",
        "ast": "335d6ebff106a36ff00ada1e65457c5872be65eba7318e798bbddb9f11a52a71",
    },
    "assignments": {
        "tokens": "01a79bb455d2bad2ec8bfdf33989af331a1e62e62f15b13c952cd606c23442f3",
        "ast": "a8f446221a590c60cce3ffa5b15db48411f4dc2bc7aea76db6ab78ba5947405a",
    },
    "corpus-2007": {
        "tokens": "c53ba92007ce6a7983ad362b23c2e2fcc58897275d1c84fa4601474418f7c316",
        "ast": "a79be860887877bf7ea1575d6527b1f92cab3bda3fd99f07765e82f97e13dbda",
    },
}


def _span(span) -> str:
    return (
        f"{span.start_line},{span.start_col},{span.end_line},{span.end_col},"
        f"{span.start_offset},{span.end_offset}"
    )


def token_dump(source: str) -> str:
    return "\n".join(
        f"{t.kind.name} {t.text!r} {t.value!r} {_span(t.span)}" for t in tokenize(source)
    )


def ast_dump(node) -> str:
    out = []

    def walk(value) -> None:
        if isinstance(value, Node):
            out.append(f"{type(value).__name__}@{_span(value.span)}(")
            for field in dataclasses.fields(value):
                out.append(f"{field.name}=")
                walk(getattr(value, field.name))
            out.append(")")
        elif isinstance(value, list):
            out.append("[")
            for item in value:
                walk(item)
            out.append("]")
        else:
            out.append(repr(value))

    walk(node)
    return " ".join(out)


def _digest(dumps) -> str:
    h = hashlib.sha256()
    for dump in dumps:
        h.update(dump.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def pinned_sources():
    """Each pinned set's sources, in a fixed order."""
    corpus = generate_corpus(seed=2007)
    distinct = dict.fromkeys(pretty_program(f.program) for f in corpus.files)
    return {
        "examples": [p.read_text(encoding="utf-8") for p in sorted(EXAMPLES.glob("*.ml"))],
        "assignments": [ASSIGNMENTS[name] for name in sorted(ASSIGNMENTS)],
        "corpus-2007": list(distinct),
    }


def digests():
    return {
        name: {
            "tokens": _digest(token_dump(s) for s in sources),
            "ast": _digest(ast_dump(parse_program(s)) for s in sources),
        }
        for name, sources in pinned_sources().items()
    }


class TestPinnedOutput:
    @pytest.fixture(scope="class")
    def current(self):
        return digests()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_token_streams(self, current, name):
        assert current[name]["tokens"] == PINNED[name]["tokens"]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_asts(self, current, name):
        assert current[name]["ast"] == PINNED[name]["ast"]


# ---------------------------------------------------------------------------
# Property: positions on noisy sources.
# ---------------------------------------------------------------------------

_SEPARATORS = st.sampled_from(
    [" ", "  ", "\t", "\n", "\r\n", " \t\r\n ", "(* c *)", " (* a (* b\n *) c *) ", "\n(**)\t"]
)
#: String literals as written, and the values they denote.
_STRINGS = {
    '"plain"': "plain",
    '"two\nlines"': "two\nlines",
    '"esc \\n \\t \\\\ \\" \\r"': "esc \n \t \\ \" \r",
    '"\\"\n\\n\n"': '"\n\n\n',
    '""': "",
}


@st.composite
def noisy_sources(draw):
    """``(noisy, plain)``: a printed expression's tokens joined by random
    blanks and comments, and by single spaces, with some integer literals
    swapped for the same string literals in both."""
    source = pretty_expr(draw(exprs()))
    noisy, plain = [], []
    for tok in tokenize(source)[:-1]:
        text = source[tok.span.start_offset : tok.span.end_offset]
        if tok.kind is TokenKind.INT and draw(st.booleans()):
            text = draw(st.sampled_from(sorted(_STRINGS)))
        noisy += [text, draw(_SEPARATORS)]
        plain += [text, " "]
    return "".join(noisy), "".join(plain)


def _line_starts(source: str):
    return [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]


def _line_col(starts, offset: int):
    line = bisect.bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


class TestPositionsProperty:
    @given(noisy_sources())
    @settings(max_examples=200, deadline=None)
    def test_token_positions_match_offsets(self, sources):
        noisy, _ = sources
        starts = _line_starts(noisy)
        for tok in tokenize(noisy):
            span = tok.span
            assert (span.start_line, span.start_col) == _line_col(starts, span.start_offset)
            assert (span.end_line, span.end_col) == _line_col(starts, span.end_offset)
            written = noisy[span.start_offset : span.end_offset]
            if tok.kind is TokenKind.STRING:
                assert tok.value == _STRINGS[written]
            else:
                assert written == tok.text

    @given(noisy_sources())
    @settings(max_examples=200, deadline=None)
    def test_noise_does_not_change_the_tree(self, sources):
        noisy, plain = sources
        assert structurally_equal(parse_expr(noisy), parse_expr(plain))

    @given(noisy_sources())
    @settings(max_examples=50, deadline=None)
    def test_every_truncation_fails_cleanly_at_a_real_position(self, sources):
        noisy, _ = sources
        for cut in range(len(noisy)):
            prefix = noisy[:cut]
            starts = _line_starts(prefix)
            try:
                parse_expr(prefix)
            except ParseError as err:
                span = err.token.span
                assert (span.start_line, span.start_col) == _line_col(starts, span.start_offset)
                assert str(err).startswith(f"{span.start_line}:{span.start_col}: ")
            except LexError as err:
                line_start = starts[err.line - 1]
                line_end = starts[err.line] - 1 if err.line < len(starts) else len(prefix)
                assert 1 <= err.col <= line_end - line_start + 1


if __name__ == "__main__":
    import json

    print(json.dumps(digests(), indent=4, sort_keys=True))
