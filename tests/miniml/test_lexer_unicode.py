"""The lexer's character classes outside ASCII.

The lexer's pattern uses regex classes where the token classes are defined
by ``str`` predicates; these tests pin the places where the two could part.
A digit that is not a decimal digit (``²``) is an unexpected character,
not the start of a number.
"""

import re
import sys

import pytest

from repro.miniml.lexer import LexError, tokenize
from repro.miniml.tokens import TokenKind


def lex_error(source):
    with pytest.raises(LexError) as excinfo:
        tokenize(source)
    return excinfo.value


class TestNonDecimalDigits:
    def test_superscript_after_a_number_is_unexpected(self):
        err = lex_error("let x = 1²")
        assert err.message == "unexpected character '²'"
        assert (err.line, err.col) == (1, 10)
        assert str(err) == "1:10: unexpected character '²'"

    def test_lone_superscript_is_unexpected(self):
        err = lex_error("²")
        assert err.message == "unexpected character '²'"
        assert (err.line, err.col) == (1, 1)

    def test_superscript_inside_an_identifier(self):
        (tok,) = tokenize("x²")[:-1]
        assert tok.kind is TokenKind.LIDENT
        assert tok.text == "x²"

    def test_arabic_indic_digit_is_an_int(self):
        (tok,) = tokenize("٣")[:-1]
        assert tok.kind is TokenKind.INT
        assert tok.value == 3

    def test_vulgar_fraction_is_unexpected(self):
        err = lex_error("let x = ½")
        assert err.message == "unexpected character '½'"
        assert (err.line, err.col) == (1, 9)

    def test_tyvar_needs_a_letter(self):
        assert lex_error("'²").message == "stray quote"
        (tok,) = tokenize("'é")[:-1]
        assert tok.kind is TokenKind.CHAR


class TestIdentifiersOutsideAscii:
    def test_capitalized_is_a_constructor(self):
        (tok,) = tokenize("Élan")[:-1]
        assert tok.kind is TokenKind.UIDENT

    def test_module_qualified_by_islower(self):
        (tok,) = tokenize("List.élan")[:-1]
        assert tok.kind is TokenKind.LIDENT
        assert tok.text == "List.élan"

    def test_uncased_letter_starts_a_lowercase_name(self):
        (tok,) = tokenize("名前")[:-1]
        assert tok.kind is TokenKind.LIDENT

    def test_float_dot_before_a_letter_is_not_taken(self):
        assert [t.text for t in tokenize("1.é")][:-1] == ["1", ".", "é"]


def code_points():
    """Every code point but the surrogates, one at a time."""
    return (chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF)


class TestRegexClassesMatchStrPredicates:
    """The equivalences the lexer's pattern is built on, over every code point."""

    def test_word_class_is_isalnum_or_underscore(self):
        word = re.compile(r"\w")
        assert [c for c in code_points() if bool(word.match(c)) != (c.isalnum() or c == "_")] == []

    def test_digit_class_is_isdecimal(self):
        digit = re.compile(r"\d")
        assert [c for c in code_points() if bool(digit.match(c)) != c.isdecimal()] == []

    def test_letter_class_is_wider_than_isalpha(self):
        # Why an identifier's first character is checked with isalpha().
        letter = re.compile(r"[^\W\d_]")
        assert all(letter.match(c) for c in code_points() if c.isalpha())
        assert letter.match("²") and letter.match("½")
