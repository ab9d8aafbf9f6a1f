"""The regex tokenizer against the character-loop oracle.

:func:`repro.datalog.parser._tokenize` scans with one compiled regex;
``tests/tokenize_oracle.py`` keeps the character-at-a-time scanner it
replaced.  On every program text the repository ships and on generated
texts, both must yield the same ``(kind, value, line, column)`` stream
or raise a :class:`ParseError` with the same message at the same
position.
"""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import workloads
from repro.datalog.parser import _tokenize, parse_program
from repro.errors import ParseError
from tests import tokenize_oracle


def scan(tokenize, text):
    """The token stream of ``text``, or ``("error", message, line,
    column)``."""
    try:
        return tokenize(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


def assert_same(text):
    expected = scan(tokenize_oracle.tokenize, text)
    assert scan(_tokenize, text) == expected


def shipped_texts():
    """Every program text in ``perfbench/data.py`` and
    ``repro.data.workloads``, bound to a sample constant."""
    modules = [workloads]
    try:
        modules.append(importlib.import_module("perfbench.data"))
    except ImportError:
        pass
    texts = []
    for module in modules:
        for name, value in sorted(vars(module).items()):
            if name.isupper() and isinstance(value, str) and ":-" in value:
                texts.append(value % "a1" if "%s" in value else value)
    return texts


SHIPPED = shipped_texts()

EDGE_CASES = [
    "",
    "   \t\r\n",
    # Quoted strings: '' escapes, embedded newlines, positions after.
    "p('it''s', 'a\nb\nc', X).\nq(Y).",
    "p('''').", "p('').", "p('a''''b') . q",
    # Unterminated strings, including one ending on an escape.
    "p('abc", "p('abc''", "p(\n  'x''y", "'",
    # Texts where a shorter literal ends inside the longer, unterminated
    # one: the scanner must not backtrack to it.
    "p('ab''c", "p('a'''", "p('a'''b)", "'''", "'''''",
    "p('a''). q('b').", "p('x''\n''y).",
    # Comments, with and without a trailing newline.
    "% only a comment", "p(a). % trailing\nq(b). %", "%\n%\n?- p(X).",
    # Bare nil against the quoted string 'nil'.
    "p(nil, 'nil', nilx, Nil).",
    # is / in as operators, not as names; not as negation.
    "p(X) :- q(Y), X is Y + 1, Z in [a, b], not r(X), isx(inx, notx).",
    # Unary minus and arithmetic.
    "p(X) :- q(Y), X is -Y * -2 - -3, Y > -1.",
    # Every punctuation token, glued together.
    ":-?-<=>=!=()[]|,.=<>+-*", "p(X):-q(X),X<=1,X>=0,X!=2.",
    "a<-b", "a=<b", "a<>b", "a!b", "!", ":", "?", "?-", ":--",
    # Non-ASCII letters and digits.
    "p(Élan, élan, _x, ñu, Ωmega, ωmega) :- q(日本, Δ1).",
    "p(٣٤, x٣).", "p(ǅx, ᾈy).",
    # Numerics that are neither letters nor decimal digits.
    "p(½).", "p(a½).", "p(Ⅻ).", "p(x²).",
    # Stray characters at various positions.
    "p(a) :- q(b) & r(c).", "p(a).\n  @q", "p( a).", "p(a);",
    "p(a)\x0b.", "p(a)\x0c.", "p(a) .", "#",
    # Line and column bookkeeping across CRLF and tabs.
    "p(a).\r\n\tq(b).\r\n?- p(X).",
    # Long numbers and identifiers.
    "p(123456789012345678901234567890, " + "x" * 200 + ").",
]


@pytest.mark.parametrize("text", SHIPPED)
def test_shipped_programs(text):
    assert_same(text)


def test_shipped_programs_found():
    # Both modules contribute: a broken discovery must not pass vacuously.
    assert len(SHIPPED) >= 15


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases(text):
    assert_same(text)


def test_non_decimal_digit_is_a_parse_error():
    # The oracle calls int() on '²' (str.isdigit but not
    # str.isdecimal) and crashes with ValueError; the tokenizer reports
    # an unexpected character instead.
    for text, column in (("p(²).", 3), ("p(12²).", 5)):
        with pytest.raises(ValueError):
            tokenize_oracle.tokenize(text)
        with pytest.raises(ParseError) as info:
            _tokenize(text)
        assert (info.value.line, info.value.column) == (1, column)
        assert "unexpected character '²'" in str(info.value)


def test_parse_errors_point_at_tokens():
    with pytest.raises(ParseError) as info:
        parse_program("p(a).\nq(b :- c.")
    assert (info.value.line, info.value.column) == (2, 5)


#: Pieces the generated texts are glued from: every token kind, the
#: characters that separate them, and the awkward cases above.
PIECES = [
    "p", "q", "anc", "Xvar", "Y", "_", "_z", "nil", "not", "is", "in",
    "(", ")", "[", "]", "|", ",", ".", ":-", "?-", "=", "!=", "<", "<=",
    ">", ">=", "+", "-", "*", "0", "42", "007", "'s'", "'it''s'",
    "'a\nb'", "''", "'", "%c", "%", " ", "  ", "\t", "\n", "\r\n",
    "é", "Δ", "٣", "½", "!", ":", "?", "@", "&", " ",
]

#: Characters outside the grammar's ASCII core, for the character soup
#: (the non-decimal digits such as '²' are covered separately: the
#: oracle crashes on them).
SOUP = st.characters(
    blacklist_categories=("Cs",),
    blacklist_characters="".join(
        ch for ch in map(chr, range(0x2070)) if ch.isdigit()
        and not ch.isdecimal()
    ),
    max_codepoint=0x206F,
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_generated_token_soup(text):
    assert_same(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=SOUP, max_size=60))
def test_generated_character_soup(text):
    assert_same(text)
