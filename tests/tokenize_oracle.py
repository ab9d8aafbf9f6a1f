"""The tokenizer oracle: the character-at-a-time scanner the parser used
before its single-regex tokenizer.

``tests/test_tokenizer_differential.py`` checks that
:func:`repro.datalog.parser._tokenize` yields the same ``(kind, value,
line, column)`` stream and raises the same :class:`ParseError` messages
at the same positions as this reference.  It walks the text one
character at a time and tries each punctuation token with
``startswith`` in longest-first order, sharing no code with the regex
scanner.  One known difference: a non-decimal digit character such as
``'²'`` (``str.isdigit`` but not ``str.isdecimal``) makes this scanner
call ``int`` on it and raise ``ValueError``; the parser reports it as
an unexpected character.
"""

from repro.errors import ParseError

_PUNCT = (
    ":-",
    "?-",
    "<=",
    ">=",
    "!=",
    "(",
    ")",
    "[",
    "]",
    "|",
    ",",
    ".",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
)


def tokenize(text):
    """``(kind, value, line, column)`` tuples of ``text``, ending with
    the ``eof`` token; raises :class:`ParseError` like the parser."""
    tokens = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        col = i - line_start + 1
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "'":
            # Quoted string constant.  A doubled quote inside the
            # literal is an escaped single quote (``'it''s'`` reads as
            # ``it's``), matching :func:`repro.datalog.pretty.
            # format_value` so quoted values round-trip through
            # ``Database.to_text``/``from_text``.
            parts = []
            j = i + 1
            while True:
                k = j
                while k < n and text[k] != "'":
                    k += 1
                if k >= n:
                    raise ParseError("unterminated string", line, col)
                parts.append(text[j:k])
                if k + 1 < n and text[k + 1] == "'":
                    parts.append("'")
                    j = k + 2
                    continue
                i = k + 1
                break
            value = "".join(parts)
            tokens.append(("const", value, line, col))
            if "\n" in value:
                # Keep later tokens' positions honest when a literal
                # spans lines (columns restart after the closing quote).
                line += value.count("\n")
                line_start = text.rfind("\n", 0, i) + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("number", int(text[i:j]), line, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "not":
                tokens.append(("not", word, line, col))
            elif word in ("is", "in"):
                tokens.append(("op", word, line, col))
            elif word == "nil":
                # Bare nil is the None constant; the token carries the
                # value itself so the *quoted string* 'nil' (a "const"
                # token too, but with the str value) stays distinct and
                # round-trips through the pretty-printer's quoting.
                tokens.append(("const", None, line, col))
            elif ch.isupper() or ch == "_":
                tokens.append(("var", word, line, col))
            else:
                tokens.append(("name", word, line, col))
            i = j
            continue
        matched = False
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append((punct, punct, line, col))
                i += len(punct)
                matched = True
                break
        if not matched:
            raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(("eof", None, line, n - line_start + 1))
    return tokens
