"""Parser for the textual Datalog dialect used throughout the library.

Syntax summary (close to classical Datalog / the paper's notation)::

    % comments run to end of line
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
    c_sg(a, 0).
    c_sg(X1, J) :- c_sg(X, I), up(X, X1), J is I + 1.
    p(Y, L)  :- q(Y1, [(r1, [W]) | L]), down1(Y1, Y, W).
    ans(Y)   :- reach(Y), not blocked(Y), Y != a.
    ?- sg(a, Y).

* identifiers starting with a lowercase letter are constants or
  predicate names; ``'quoted strings'`` are constants too;
* identifiers starting with an uppercase letter or ``_`` are variables;
* integers are numeric constants; arithmetic expressions use ``+ - *``;
* lists use ``[a, b]`` / ``[H | T]`` notation, tuples ``(a, b)``;
* comparison operators: ``= != < <= > >=``, plus ``is`` (arithmetic
  binding) and ``in`` (membership);
* ``not p(...)`` is negation as failure;
* a clause starting with ``?-`` is a query goal.

:func:`parse_program` returns a :class:`~repro.datalog.rules.Program`;
:func:`parse_query` parses program text containing exactly one ``?-``
goal and returns a :class:`~repro.datalog.rules.Query`.
"""

import re

from ..errors import ParseError
from .atoms import COMPARISON_OPS, Atom, Comparison, Negation
from .rules import Program, Query, Rule
from .terms import Compound, Constant, Variable, make_list, make_tuple

#: The whole lexical grammar as one scanner, one group per token class
#: (numbered below).  Characters no alternative matches (blanks, tabs,
#: carriage returns) are skipped by the search itself; comments match
#: and are dropped; the last group catches any other single character
#: (a stray symbol, or the opening quote of an unterminated string).
#: A word starts with a letter or ``_`` (``\w`` minus decimal digits;
#: non-decimal numerics are rejected after matching) and runs through
#: ``\w`` (``str.isalnum`` or ``_``).  Punctuation lists two-character
#: tokens first.  A string ends at a quote not followed by another
#: (the lookahead keeps an unterminated literal from backtracking into
#: a shorter one); ``''`` inside it is an escaped quote, matching
#: :func:`repro.datalog.pretty.format_value` so quoted values
#: round-trip through ``Database.to_text``/``from_text``.
_TOKEN_RE = re.compile(
    r"(:-|\?-|<=|>=|!=|[()\[\]|,.=<>+\-*])"
    r"|([^\W\d]\w*)"
    r"|(\n)"
    r"|(\d+)"
    r"|(%[^\n]*)"
    r"|('[^']*(?:''[^']*)*'(?!'))"
    r"|([^ \t\r])",
    re.DOTALL,
)
#: Group numbers of :data:`_TOKEN_RE` (``match.lastindex``).
_PUNCT, _WORD, _NEWLINE, _NUMBER, _COMMENT, _STRING, _OTHER = range(1, 8)

#: Words with a token kind of their own.
_KEYWORDS = {"not": "not", "is": "op", "in": "op"}

#: Token tuple fields.
_KIND, _VALUE, _LINE, _COLUMN = range(4)


def _tokenize(text):
    """``(kind, value, line, column)`` tuples, ending with ``eof``.

    Punctuation tokens are their own kind; the other kinds are
    ``name``, ``var``, ``number``, ``const`` (quoted strings and bare
    ``nil``, whose value is ``None``), ``op`` (``is``/``in``) and
    ``not``.
    """
    tokens = []
    append = tokens.append
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        if group == _PUNCT:
            value = match.group()
            append((value, value, line, match.start() - line_start + 1))
        elif group == _WORD:
            word = match.group()
            first = word[0]
            col = match.start() - line_start + 1
            if first > "\x7f" and not first.isalpha():
                # A numeric character that is neither a letter nor a
                # decimal digit (``²``, ``½``) starts no token.
                raise ParseError("unexpected character %r" % first, line,
                                 col)
            keyword = _KEYWORDS.get(word)
            if keyword is not None:
                append((keyword, word, line, col))
            elif word == "nil":
                # Bare nil is the None constant; the token carries the
                # value itself so the *quoted string* 'nil' (a "const"
                # token too, but with the str value) stays distinct and
                # round-trips through the pretty-printer's quoting.
                append(("const", None, line, col))
            elif first.isupper() or first == "_":
                append(("var", word, line, col))
            else:
                append(("name", word, line, col))
        elif group == _NEWLINE:
            line += 1
            line_start = match.end()
        elif group == _NUMBER:
            append(("number", int(match.group()), line,
                    match.start() - line_start + 1))
        elif group == _STRING:
            raw = match.group()
            start = match.start()
            append(("const", raw[1:-1].replace("''", "'"), line,
                    start - line_start + 1))
            newlines = raw.count("\n")
            if newlines:
                # Keep later tokens' positions honest when a literal
                # spans lines (columns restart after the closing quote).
                line += newlines
                line_start = start + raw.rfind("\n") + 1
        elif group == _OTHER:
            ch = match.group()
            col = match.start() - line_start + 1
            if ch == "'":
                raise ParseError("unterminated string", line, col)
            raise ParseError("unexpected character %r" % ch, line, col)
    append(("eof", None, line, len(text) - line_start + 1))
    return tokens


#: Token values that, after a name-led atom, make the literal a
#: comparison (besides ``op`` tokens).
_COMPARISONS = frozenset(("=", "!=", "<", "<=", ">", ">="))


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def kind(self):
        """The kind of the next token."""
        return self.tokens[self.pos][_KIND]

    def next(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind):
        token = self.tokens[self.pos]
        self.pos += 1
        if token[_KIND] != kind:
            raise ParseError(
                "expected %r, found %r" % (kind, token[_VALUE]),
                token[_LINE],
                token[_COLUMN],
            )
        return token

    def error(self, message):
        token = self.tokens[self.pos]
        raise ParseError(message, token[_LINE], token[_COLUMN])

    # ----- grammar -------------------------------------------------

    def parse_clauses(self):
        """Parse the whole input; returns (rules, goals)."""
        rules = []
        goals = []
        while self.kind() != "eof":
            if self.kind() == "?-":
                self.pos += 1
                goals.append(self.atom())
                self.expect(".")
            else:
                rules.append(self.clause())
        return rules, goals

    def clause(self):
        head = self.atom()
        body = ()
        if self.kind() == ":-":
            self.pos += 1
            body = self.body()
        self.expect(".")
        return Rule(head, body)

    def body(self):
        literals = [self.literal()]
        while self.kind() == ",":
            self.pos += 1
            literals.append(self.literal())
        return tuple(literals)

    def literal(self):
        kind = self.kind()
        if kind == "not":
            self.pos += 1
            return Negation(self.atom())
        # Either an atom or a comparison; a comparison starts with a term.
        if kind == "name":
            # Could be atom or constant-starting comparison; try atom first.
            start = self.pos
            atom = self.atom()
            token = self.tokens[self.pos]
            if token[_KIND] != "op" and token[_VALUE] not in _COMPARISONS:
                return atom
            # e.g. f(X) = Y is not supported; rewind and parse term cmp
            self.pos = start
        left = self.expression()
        op_token = self.next()
        op = op_token[_VALUE]
        if op not in COMPARISON_OPS:
            raise ParseError(
                "expected comparison operator, found %r" % (op,),
                op_token[_LINE],
                op_token[_COLUMN],
            )
        right = self.expression()
        return Comparison(op, left, right)

    def atom(self):
        name = self.expect("name")[_VALUE]
        args = ()
        if self.kind() == "(":
            self.pos += 1
            if self.kind() == ")":
                self.pos += 1
            else:
                parsed = [self.expression()]
                while self.kind() == ",":
                    self.pos += 1
                    parsed.append(self.expression())
                self.expect(")")
                args = tuple(parsed)
        return Atom(name, args)

    def expression(self):
        """Additive expression over primary terms."""
        term = self.term()
        while self.kind() in ("+", "-"):
            op = self.next()[_KIND]
            right = self.term()
            term = Compound(op, (term, right))
        return term

    def term(self):
        term = self.primary()
        while self.kind() == "*":
            self.pos += 1
            right = self.primary()
            term = Compound("*", (term, right))
        return term

    def primary(self):
        kind, value = self.tokens[self.pos][:2]
        if kind == "var":
            self.pos += 1
            return Variable(value)
        if kind == "name":
            self.pos += 1
            if self.kind() == "(":
                # A constructor-like ground structure is not supported in
                # terms; names in term position are plain constants.
                self.error("compound constants are not supported")
            return Constant(value)
        if kind == "number" or kind == "const":
            self.pos += 1
            return Constant(value)
        if kind == "-":
            # Unary minus: negative literals and negated subterms.
            self.pos += 1
            operand = self.primary()
            if isinstance(operand, Constant) and isinstance(
                operand.value, (int, float)
            ):
                return Constant(-operand.value)
            return Compound("-", (Constant(0), operand))
        if kind == "[":
            return self.list_term()
        if kind == "(":
            self.pos += 1
            items = [self.expression()]
            while self.kind() == ",":
                self.pos += 1
                items.append(self.expression())
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return make_tuple(items)
        self.error("expected a term, found %r" % (value,))

    def list_term(self):
        self.expect("[")
        if self.kind() == "]":
            self.pos += 1
            return Constant(())
        items = [self.expression()]
        while self.kind() == ",":
            self.pos += 1
            items.append(self.expression())
        tail = Constant(())
        if self.kind() == "|":
            self.pos += 1
            tail = self.expression()
        self.expect("]")
        return make_list(items, tail)


def parse_program(text):
    """Parse ``text`` into a :class:`Program` (queries not allowed)."""
    rules, goals = _Parser(text).parse_clauses()
    if goals:
        raise ParseError("unexpected query goal in program text")
    return Program(rules)


def parse_query(text):
    """Parse ``text`` containing rules and exactly one ``?-`` goal."""
    rules, goals = _Parser(text).parse_clauses()
    if len(goals) != 1:
        raise ParseError(
            "expected exactly one ?- goal, found %d" % len(goals)
        )
    return Query(goals[0], Program(rules))


def parse_atom(text):
    """Parse a single atom, e.g. ``"sg(a, Y)"``."""
    parser = _Parser(text)
    atom = parser.atom()
    if parser.kind() != "eof":
        parser.error("trailing input after atom")
    return atom
