"""Rules, programs and queries.

A :class:`Program` is an immutable collection of rules; facts may be
written as rules with empty bodies but are normally kept in a
:class:`~repro.engine.database.Database`.  A :class:`Query` pairs a goal
atom with a program, following the paper's definition of a query as a
pair ``(G, P)``.
"""

from .atoms import Atom, Comparison, Literal, Negation
from .terms import Constant


class Rule:
    """A Horn rule ``head :- body`` (a fact when the body is empty)."""

    __slots__ = ("head", "body", "label", "_atoms")

    def __init__(self, head, body=(), label=None):
        if not isinstance(head, Atom):
            raise TypeError("rule head must be an Atom")
        body = tuple(body)
        for lit in body:
            if not isinstance(lit, Literal):
                raise TypeError("body element is not a Literal: %r" % (lit,))
        self.head = head
        self.body = body
        #: Optional rule identifier (``r1``, ``c0``, ...) used by the
        #: counting rewritings to tag path-argument entries.
        self.label = label
        self._atoms = None

    def is_fact(self):
        return not self.body

    def variables(self):
        names = self.head.variables()
        for lit in self.body:
            names |= lit.variables()
        return names

    def body_atoms(self):
        """Positive atoms of the body, in order (computed once)."""
        atoms = self._atoms
        if atoms is None:
            atoms = self._atoms = tuple(
                lit for lit in self.body if isinstance(lit, Atom)
            )
        return atoms

    def negated_atoms(self):
        return tuple(
            lit.atom for lit in self.body if isinstance(lit, Negation)
        )

    def comparisons(self):
        return tuple(
            lit for lit in self.body if isinstance(lit, Comparison)
        )

    def with_label(self, label):
        return Rule(self.head, self.body, label=label)

    def __eq__(self, other):
        return (
            isinstance(other, Rule)
            and other.head == self.head
            and other.body == self.body
        )

    def __hash__(self):
        return hash(("rule", self.head, self.body))

    def __repr__(self):
        return "Rule(%r, %r)" % (self.head, self.body)


class Program:
    """An immutable sequence of rules.

    Facts written in program text are carried as empty-body rules; the
    engine moves ground facts for base predicates into the database
    automatically.
    """

    __slots__ = ("rules",)

    def __init__(self, rules=()):
        rules = tuple(rules)
        labeled = []
        counter = 0
        for rule in rules:
            if not isinstance(rule, Rule):
                raise TypeError("program element is not a Rule: %r" % (rule,))
            if rule.label is None:
                rule = rule.with_label("r%d" % counter)
            counter += 1
            labeled.append(rule)
        self.rules = tuple(labeled)

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    def head_predicates(self):
        """Keys of predicates defined by at least one rule with a body.

        Predicates defined exclusively by ground facts are considered
        base predicates, following the paper's definition.
        """
        keys = set()
        for rule in self.rules:
            if rule.body or not rule.head.is_ground():
                keys.add(rule.head.key)
        return keys

    def derived_predicates(self):
        """All predicate keys appearing in some rule head."""
        return {rule.head.key for rule in self.rules}

    def body_predicates(self):
        keys = set()
        for rule in self.rules:
            for atom in rule.body_atoms() + rule.negated_atoms():
                keys.add(atom.key)
        return keys

    def rules_for(self, key):
        """Rules whose head predicate key equals ``key``."""
        return tuple(r for r in self.rules if r.head.key == key)

    def facts(self):
        """Ground empty-body rules, as (key, value-tuple) pairs."""
        from .terms import ground_value

        out = []
        for rule in self.rules:
            if rule.is_fact() and rule.head.is_ground():
                values = tuple(ground_value(a) for a in rule.head.args)
                out.append((rule.head.key, values))
        return out

    def without_facts(self):
        """A copy of this program with ground facts removed."""
        return Program(
            r
            for r in self.rules
            if r.body or not r.head.is_ground()
        )

    def extended(self, rules):
        """A new program with ``rules`` appended."""
        return Program(self.rules + tuple(rules))

    def __eq__(self, other):
        return isinstance(other, Program) and other.rules == self.rules

    def __repr__(self):
        return "Program(%d rules)" % len(self.rules)


class Query:
    """A query ``(goal, program)``.

    The goal is an atom; bound arguments are constants, free arguments
    variables.  ``sg(a, Y)`` asks for all ``Y`` with ``sg(a, Y)`` true in
    the minimal model of the program plus the database.

    A query is immutable, so
    :func:`~repro.rewriting.adornment.adorn_query` keeps its result on
    it (``_adorned``): the optimizer's method choice and the chosen
    strategy's rewriting share one adornment.
    """

    __slots__ = ("goal", "program", "_adorned")

    def __init__(self, goal, program):
        if not isinstance(goal, Atom):
            raise TypeError("query goal must be an Atom")
        if not isinstance(program, Program):
            raise TypeError("query program must be a Program")
        self.goal = goal
        self.program = program
        self._adorned = None

    def bound_positions(self):
        """Indexes of goal arguments that are constants."""
        return tuple(
            i
            for i, arg in enumerate(self.goal.args)
            if isinstance(arg, Constant)
        )

    def adornment(self):
        """The goal's adornment string, e.g. ``"bf"`` for ``sg(a, Y)``."""
        return "".join(
            "b" if isinstance(arg, Constant) else "f"
            for arg in self.goal.args
        )

    def __repr__(self):
        return "Query(%r)" % (self.goal,)
