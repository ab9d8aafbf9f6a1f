"""Adornment of programs with respect to a query (Section 2).

An adorned program annotates every derived predicate with a string over
``{b, f}`` recording which arguments are bound when the predicate is
called top-down.  We propagate bindings with the standard left-to-right
sideways information passing: processing a rule body in order, a base
atom binds all of its variables, a derived atom is adorned with the
bindings available so far and then binds all of its variables, ``is``
and ``in`` bind their left variable, ``=`` may bind one side.

Adorned predicates are materialized as renamed predicates
``name__adornment`` (e.g. ``sg__bf``), which keeps the adorned program a
plain program that every downstream component (engine, rewritings)
handles uniformly.
"""

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.rules import Program, Query, Rule
from ..datalog.terms import Variable
from ..errors import RewritingError
from .canonical import canonicalize_clique
from .support import goal_clique_of

#: Separator between a predicate name and its adornment.
ADORN_SEP = "__"


def adorned_name(name, adornment):
    return "%s%s%s" % (name, ADORN_SEP, adornment)


def split_adorned(name):
    """Inverse of :func:`adorned_name`; returns (base, adornment)."""
    base, sep, adornment = name.rpartition(ADORN_SEP)
    if not sep or not adornment or set(adornment) - {"b", "f"}:
        return name, None
    return base, adornment


def atom_adornment(atom, bound_vars):
    """Adornment of ``atom`` given the currently bound variables."""
    letters = []
    for arg in atom.args:
        if arg.is_ground() or arg.variables() <= bound_vars:
            letters.append("b")
        else:
            letters.append("f")
    return "".join(letters)


def bound_argument_vars(atom, adornment):
    """Variables in the bound positions of ``atom`` under ``adornment``."""
    names = set()
    for arg, letter in zip(atom.args, adornment):
        if letter == "b":
            names |= arg.variables()
    return names


class AdornedQuery:
    """Result of adorning a query.

    Attributes
    ----------
    original : the input :class:`Query`.
    query : the adorned :class:`Query` (renamed goal over the adorned
        program).
    origins : mapping adorned predicate key -> (original key, adornment).

    The adorned query is immutable, so the analyses every consumer of
    it needs — the goal clique and its canonical form — are computed on
    first use and kept: the optimizer's method choice and the chosen
    strategy's rewriting share one computation.
    """

    __slots__ = ("original", "query", "origins", "_clique", "_canonical")

    def __init__(self, original, query, origins):
        self.original = original
        self.query = query
        self.origins = dict(origins)
        self._clique = None
        self._canonical = None

    @property
    def program(self):
        return self.query.program

    @property
    def goal(self):
        return self.query.goal

    def original_key(self, key):
        """The (name, arity) of the original predicate behind ``key``."""
        entry = self.origins.get(key)
        return key if entry is None else entry[0]

    def adornment_of(self, key):
        entry = self.origins.get(key)
        return None if entry is None else entry[1]

    def goal_clique(self):
        """``(clique, support_rules)`` of the goal, computed once; see
        :func:`~repro.rewriting.support.goal_clique_of` (a
        :class:`NotApplicableError` is raised again on every call)."""
        if self._clique is None:
            self._clique = goal_clique_of(self)
        return self._clique

    def canonical_clique(self):
        """The goal clique in canonical form, computed once; see
        :func:`~repro.rewriting.canonical.canonicalize_clique`."""
        if self._canonical is None:
            self._canonical = canonicalize_clique(self.goal_clique()[0],
                                                  self)
        return self._canonical


def adorn_query(query):
    """Adorn ``query.program`` with respect to ``query.goal``.

    Only rules relevant to the goal (reachable through the adorned
    call graph) appear in the result, which is itself an optimization
    both magic sets and counting build on.  The result is computed on
    the first call and kept on the (immutable) query, so adorning it
    again returns the same :class:`AdornedQuery`.  Threads racing on a
    fresh query may each compute it; the results are equal.
    """
    adorned = query._adorned
    if adorned is None:
        adorned = query._adorned = _adorn(query)
    return adorned


def _adorn(query):
    program = query.program
    derived = program.head_predicates()
    goal = query.goal
    if goal.key not in derived:
        # Goal over a base predicate: nothing to adorn.
        return AdornedQuery(query, query, {})
    goal_adornment = "".join(
        "b" if arg.is_ground() else "f" for arg in goal.args
    )
    origins = {}
    adorned_rules = []
    worklist = [(goal.key, goal_adornment)]
    seen = set()
    while worklist:
        key, adornment = worklist.pop()
        if (key, adornment) in seen:
            continue
        seen.add((key, adornment))
        new_key = (adorned_name(key[0], adornment), key[1])
        origins[new_key] = (key, adornment)
        for rule in program.rules_for(key):
            adorned_rules.append(
                _adorn_rule(rule, adornment, derived, worklist)
            )
    adorned_goal = Atom(adorned_name(goal.pred, goal_adornment), goal.args)
    adorned_query = Query(adorned_goal, Program(adorned_rules))
    return AdornedQuery(query, adorned_query, origins)


def _adorn_rule(rule, adornment, derived, worklist):
    head = rule.head
    if len(adornment) != head.arity:
        raise RewritingError(
            "adornment %r does not match arity of %s/%d"
            % (adornment, head.pred, head.arity)
        )
    bound = bound_argument_vars(head, adornment)
    new_body = []
    for lit in rule.body:
        if isinstance(lit, Atom):
            if lit.key in derived:
                sub = atom_adornment(lit, bound)
                worklist.append((lit.key, sub))
                new_body.append(Atom(adorned_name(lit.pred, sub), lit.args))
            else:
                new_body.append(lit)
            bound |= lit.variables()
        elif isinstance(lit, Negation):
            atom = lit.atom
            if atom.key in derived:
                sub = atom_adornment(atom, bound)
                worklist.append((atom.key, sub))
                new_body.append(
                    Negation(Atom(adorned_name(atom.pred, sub), atom.args))
                )
            else:
                new_body.append(lit)
        elif isinstance(lit, Comparison):
            new_body.append(lit)
            if lit.op in ("is", "in") and isinstance(lit.left, Variable):
                bound.add(lit.left.name)
            elif lit.op == "=":
                left_vars = lit.left.variables()
                right_vars = lit.right.variables()
                if left_vars <= bound:
                    bound |= right_vars
                elif right_vars <= bound:
                    bound |= left_vars
        else:
            raise RewritingError("unknown literal %r" % (lit,))
    new_head = Atom(adorned_name(head.pred, adornment), head.args)
    return Rule(new_head, tuple(new_body), label=rule.label)
