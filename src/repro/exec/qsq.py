"""Query-subquery (QSQ) evaluation — the top-down baseline family.

The magic-set method is the bottom-up simulation of top-down resolution
with memoing; QSQ (Vieille) is the direct top-down formulation, and the
performance studies the paper leans on [4, 11] treat the two as the
same family.  This module implements the *iterative* variant (QSQI):

* a *subquery* is an adorned predicate plus values for its bound
  arguments (``sg__bf`` asked with ``X = a``);
* an agenda seeds with the goal's subquery; evaluating a rule body left
  to right, each derived atom raises a new subquery for its currently
  bound arguments and then joins against that subquery's memoized
  answers;
* answers and subqueries grow monotonically; the outer loop re-runs
  every known subquery until neither grows.

The memo tables correspond one-to-one to the magic (subqueries) and
answer relations of the magic-set rewriting, so QSQ's work profile
tracks magic's — which is exactly how the counting comparisons in the
paper should be read: counting vs *the memoing family*, not vs one
rewriting.  The strategy name is ``qsq``.
"""

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.terms import Constant
from ..datalog.unify import match_value, resolve
from ..engine.builtins import eval_comparison
from ..engine.instrumentation import EvalStats
from ..engine.relation import WILDCARD, Relation
from ..errors import EvaluationError
from ..rewriting.adornment import adorn_query


def _match_atom(atom, relation, subst, stats):
    """Yield substitutions extending ``subst`` that match ``atom``.

    QSQ is the tuple-at-a-time baseline, so it keeps its own matcher:
    positions whose argument resolves to a constant become an index
    lookup, the rest unify against each stored row.
    """
    resolved = [resolve(arg, subst) for arg in atom.args]
    pattern = tuple(
        arg.value if isinstance(arg, Constant) else WILDCARD
        for arg in resolved
    )
    open_positions = [
        i for i, arg in enumerate(resolved)
        if not isinstance(arg, Constant)
    ]
    for row in relation.match(pattern, stats):
        stats.tuples_scanned += 1
        extended = subst
        for i in open_positions:
            extended = match_value(resolved[i], row[i], extended)
            if extended is None:
                break
        if extended is not None:
            yield extended


def _ground_head(head, subst):
    """The ground value tuple of ``head`` under ``subst``."""
    values = []
    for arg in head.args:
        resolved = resolve(arg, subst)
        if not isinstance(resolved, Constant):
            raise EvaluationError(
                "head argument of %s not ground: %r" % (head.pred, resolved)
            )
        values.append(resolved.value)
    return tuple(values)


class QSQEngine:
    """Iterative query-subquery evaluator over an adorned program."""

    def __init__(self, adorned, db, stats=None, budget=None):
        self.adorned = adorned
        self.db = db
        self.stats = stats if stats is not None else EvalStats()
        #: Optional :class:`~repro.engine.guard.ResourceBudget` checked
        #: once per subquery evaluation (the QSQ round boundary).
        self.budget = budget
        self.adornments = {
            key: adornment
            for key, (_orig, adornment) in adorned.origins.items()
        }
        #: per adorned predicate: memoized answers (full tuples).
        self.answers = {}
        #: per adorned predicate: set of bound-value tuples queried.
        self.subqueries = {}
        self._rules = {}
        for rule in adorned.program:
            self._rules.setdefault(rule.head.key, []).append(rule)
        # Negation over *derived* predicates needs stratum-complete
        # answers before the test fires; this iterative variant has no
        # retraction, so it refuses such programs (the bottom-up
        # engine handles them).
        from ..errors import NotApplicableError

        for rule in adorned.program:
            for atom in rule.negated_atoms():
                if atom.key in self.adornments:
                    raise NotApplicableError(
                        "QSQ variant does not support negation over "
                        "derived predicate %s" % atom.pred
                    )

    # -- memo tables ---------------------------------------------------

    def _answer_relation(self, key):
        relation = self.answers.get(key)
        if relation is None:
            relation = Relation(key[0], key[1])
            self.answers[key] = relation
        return relation

    def _bound_positions(self, key):
        adornment = self.adornments[key]
        return [i for i, letter in enumerate(adornment) if letter == "b"]

    def _raise_subquery(self, key, binding):
        table = self.subqueries.setdefault(key, set())
        if binding in table:
            return False
        table.add(binding)
        return True

    # -- evaluation ------------------------------------------------------

    def run(self, goal):
        """Answer the goal atom; returns the goal's answer relation."""
        goal_key = goal.key
        if goal_key not in self.adornments:
            return self.db.get(goal_key)
        binding = tuple(
            arg.value for arg in goal.args if isinstance(arg, Constant)
        )
        self._raise_subquery(goal_key, binding)
        changed = True
        while changed:
            changed = False
            self.stats.iterations += 1
            before = self.subquery_count()
            for key, bindings in list(self.subqueries.items()):
                for bound_values in list(bindings):
                    if self.budget is not None:
                        self.budget.check(self.stats)
                    if self._evaluate_subquery(key, bound_values):
                        changed = True
            # New subqueries raised during the sweep need their own
            # pass even when no answer was derived yet.
            if self.subquery_count() != before:
                changed = True
        return self._answer_relation(goal_key)

    def _evaluate_subquery(self, key, bound_values):
        grew = False
        positions = self._bound_positions(key)
        for rule in self._rules.get(key, ()):
            subst = {}
            feasible = True
            for position, value in zip(positions, bound_values):
                arg = rule.head.args[position]
                from ..datalog.unify import unify

                subst = unify(arg, Constant(value), subst)
                if subst is None:
                    feasible = False
                    break
            if not feasible:
                continue
            self.stats.rule_firings += 1
            for result in self._body(rule.body, 0, subst):
                row = _ground_head(rule.head, result)
                if self._answer_relation(key).add(row):
                    self.stats.facts_derived += 1
                    grew = True
                else:
                    self.stats.facts_duplicate += 1
        return grew

    def _body(self, body, index, subst):
        if index == len(body):
            yield subst
            return
        lit = body[index]
        if isinstance(lit, Atom):
            for extended in self._match(lit, subst):
                yield from self._body(body, index + 1, extended)
        elif isinstance(lit, Negation):
            if not self._holds(lit.atom, subst):
                yield from self._body(body, index + 1, subst)
        elif isinstance(lit, Comparison):
            for extended in eval_comparison(lit, subst):
                yield from self._body(body, index + 1, extended)
        else:
            raise EvaluationError("unknown literal %r" % (lit,))

    def _match(self, atom, subst):
        key = atom.key
        if key in self.adornments:
            binding = []
            for position in self._bound_positions(key):
                term = resolve(atom.args[position], subst)
                if isinstance(term, Constant):
                    binding.append(term.value)
            self._raise_subquery(key, tuple(binding))
            relation = self._answer_relation(key)
        else:
            relation = self.db.get(key)
        yield from _match_atom(atom, relation, subst, self.stats)

    def _holds(self, atom, subst):
        key = atom.key
        relation = (
            self._answer_relation(key)
            if key in self.adornments
            else self.db.get(key)
        )
        values = []
        for arg in atom.args:
            term = resolve(arg, subst)
            if not isinstance(term, Constant):
                raise EvaluationError(
                    "negated atom %s not ground" % atom.pred
                )
            values.append(term.value)
        return tuple(values) in relation

    def subquery_count(self):
        return sum(len(b) for b in self.subqueries.values())


def qsq_evaluate(query, db, stats=None, budget=None):
    """Top-down QSQ evaluation of ``query``; returns (answers, engine).

    Answers are projected onto the goal's free positions, like every
    strategy runner.
    """
    adorned = query if hasattr(query, "origins") else adorn_query(query)
    engine = QSQEngine(adorned, db, stats=stats, budget=budget)
    relation = engine.run(adorned.goal)
    from ..engine.fixpoint import goal_filter, project_free

    goal = adorned.goal
    tuples = set(goal_filter(goal, relation))
    return frozenset(project_free(goal, tuples)), engine
