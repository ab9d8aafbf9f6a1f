"""The test oracle: an independent tuple-at-a-time reference evaluator.

Every engine in ``repro`` runs rule bodies through the compiled
slot-array executors of :mod:`repro.engine.compile` and
:mod:`repro.engine.codegen`.  Checking those engines against each other
would check the kernel only against itself, so the differential suites
compare them with this module instead.  It shares none of that code:
a body is matched one literal and one candidate row at a time,
substitutions are dicts of terms, and every binding goes through
:mod:`repro.datalog.unify`.

:class:`Oracle` runs the same stratified semi-naive schedule as
:class:`~repro.engine.seminaive.SemiNaiveEngine` (clique order, one
naive round, then one pass per recursive occurrence per round), so its
work counters are comparable with the engine's exactly, not just its
answers.
"""

from repro.datalog.analysis import ProgramAnalysis
from repro.datalog.atoms import Atom, Comparison, Negation
from repro.datalog.pretty import format_value
from repro.datalog.terms import Constant, Variable
from repro.datalog.unify import match_value, resolve
from repro.engine.builtins import eval_comparison
from repro.engine.instrumentation import EvalStats
from repro.engine.relation import WILDCARD, EmptyRelation, Relation
from repro.errors import EvaluationError


def match_atom(atom, relation, subst, stats=None):
    """Yield substitutions extending ``subst`` that match ``atom``.

    Positions whose argument resolves to a constant become an index
    lookup; the rest unify against each stored row.
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
        if stats is not None:
            stats.tuples_scanned += 1
        extended = subst
        for i in open_positions:
            extended = match_value(resolved[i], row[i], extended)
            if extended is None:
                break
        if extended is not None:
            yield extended


def _atom_holds(atom, relation, subst):
    """True if the fully ground ``atom`` is present in ``relation``."""
    values = []
    for arg in atom.args:
        resolved = resolve(arg, subst)
        if not isinstance(resolved, Constant):
            raise EvaluationError(
                "negated atom %s not ground at evaluation time" % atom.pred
            )
        values.append(resolved.value)
    return tuple(values) in relation


def evaluate_body(body, resolver, subst, stats=None):
    """Yield substitutions satisfying all literals of ``body`` in order.

    Depth-first over an explicit stack: each frame is the index of the
    next literal and the substitution accumulated so far.
    """
    stack = [(0, subst)]
    while stack:
        index, current = stack.pop()
        if index == len(body):
            yield current
            continue
        lit = body[index]
        if isinstance(lit, Atom):
            relation = resolver(index, lit)
            for extended in match_atom(lit, relation, current, stats):
                stack.append((index + 1, extended))
        elif isinstance(lit, Negation):
            relation = resolver(index, lit.atom)
            if not _atom_holds(lit.atom, relation, current):
                stack.append((index + 1, current))
        elif isinstance(lit, Comparison):
            for extended in eval_comparison(lit, current):
                stack.append((index + 1, extended))
        else:
            raise EvaluationError("unknown literal %r" % (lit,))


def ground_head(head, subst):
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


def project(subst, names):
    """The values ``names`` take under ``subst``."""
    values = []
    for name in names:
        term = resolve(Variable(name), subst)
        if not isinstance(term, Constant):
            raise ValueError("variable %s not bound" % name)
        values.append(term.value)
    return tuple(values)


class Oracle:
    """Stratified semi-naive evaluation of a program over a database."""

    def __init__(self, program, db, stats=None):
        self.program = program
        self.db = db
        self.stats = stats if stats is not None else EvalStats()
        self.analysis = ProgramAnalysis(program)
        self.derived = {}
        self.overlay = {}
        for key, values in program.facts():
            if key in self.analysis.derived:
                self._relation(key).add(values)
                continue
            if key not in self.overlay:
                overlay = Relation(key[0], key[1])
                for row in db.get(key):
                    overlay.add(row)
                self.overlay[key] = overlay
            self.overlay[key].add(values)

    def _relation(self, key):
        if key not in self.derived:
            self.derived[key] = Relation(key[0], key[1])
        return self.derived[key]

    def full(self, key):
        """The current relation for ``key``: derived, overlay or base."""
        if key in self.analysis.derived:
            return self._relation(key)
        if key in self.overlay:
            return self.overlay[key]
        return self.db.get(key)

    def _fire(self, rule, resolver, delta):
        """One pass over ``rule``, recording new facts in ``delta``."""
        self.stats.rule_firings += 1
        key = rule.head.key
        relation = self._relation(key)
        for subst in evaluate_body(rule.body, resolver, {}, self.stats):
            row = ground_head(rule.head, subst)
            if relation.add(row):
                self.stats.facts_derived += 1
                if key not in delta:
                    delta[key] = Relation(key[0], key[1])
                delta[key].add(row)
            else:
                self.stats.facts_duplicate += 1

    def run(self):
        """Evaluate every clique in order; returns the derived relations."""

        def full(_index, atom):
            return self.full(atom.key)

        for clique in self.analysis.components:
            delta = {}
            for rule in clique.rules:
                if not rule.is_fact():
                    self._fire(rule, full, delta)
            self.stats.iterations += 1
            if not clique.is_recursive():
                continue
            occurrences = [
                (rule, index)
                for rule in clique.recursive_rules
                for index, lit in enumerate(rule.body)
                if isinstance(lit, Atom) and lit.key in clique.predicates
            ]
            while delta:
                self.stats.iterations += 1
                new_delta = {}
                for rule, target in occurrences:
                    def resolver(index, atom, target=target, delta=delta):
                        if index == target:
                            return delta.get(
                                atom.key, EmptyRelation(*atom.key)
                            )
                        return self.full(atom.key)

                    self._fire(rule, resolver, new_delta)
                delta = new_delta
        return self.derived

    def answers(self, goal):
        """The goal's answers: rows matching its ground arguments,
        projected onto its other positions."""
        checks = [
            (i, resolve(arg, {}).value)
            for i, arg in enumerate(goal.args) if arg.is_ground()
        ]
        free = [i for i, arg in enumerate(goal.args) if not arg.is_ground()]
        return {
            tuple(row[i] for i in free)
            for row in self.full(goal.key)
            if all(row[i] == value for i, value in checks)
        }


def evaluate_program(program, db, stats=None):
    """Oracle counterpart of :func:`repro.engine.evaluate_program`."""
    return Oracle(program, db, stats).run()


def query_answers(query, db):
    """The answer set of ``query`` over ``db``."""
    oracle = Oracle(query.program, db)
    oracle.run()
    return oracle.answers(query.goal)


def render(answers):
    """An answer set rendered as the CLI prints it, as bytes."""
    lines = sorted(
        "(%s)" % ", ".join(format_value(v) for v in row)
        for row in answers
    )
    return "\n".join(lines).encode("utf-8")
