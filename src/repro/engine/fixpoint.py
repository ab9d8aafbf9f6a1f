"""Query-level evaluation API.

:func:`evaluate_query` runs a query's program bottom-up and filters the
goal relation by the goal's bound arguments.  The result is a
:class:`QueryResult` carrying both full goal tuples and the projection
onto the goal's free positions — the projection is what all the
rewriting executors return, so answers from different methods compare
directly.
"""

from ..datalog.rules import Query
from ..datalog.terms import Constant, ground_value
from .instrumentation import EvalStats


class QueryResult:
    """Answers of a query plus the statistics of computing them."""

    __slots__ = ("query", "tuples", "answers", "stats")

    def __init__(self, query, tuples, answers, stats):
        self.query = query
        #: Full ground goal tuples matching the bound arguments.
        self.tuples = frozenset(tuples)
        #: Projection of ``tuples`` onto the goal's free positions.
        self.answers = frozenset(answers)
        self.stats = stats

    def __iter__(self):
        return iter(self.answers)

    def __len__(self):
        return len(self.answers)

    def __contains__(self, answer):
        return answer in self.answers

    def sorted(self):
        return sorted(self.answers)

    def __repr__(self):
        return "QueryResult(%d answers)" % len(self.answers)


def goal_filter(goal, rows):
    """Rows of the goal relation compatible with the goal's constants,
    as an iterator (over ``rows`` unfiltered when the goal has no
    constants)."""
    checks = []
    for i, arg in enumerate(goal.args):
        if isinstance(arg, Constant):
            checks.append((i, arg.value))
        elif arg.is_ground():
            checks.append((i, ground_value(arg)))
    if not checks:
        return iter(rows)
    return (
        row for row in rows if all(row[i] == value for i, value in checks)
    )


def project_free(goal, rows):
    """Project rows onto the goal's non-ground positions (a set)."""
    free = [i for i, arg in enumerate(goal.args) if not arg.is_ground()]
    if len(free) == len(goal.args):
        # Insert in iteration order, as the general path does: copying
        # a set directly would keep its table layout instead, and the
        # answers would iterate in a different order.
        return set(iter(rows))
    return {tuple(row[i] for i in free) for row in rows}


def evaluate_query(query, db, stats=None, max_iterations=None):
    """Evaluate ``query`` over ``db`` with the semi-naive engine."""
    if not isinstance(query, Query):
        raise TypeError("expected a Query")
    from .seminaive import SemiNaiveEngine

    stats = stats if stats is not None else EvalStats()
    engine = SemiNaiveEngine(
        query.program, db, stats=stats, max_iterations=max_iterations
    )
    engine.run()
    goal = query.goal
    relation = engine.relation(goal.key)
    tuples = set(goal_filter(goal, relation))
    answers = project_free(goal, tuples)
    return QueryResult(query, tuples, answers, stats)
